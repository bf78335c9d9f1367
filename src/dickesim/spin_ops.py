"""Collective spin operators in the symmetric (maximal j) sector.

Basis ordering is |j, m> with m descending from +j to -j, so index 0 is
the fully excited state and the lowering operator is strictly lower
triangular.  All matrices are dense complex128; the largest j this
package targets (j = 128) is a 257 x 257 matrix, far below any dense
limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, order=True)
class SpinQuantum:
    """Total spin j stored exactly as the integer 2j."""

    two_j: int

    def __post_init__(self):
        if not isinstance(self.two_j, (int, np.integer)) or isinstance(self.two_j, bool):
            raise ValidationError(f"two_j must be an integer, got {self.two_j!r}")
        if self.two_j < 0:
            raise ValidationError(f"two_j must be >= 0, got {self.two_j}")
        object.__setattr__(self, "two_j", int(self.two_j))

    @classmethod
    def from_j(cls, value):
        """Coerce j given as SpinQuantum, int, or half-integer float."""
        if isinstance(value, cls):
            return value
        two_j = 2 * float(value)
        if not np.isfinite(two_j) or abs(two_j - round(two_j)) > 1e-9:
            raise ValidationError(f"j must be a non-negative half-integer, got {value!r}")
        return cls(int(round(two_j)))

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        """Dimension of the symmetric sector, 2j + 1."""
        return self.two_j + 1


def m_values(spin) -> np.ndarray:
    """m quantum numbers in basis order: +j, j-1, ..., -j."""
    s = SpinQuantum.from_j(spin)
    return s.j - np.arange(s.dim)


def ladder_coefficients(spin) -> np.ndarray:
    """c_k = J-[k+1, k] for k = 0 .. 2j-1, in basis order.

    J- |j, m> = sqrt(j(j+1) - m(m-1)) |j, m-1>; with m = j - k the
    radicand is the integer (k+1)(2j-k).
    """
    s = SpinQuantum.from_j(spin)
    k = np.arange(s.two_j)
    return np.sqrt((k + 1.0) * (s.two_j - k))


def build_jminus(spin) -> np.ndarray:
    """Lowering operator J-, the ladder coefficients on the first subdiagonal."""
    return np.diag(ladder_coefficients(spin), -1).astype(complex)


def build_jz(spin) -> np.ndarray:
    """Diagonal J_z in the descending-m basis."""
    return np.diag(m_values(spin)).astype(complex)


def dicke_projector(spin, m) -> np.ndarray:
    """Density matrix |j, m><j, m| for a single ladder level."""
    s = SpinQuantum.from_j(spin)
    idx = s.j - float(m)
    if abs(idx - round(idx)) > 1e-9 or not 0 <= round(idx) < s.dim:
        raise ValidationError(f"m = {m!r} is not a level of j = {s.j}")
    rho = np.zeros((s.dim, s.dim), dtype=complex)
    rho[int(round(idx)), int(round(idx))] = 1.0
    return rho
