"""Two-qubit entanglement of collective spin states.

Three pieces: the Wootters concurrence of an arbitrary two-qubit state,
the isometric embedding of a spin-1 state into the two-qubit triplet
sector, and the reduction of a permutation-symmetric N-qubit state
(stored as a (2j+1)-dimensional collective state, N = 2j) to any pair of
its constituents.  The reduction needs six collective moments, which
it reads from the main diagonal and the first two subdiagonals of the
state, so it costs O(d) beyond validating its input.  Its independent
oracle, the brute-force 2^N embedding (N <= 8), lives in the tests.

Two-qubit basis order is (|ee>, |eg>, |ge>, |gg>) with |e> first in each
factor.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .dynamics import validate_density_matrix
from .linalg import as_complex_matrix
from .settings import DEFAULT, NumericSettings
from .spin_ops import SpinQuantum, ladder_coefficients, m_values

_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_YY = np.kron(_SY, _SY)


def validate_two_qubit_state(rho, settings: NumericSettings = DEFAULT, name="rho"):
    rho = as_complex_matrix(rho, name)
    if rho.shape != (4, 4):
        raise ValidationError(f"{name} must be 4x4, got {rho.shape}")
    return validate_density_matrix(rho, settings, name)


def concurrence(rho, settings: NumericSettings = DEFAULT) -> float:
    """Wootters concurrence C(rho) of a two-qubit state.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots
    of the eigenvalues of rho @ rho_tilde, rho_tilde = (sy kron sy)
    rho* (sy kron sy).  For any factor rho = X X^dag those l_i are the
    singular values of X^T (sy kron sy) X, which stays accurate to
    rounding when rho is rank-deficient, where the eigenvalues of the
    non-Hermitian product lose half the digits.
    """
    rho = validate_two_qubit_state(rho, settings)
    w, v = np.linalg.eigh(rho)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(x.T @ _YY @ x, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def triplet_to_two_qubit(rho3, settings: NumericSettings = DEFAULT) -> np.ndarray:
    """Embed a spin-1 state into two qubits through the triplet sector.

    Isometry: top level -> |ee>, middle -> (|eg>+|ge>)/sqrt(2),
    bottom -> |gg>.  The singlet component of the output is exactly zero.
    """
    rho3 = as_complex_matrix(rho3, "rho3")
    if rho3.shape != (3, 3):
        raise ValidationError(f"spin-1 state must be 3x3, got {rho3.shape}")
    validate_density_matrix(rho3, settings, "rho3")
    iso = np.zeros((4, 3))
    iso[0, 0] = 1.0
    iso[1, 1] = iso[2, 1] = 1.0 / np.sqrt(2.0)
    iso[3, 2] = 1.0
    return iso @ rho3 @ iso.T


def pair_reduced_state(rho, spin, settings: NumericSettings = DEFAULT) -> np.ndarray:
    """Two-qubit reduced state of a symmetric N-qubit state, N = 2j.

    Works entirely from collective moments (Wang and Molmer, Eur. Phys.
    J. D 18, 385 (2002)).  With p_k = rho[k, k], c_k = J-[k+1, k] and
    m_k = j - k, the moments <Jz>, <Jz^2>, <J+J->, <J+>, <J+^2> and
    <J+Jz> are sums over the main diagonal and the first two
    subdiagonals.  Single-site moments follow from <Jz>/N and <J+>/N;
    two-site moments from the rest after removing same-site
    contributions (sum_i s+_i s-_i = N/2 + Jz and s+ sz = -s+ on one
    site) and dividing by the N(N-1) ordered pairs.  The exchange-
    symmetric 4x4 is filled from those numbers directly.
    """
    s = SpinQuantum.from_j(spin)
    if s.two_j < 2:
        raise ValidationError(f"pair reduction needs j >= 1, got j = {s.j}")
    rho = as_complex_matrix(rho, "rho")
    if rho.shape[0] != s.dim:
        raise ValidationError(f"state dimension {rho.shape[0]} does not match j = {s.j}")
    validate_density_matrix(rho, settings, "rho")

    n = float(s.two_j)
    c = ladder_coefficients(s)
    m = m_values(s)
    p = np.diagonal(rho).real
    sub1 = np.diagonal(rho, -1)             # rho[k+1, k]
    sub2 = np.diagonal(rho, -2)             # rho[k+2, k]

    mz = p @ m
    mzz = p @ (m * m)
    mpm = p[:-1] @ (c * c)
    mp = c @ sub1
    mpp = (c[:-1] * c[1:]) @ sub2
    mpz = (c * m[1:]) @ sub1

    pairs = n * (n - 1.0)
    one_z = 2.0 * mz / n                      # <sz> on one site
    one_p = mp / n                            # <s+> on one site
    pp = mpp / pairs                          # <s+ s+> across sites
    pm = (mpm - n / 2.0 - mz) / pairs         # <s+ s-> across sites
    zz = (4.0 * mzz - n) / pairs              # <sz sz> across sites
    pz = (2.0 * mpz + mp) / pairs             # <s+ sz> across sites

    a = np.conj(one_p + pz) / 2.0
    b = np.conj(one_p - pz) / 2.0
    mid = (1.0 - zz) / 4.0
    out = np.array([
        [(1.0 + 2.0 * one_z + zz) / 4.0, a, a, np.conj(pp)],
        [np.conj(a), mid, pm, b],
        [np.conj(a), pm, mid, b],
        [pp, np.conj(b), np.conj(b), (1.0 - 2.0 * one_z + zz) / 4.0],
    ], dtype=complex)
    return validate_two_qubit_state(out, settings, "pair-reduced state")
