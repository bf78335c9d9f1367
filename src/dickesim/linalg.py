"""Null vectors and input checks for dense matrices.

The point is not the math (LAPACK does that) but the guarantees: input
is checked to be a finite square matrix (Hermitian where required), and
an ill-posed null-space problem raises a typed error instead of handing
back garbage.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateKernelError, ValidationError
from .settings import DEFAULT, NumericSettings


def as_complex_matrix(entries, name="matrix"):
    """Coerce to a finite complex128 2D square array or raise ValidationError."""
    A = np.asarray(entries, dtype=complex)
    if A.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValidationError(f"{name} must be square and nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def hermiticity_defect(A):
    """Largest entrywise deviation from A = A^dag."""
    return float(np.abs(A - A.conj().T).max())


def require_hermitian(A, tol, name="matrix"):
    defect = hermiticity_defect(A)
    if defect > tol:
        raise ValidationError(
            f"{name} is not Hermitian: max |A - A^dag| = {defect:.3e} > {tol:.1e}"
        )


def null_vector(A, settings: NumericSettings = DEFAULT):
    """Unit-norm vector spanning a one-dimensional null space of A.

    Uses the full SVD.  The smallest singular value must sit below
    ``null_rtol * ||A||_F`` (otherwise there is no null vector) and the
    second smallest must sit above ``null_gap_rtol * ||A||_F``
    (otherwise the kernel is not one-dimensional); both failure modes
    raise DegenerateKernelError quoting the two offending values.
    """
    A = as_complex_matrix(A)
    fnorm = float(np.linalg.norm(A, "fro"))
    if fnorm == 0.0:
        if A.shape[0] == 1:
            return np.ones(1, dtype=complex)
        raise DegenerateKernelError(
            f"zero matrix of size {A.shape[0]}: null space has dimension {A.shape[0]}"
        )
    _, s, Vh = np.linalg.svd(A)
    if s[-1] > settings.null_rtol * fnorm:
        raise DegenerateKernelError(
            f"no null vector at working precision: smallest singular values "
            f"({s[-2]:.3e}, {s[-1]:.3e}), ||A||_F = {fnorm:.3e}"
        )
    if len(s) >= 2 and s[-2] < settings.null_gap_rtol * fnorm:
        raise DegenerateKernelError(
            f"null space not one-dimensional: smallest singular values "
            f"({s[-2]:.3e}, {s[-1]:.3e}), ||A||_F = {fnorm:.3e}"
        )
    return Vh[-1].conj()
