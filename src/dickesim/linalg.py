"""Null vectors and input checks for dense and scipy.sparse matrices.

The point is not the math (SuperLU and LAPACK do that) but the
guarantees: input is checked to be a finite square matrix (Hermitian
where required), and an ill-posed null-space problem raises a typed
error instead of handing back garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgetrf, zgetrs

from .errors import DegenerateKernelError, ValidationError
from .settings import DEFAULT, NumericSettings

# the fallback border's phases step by this fraction of a turn
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# bordered systems with fewer unknowns are factored dense (j <= 5.5); measured
# on one core, dense and sparse LU break even near 150 unknowns
_DENSE_LU_MAX = 150
# an accepted null vector whose relative residual exceeds this many rounding
# units per unknown is solved once more, bordered by itself; on generators
# it stayed below 0.11 n eps (j = 1/2..16, 128 random parameter sets)
_REFINE_ABOVE = 100 * np.finfo(float).eps


def _require_square(shape, name):
    if len(shape) != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={len(shape)}")
    if shape[0] != shape[1] or shape[0] < 1:
        raise ValidationError(f"{name} must be square and nonempty, got shape {shape}")


def as_complex_matrix(entries, name="matrix"):
    """Coerce to a finite complex128 2D square array or raise ValidationError."""
    A = np.asarray(entries, dtype=complex)
    _require_square(A.shape, name)
    if not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def _as_complex_csc(entries, name="matrix"):
    """Finite square complex CSC array, duplicates summed, from dense or sparse input."""
    if not sp.issparse(entries):
        return sp.csc_array(as_complex_matrix(entries, name))
    _require_square(entries.shape, name)
    A = entries.tocsc().astype(complex, copy=False)
    A.sum_duplicates()
    if not np.all(np.isfinite(A.data)):
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


def _inverse_norm1_estimate(lu):
    """Lower bound on ||M^{-1}||_1 from a few solves with the LU factors of M.

    Hager's iteration in Higham's complex form (ACM TOMS 14, 381 (1988);
    LAPACK zlacon): alternate solves with M and M^H, each time moving to
    the unit vector that promises the largest ||M^{-1} x||_1, for at
    most five rounds; then try Higham's alternating-sign vector, which
    catches the matrices that fool the iteration.  Usually within a
    factor of 3 of the true norm.
    """
    n = lu.shape[0]
    x = np.full(n, 1.0 / n, dtype=complex)
    est, j = 0.0, -1
    for _ in range(5):
        y = lu.solve(x)
        trial = float(np.abs(y).sum())
        if trial <= est:
            break
        est = trial
        z = lu.solve(np.exp(1j * np.angle(y)), trans="H")
        j_next = int(np.argmax(np.abs(z)))
        if j_next == j:
            break
        j = j_next
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    k = np.arange(n)
    alt = np.where(k % 2 == 0, 1.0, -1.0) * (1.0 + k / max(n - 1, 1))
    return max(est, 2.0 * float(np.abs(lu.solve(alt.astype(complex))).sum()) / (3.0 * n))


class _DenseLU:
    """LAPACK getrf/getrs behind SuperLU's solve(b, trans) interface."""

    def __init__(self, M):
        self.shape = M.shape
        self._lu, self._piv, info = zgetrf(M)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, b, trans="N"):
        return zgetrs(self._lu, self._piv, b, trans={"N": 0, "H": 2}[trans])[0]


def _bordered_solve(A, border):
    """x from [[A, b], [b^H, 0]] [x; mu] = [0; 1], and kappa_1 of that matrix.

    A is canonical CSC; the border b becomes an extra last row and
    column.  One LU factorisation serves the solve and the condition
    estimate: SuperLU's, or below _DENSE_LU_MAX unknowns LAPACK's on
    the dense matrix, where SuperLU's set-up costs more than the
    factorisation.  An exactly singular factor gives (None, inf).
    """
    n = A.shape[0]
    if n < _DENSE_LU_MAX:
        bordered = np.zeros((n + 1, n + 1), dtype=complex)
        bordered[:n, :n] = A.toarray()
        bordered[:n, n] = border
        bordered[n, :n] = border.conj()
        factor = _DenseLU
    else:
        ends = A.indptr[1:]
        bordered = sp.csc_array(
            (
                np.concatenate([np.insert(A.data, ends, border.conj()), border]),
                np.concatenate([np.insert(A.indices, ends, n), np.arange(n)]),
                np.append(A.indptr + np.arange(n + 1), A.nnz + 2 * n),
            ),
            shape=(n + 1, n + 1),
        )
        # imported here: it adds ~20 ms to every start-up, and only
        # j >= 6 generators get this far
        from scipy.sparse.linalg import splu as factor
    try:
        lu = factor(bordered)
    except RuntimeError:  # a zero pivot
        return None, np.inf
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[n] = 1.0
    x = lu.solve(rhs)[:n]
    return x, abs(bordered).sum(axis=0).max() * _inverse_norm1_estimate(lu)


def null_vector(A, settings: NumericSettings = DEFAULT):
    """Unit-norm vector spanning a one-dimensional null space of A.

    A may be a dense array or a scipy.sparse matrix.  One LU of the
    bordered matrix M = [[A, b], [b^H, 0]] (see _bordered_solve) solves
    M [x; mu] = [0; 1], with b the uniform vector scaled to
    ||A||_F / sqrt(n), so that M, and with it every check, is invariant
    under A -> c A.  M is nonsingular exactly when the kernel of A is
    one-dimensional and neither it nor the left kernel is orthogonal to
    b; then mu = 0 and x spans the kernel.  Two checks raise
    DegenerateKernelError:

    * uniqueness: the inverse of a Hager-Higham estimate of kappa_1(M)
      must reach ``null_gap_rtol``;
    * existence: ``||A x|| <= null_rtol * ||A||_F * ||x||``.

    A border (nearly) orthogonal to the kernel or the left kernel also
    makes M singular or ill-conditioned although the kernel is simple,
    and an ill-conditioned M leaves a residual of order kappa_1(M) * eps;
    the uniform vector does this for a near-pure state with cancelling
    coherences, say.  So when a solve fails either check, a border of
    golden-ratio phases, orthogonal to no structured vector, is tried,
    and then that solve's solution, which the kernel dominates.  The
    last border tried decides which error is raised.  An accepted
    solution whose residual is still far above rounding (_REFINE_ABOVE)
    is refined by one more solve bordered by itself, kept if its
    residual is smaller.
    """
    A = _as_complex_csc(A)
    n = A.shape[0]
    fnorm = float(np.linalg.norm(A.data))
    if fnorm == 0.0:
        if n == 1:
            return np.ones(1, dtype=complex)
        raise DegenerateKernelError(
            f"zero matrix of size {n}: null space has dimension {n}"
        )

    def solve(border):
        x, kappa = _bordered_solve(A, fnorm / np.sqrt(n) * border / np.linalg.norm(border))
        if x is None:
            return x, kappa, np.inf
        return x, kappa, float(np.linalg.norm(A @ x) / (fnorm * np.linalg.norm(x)))

    def conditioned(kappa):
        return kappa * settings.null_gap_rtol <= 1.0

    def accepted(kappa, resid):
        return conditioned(kappa) and resid <= settings.null_rtol

    x, kappa, resid = solve(np.ones(n, dtype=complex))
    if not accepted(kappa, resid):
        x, kappa, resid = solve(np.exp(2j * np.pi * _GOLDEN * np.arange(n)))
        if not accepted(kappa, resid) and x is not None:
            x, kappa, resid = solve(x)
    if accepted(kappa, resid) and resid > _REFINE_ABOVE * n:
        # a border almost orthogonal to the left kernel leaves a residual of
        # order kappa_1(M) eps that refinement with the same factors cannot
        # remove: it is absorbed into mu.  Bordered by x the kernel is well
        # conditioned unless x is almost orthogonal to the left kernel.
        refined = solve(x)
        if accepted(*refined[1:]) and refined[2] < resid:
            x, kappa, resid = refined
    if not conditioned(kappa):
        raise DegenerateKernelError(
            f"null space not one-dimensional: condition estimate {kappa:.3e} of the "
            f"bordered matrix exceeds 1 / null_gap_rtol = {1.0 / settings.null_gap_rtol:.1e}"
        )
    if not resid <= settings.null_rtol:
        raise DegenerateKernelError(
            f"no null vector at working precision: ||A x|| / (||A||_F ||x||) = "
            f"{resid:.3e} > null_rtol = {settings.null_rtol:.1e}, so none of the "
            "singular values of A is numerically zero"
        )
    return x / np.linalg.norm(x)
