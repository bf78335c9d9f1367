"""Null vectors and input checks for dense and scipy.sparse matrices.

The point is not the math (SuperLU and LAPACK do that) but the
guarantees: input is checked to be a finite square matrix (Hermitian
where required), and an ill-posed null-space problem raises a typed
error instead of handing back garbage.  null_vector factors the matrix
once, bordered by a vector its caller chooses, in the matrix's own
dtype: a real matrix gets real LAPACK or SuperLU.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DegenerateKernelError, ValidationError
from .settings import DEFAULT, NumericSettings

# bordered systems with fewer unknowns are factored dense (j <= 6.5 on a
# generator); measured on one core, real dense and sparse LU of steady
# states break even near 200 unknowns
_DENSE_LU_MAX = 200
# SuperLU on the generator's structurally symmetric pattern: a minimum
# degree ordering of A + A^T, kept by diagonal pivots unless a column holds
# an entry ten times larger.  Measured on one core against the default
# (COLAMD, partial pivoting), the factorisation takes 25 % less time at
# j = 16, 40-50 % less at j = 64, and never more; with partial pivoting the
# same ordering fills 4-11x more at nbar = 0 and small gamma_a (j = 64, 32)
_SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options=dict(SymmetricMode=True)
)


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


def _as_csc(entries, name="matrix"):
    """Finite square CSC array, duplicates summed, from dense or sparse input.

    float64 when the entries are real, complex128 otherwise.
    """
    if not sp.issparse(entries):
        entries = np.asarray(entries)
    _require_square(entries.shape, name)
    A = entries.tocsc() if sp.issparse(entries) else sp.csc_array(entries)
    A = A.astype(complex if np.iscomplexobj(A.data) else float, copy=False)
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


def _inverse_norm1_estimate(solve, n, dtype):
    """Lower bound on ||M^{-1}||_1 from a few solves with the LU factors of M.

    Hager's iteration in Higham's form (ACM TOMS 14, 381 (1988); LAPACK
    dlacon and zlacon): alternate solves with M and M^H, each time
    moving to the unit vector that promises the largest ||M^{-1} x||_1,
    for at most five rounds; then try Higham's alternating-sign vector,
    which catches the matrices that fool the iteration.  Usually within
    a factor of 3 of the true norm.  solve(b, adjoint) solves with M or
    M^H.
    """
    x = np.full(n, 1.0 / n, dtype=dtype)
    est, j = 0.0, -1
    for _ in range(5):
        y = solve(x, False)
        trial = np.abs(y).sum()
        if trial <= est:
            break
        est = trial
        unit = np.exp(1j * np.angle(y)) if y.dtype.kind == "c" else np.copysign(1.0, y)
        j_next = np.abs(solve(unit, True)).argmax()
        if j_next == j:
            break
        j = j_next
        x = np.zeros(n, dtype=dtype)
        x[j] = 1.0
    alt = 1.0 + np.arange(n) / max(n - 1, 1)
    alt[1::2] *= -1.0
    return float(max(est, 2.0 * np.abs(solve(alt.astype(dtype), False)).sum() / (3.0 * n)))


def _bordered_solve(A, border):
    """x from [[A, b], [b^H, 0]] [x; mu] = [0; 1], and kappa_1 of that matrix.

    A is canonical CSC of A's dtype and b a vector of the same dtype.
    One LU factorisation serves the solve and the condition estimate:
    below _DENSE_LU_MAX unknowns LAPACK's on the dense matrix, where
    SuperLU's set-up costs more than the factorisation; above it
    SuperLU's, on A's CSC arrays with only b's nonzeros inserted as the
    last row and column.  An exactly singular factor gives (None, inf).
    """
    n = A.shape[0]
    if n < _DENSE_LU_MAX:
        bordered = np.zeros((n + 1, n + 1), dtype=A.dtype)
        bordered[:n, :n] = A.toarray()
        bordered[:n, n] = border
        bordered[n, :n] = border.conj()
        getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (bordered,))
        lu, piv, info = getrf(bordered)
        if info > 0:  # a zero pivot
            return None, np.inf

        def solve(b, adjoint):
            return getrs(lu, piv, b, trans=2 if adjoint else 0)[0]
    else:
        nz = np.flatnonzero(border)
        shift = np.zeros(n + 1, dtype=A.indptr.dtype)
        shift[nz + 1] = 1
        ends = A.indptr[1:][nz]  # row n goes last in each of these columns
        bordered = sp.csc_array(
            (
                np.concatenate([np.insert(A.data, ends, border[nz].conj()), border[nz]]),
                np.concatenate([np.insert(A.indices, ends, n), nz]),
                np.append(A.indptr + np.cumsum(shift), A.nnz + 2 * len(nz)),
            ),
            shape=(n + 1, n + 1),
        )
        # imported here: it adds ~20 ms to every start-up, and only
        # j >= 7 generators get this far
        from scipy.sparse.linalg import splu

        try:
            lu = splu(bordered, **_SPLU_OPTIONS)
        except RuntimeError:  # a zero pivot
            return None, np.inf

        def solve(b, adjoint):
            return lu.solve(b, trans="H" if adjoint else "N")
    rhs = np.zeros(n + 1, dtype=A.dtype)
    rhs[n] = 1.0
    x = solve(rhs, False)[:n]
    norm1 = abs(bordered).sum(axis=0).max()
    return x, norm1 * _inverse_norm1_estimate(solve, n + 1, A.dtype)


def null_vector(A, border, settings: NumericSettings = DEFAULT):
    """Unit-norm vector spanning a one-dimensional null space of A.

    A may be a dense array or a scipy.sparse matrix, real or complex;
    the work is done in its dtype (complex if border is).  One LU of the
    bordered matrix M = [[A, b], [b^H, 0]] (see _bordered_solve) solves
    M [x; mu] = [0; 1], with b the caller's border scaled to
    ||A||_F / sqrt(n), so that M, and with it every check, is invariant
    under A -> c A.  M is nonsingular exactly when the kernel of A is
    one-dimensional and neither it nor the left kernel is orthogonal to
    b; then mu = 0 and x spans the kernel.  The caller picks b so that
    neither is: a vector close to the left kernel, which the kernel does
    not miss, is the well-conditioned choice.  For a trace-preserving
    generator that is the trace functional vec(I), its exact left
    kernel, whose overlap with the kernel is the steady state's trace.
    Two checks raise DegenerateKernelError:

    * uniqueness: the inverse of a Hager-Higham estimate of kappa_1(M)
      must reach ``null_gap_rtol``;
    * existence: ``||A x|| <= null_rtol * ||A||_F * ||x||``.

    A border (nearly) orthogonal to the kernel or the left kernel fails
    the first check although the kernel may be simple.
    """
    A = _as_csc(A)
    n = A.shape[0]
    border = np.asarray(border).reshape(-1)
    if border.shape != (n,) or not np.all(np.isfinite(border)) or not border.any():
        raise ValidationError(f"border must be a finite nonzero vector of length {n}")
    fnorm = float(np.linalg.norm(A.data))
    if fnorm == 0.0:
        if n == 1:
            return np.ones(1, dtype=A.dtype)
        raise DegenerateKernelError(
            f"zero matrix of size {n}: null space has dimension {n}"
        )
    dtype = np.result_type(A.dtype, border.dtype, float)
    A = A.astype(dtype, copy=False)
    scale = fnorm / np.sqrt(n) / np.linalg.norm(border)
    x, kappa = _bordered_solve(A, scale * border.astype(dtype))
    if not kappa * settings.null_gap_rtol <= 1.0:
        raise DegenerateKernelError(
            f"null space not one-dimensional: condition estimate {kappa:.3e} of the "
            f"bordered matrix exceeds 1 / null_gap_rtol = {1.0 / settings.null_gap_rtol:.1e}"
        )
    resid = float(np.linalg.norm(A @ x) / (fnorm * np.linalg.norm(x)))
    if not resid <= settings.null_rtol:
        raise DegenerateKernelError(
            f"no null vector at working precision: ||A x|| / (||A||_F ||x||) = "
            f"{resid:.3e} > null_rtol = {settings.null_rtol:.1e}, so none of the "
            "singular values of A is numerically zero"
        )
    return x / np.linalg.norm(x)
