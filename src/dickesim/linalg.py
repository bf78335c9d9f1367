"""Null vectors and input checks for dense and scipy.sparse matrices.

The point is not the math (LAPACK and SuperLU do that) but the
guarantees: input is checked to be a finite square matrix (Hermitian
where required), and an ill-posed null-space problem raises a typed
error instead of handing back garbage.  null_vector factors the matrix
once, bordered by a vector its caller chooses, in the matrix's own
dtype.  Up to _DENSE_LU_MAX unknowns one numpy kernel inverts the
bordered matrix, of one matrix or of a (k, n, n) stack at once, which
gives the null vector and the exact condition number kappa_1 together.
Larger matrices go to SuperLU with a Hager-Higham estimate of kappa_1.
scipy is imported only on that route and for scipy.sparse input.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DegenerateKernelError, ValidationError
from .settings import DEFAULT, NumericSettings

# bordered systems with at most this many unknowns are inverted dense
# (j <= 5 on the full generator, j <= 7 on its symmetric block).  Measured
# on one core, a full-generator steady-state solve by the dense inverse
# takes 0.52 ms at 81 unknowns against SuperLU's 0.81 ms, the two tie at
# 121 (1.0 ms), and SuperLU wins from 144 on (1.2 against 1.9 ms; 1.35
# against 2.6 ms at 169).  On the block: 0.47 against 0.93 ms at 78
# unknowns (j = 5.5), 0.83 against 0.88 ms at 120 (j = 7), and SuperLU
# wins at 136 (1.1 against 1.7 ms)
_DENSE_LU_MAX = 121
# SuperLU on the generator's structurally symmetric pattern: a minimum
# degree ordering of A + A^T, kept by diagonal pivots unless a column holds
# an entry ten times larger.  Measured on one core against the default
# (COLAMD, partial pivoting), the factorisation takes 25 % less time at
# j = 16, 40-50 % less at j = 64, and never more; with partial pivoting the
# same ordering fills 4-11x more at nbar = 0 and small gamma_a (j = 64, 32)
_SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options=dict(SymmetricMode=True)
)


def _require_square(shape, name, stack=False):
    ndim = 3 if stack else 2
    if len(shape) != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got ndim={len(shape)}")
    if shape[-2] != shape[-1] or shape[-1] < 1:
        raise ValidationError(f"{name} must be square and nonempty, got shape {shape}")


def as_complex_matrix(entries, name="matrix"):
    """Coerce to a finite complex128 2D square array or raise ValidationError."""
    A = np.asarray(entries, dtype=complex)
    _require_square(A.shape, name)
    if not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def _is_sparse(entries):
    """True for scipy.sparse input; there is none before scipy.sparse is imported."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(entries)


def _as_csc(entries, name="matrix"):
    """Finite square CSC array, duplicates summed, from dense or sparse input.

    float64 when the entries are real, complex128 otherwise.
    """
    import scipy.sparse as sp

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


_SINGULAR = "null space not one-dimensional: the bordered matrix is singular"


def _norm1(M):
    """Largest column sum of |M| for each matrix of a (k, m, m) stack."""
    return np.abs(M).sum(axis=-2).max(axis=-1)


def _bordered_inverse(A, border, item):
    """x and exact kappa_1 of each bordered matrix of a dense (k, n, n) stack.

    Builds every M = [[A, b], [b^H, 0]] at once, with b the row of
    border for that item, and takes one np.linalg.inv of the stack:
    column n of M^{-1} holds [x; mu], and kappa_1 = ||M||_1 ||M^{-1}||_1
    is exact.  An exactly singular M raises DegenerateKernelError
    naming its item.
    """
    k, n = A.shape[:2]
    M = np.zeros((k, n + 1, n + 1), dtype=border.dtype)
    M[:, :n, :n] = A
    M[:, :n, n] = border
    M[:, n, :n] = border.conj()
    try:
        inverse = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        for i in range(k):  # LAPACK stops at a zero pivot; find whose
            try:
                np.linalg.inv(M[i])
            except np.linalg.LinAlgError:
                raise DegenerateKernelError(f"{item(i)}{_SINGULAR}") from None
        raise
    with np.errstate(over="ignore"):  # a near-singular M has kappa_1 = inf
        return inverse[:, :n, n], _norm1(M) * _norm1(inverse)


def _bordered_solve(A, border):
    """x and a kappa_1 estimate of [[A, b], [b^H, 0]] by one SuperLU factorisation.

    A is canonical CSC of b's dtype.  Only b's nonzeros are inserted
    into A's CSC arrays, as the last row and column.  The condition
    estimate reuses the factors (_inverse_norm1_estimate).  A zero
    pivot raises DegenerateKernelError.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = A.shape[0]
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
    try:
        lu = splu(bordered, **_SPLU_OPTIONS)
    except RuntimeError:  # a zero pivot
        raise DegenerateKernelError(_SINGULAR) from None

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
    the work is done in its dtype (complex if border is).  Dense input
    may also be a (k, n, n) stack, solved item by item in one pass, for
    a (k, n) result.  Each solve is one factorisation of the bordered
    matrix M = [[A, b], [b^H, 0]], solving M [x; mu] = [0; 1], with b
    the caller's border scaled to ||A||_F / sqrt(n), so that M, and with
    it every check, is invariant under A -> c A.  Up to _DENSE_LU_MAX
    unknowns M is inverted (_bordered_inverse), sparse input included;
    above, a single matrix is factored by SuperLU (_bordered_solve).

    M is nonsingular exactly when the kernel of A is one-dimensional
    and neither it nor the left kernel is orthogonal to b; then mu = 0
    and x spans the kernel.  The caller picks b so that neither is: a
    vector close to the left kernel, which the kernel does not miss, is
    the well-conditioned choice.  For a trace-preserving generator that
    is the trace functional vec(I), its exact left kernel, whose
    overlap with the kernel is the steady state's trace.  Two checks
    raise DegenerateKernelError, naming the stack item that fails:

    * uniqueness: 1 / kappa_1(M) must reach ``null_gap_rtol``; kappa_1
      is exact on the dense route and a Hager-Higham lower bound on
      SuperLU's;
    * existence: ``||A x|| <= null_rtol * ||A||_F * ||x||``.

    A border (nearly) orthogonal to the kernel or the left kernel fails
    the first check although the kernel may be simple.
    """
    sparse = _is_sparse(A)
    A = A if sparse else np.asarray(A)
    stack = not sparse and A.ndim == 3
    _require_square(A.shape, "matrix", stack)
    n = A.shape[-1]
    border = np.asarray(border).reshape(-1)
    if border.shape != (n,) or not np.all(np.isfinite(border)) or not border.any():
        raise ValidationError(f"border must be a finite nonzero vector of length {n}")
    dense = n <= _DENSE_LU_MAX
    if dense:
        A = (A.toarray() if sparse else A).reshape(-1, n, n)
        if not np.all(np.isfinite(A)):
            raise ValidationError("matrix contains non-finite entries")
        fnorm = np.linalg.norm(A.reshape(len(A), -1), axis=1)
    elif stack:
        raise ValidationError(f"a stack of matrices needs at most {_DENSE_LU_MAX} unknowns")
    else:
        A = _as_csc(A)
        fnorm = np.linalg.norm(A.data, keepdims=True)
    dtype = np.result_type(A.dtype, border.dtype, float)
    A = A.astype(dtype, copy=False)

    def item(i):
        return f"item {i}: " if stack else ""

    zero = np.flatnonzero(fnorm == 0.0)
    if n > 1 and zero.size:
        raise DegenerateKernelError(
            f"{item(zero[0])}zero matrix of size {n}: null space has dimension {n}"
        )
    # a zero 1 x 1 matrix is its own kernel; border it at unit scale
    scale = np.where(fnorm == 0.0, 1.0, fnorm) / np.sqrt(n) / np.linalg.norm(border)
    borders = scale[:, None] * border.astype(dtype)
    if dense:
        x, kappa = _bordered_inverse(A, borders, item)
        residual = np.linalg.norm((A @ x[:, :, None])[:, :, 0], axis=1)
        kind = "condition number"
    else:
        x, kappa = _bordered_solve(A, borders[0])
        x, kappa = x[None], np.array([kappa])
        residual = np.linalg.norm(A @ x[0], keepdims=True)
        kind = "condition estimate"
    unique = kappa * settings.null_gap_rtol <= 1.0
    xnorm = np.linalg.norm(x, axis=1)
    null = residual <= settings.null_rtol * fnorm * xnorm
    failed = np.flatnonzero(~(unique & null))
    if failed.size:
        i = failed[0]
        if not unique[i]:
            raise DegenerateKernelError(
                f"{item(i)}null space not one-dimensional: {kind} {kappa[i]:.3e} of the "
                f"bordered matrix exceeds 1 / null_gap_rtol = {1.0 / settings.null_gap_rtol:.1e}"
            )
        raise DegenerateKernelError(
            f"{item(i)}no null vector at working precision: ||A x|| / (||A||_F ||x||) = "
            f"{residual[i] / (fnorm[i] * xnorm[i]):.3e} > null_rtol = "
            f"{settings.null_rtol:.1e}, so none of the singular values of A is "
            "numerically zero"
        )
    x = x / xnorm[:, None]
    return x if stack else x[0]
