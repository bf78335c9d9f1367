"""Null vectors of dense matrices and of one sparse structure, with their input checks.

The point is not the math (LAPACK and SuperLU do that) but the
guarantees: input is checked to be a finite square matrix, and an
ill-posed null-space problem raises a typed error instead of handing
back garbage.  (Density matrices are checked elsewhere, by
dynamics.check_states.)  Each solve factors the matrix once, bordered
by a vector its caller chooses, in the matrix's own dtype.
null_vector takes dense input of at most _DENSE_LU_MAX unknowns, one
matrix or a (k, n, n) stack, and one numpy kernel inverts the bordered
matrices, which gives the null vector and the exact condition number
kappa_1 together.  Larger matrices go through _sparse_null_vector, on
a layout of the bordered matrix that a caller builds once per structure
and fills with each matrix's entries by one scatter, as the steady
states do on a parameter grid.  Up to _BAND_LU_MAX unknowns the layout
is LAPACK band storage in an order the caller picks (_band_layout): one
gbtrf factors it, and gbcon estimates kappa_1 from the factors.  Above,
it is one CSC structure (_border_pattern) for SuperLU, with a
Hager-Higham estimate of kappa_1 (_inverse_norm1_estimate); a minimum
degree order beats the band there.  scipy is imported only on these
two routes.  A solve is accepted (_accepted) under a fixed bound on its
conditioning, NULL_GAP_RTOL, and null_rtol on its residual, the one
tolerance a caller sets (default NULL_RTOL).
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import DegenerateKernelError, ValidationError

# bordered systems with at most this many unknowns are inverted dense
# (j <= 5 on the full generator, j <= 7 on its symmetric block).  Measured
# on one core, a full-generator steady-state solve by the dense inverse
# takes 0.52 ms at 81 unknowns against SuperLU's 0.81 ms, the two tie at
# 121 (1.0 ms), and SuperLU wins from 144 on (1.2 against 1.9 ms; 1.35
# against 2.6 ms at 169).  On the block: 0.47 against 0.93 ms at 78
# unknowns (j = 5.5), 0.83 against 0.88 ms at 120 (j = 7), and SuperLU
# wins at 136 (1.1 against 1.7 ms)
_DENSE_LU_MAX = 121
# bordered systems with more unknowns, up to this many (j <= 32 on the
# symmetric block), are LU-factored in LAPACK band storage, SuperLU above.
# Measured on one core, a block solve (omega_r = 0.85, nbar = 0.3) takes
# 0.11 against 0.66 ms at j = 8, 0.53 against 1.99 ms at j = 16, 4.3
# against 6.0 ms at j = 24, 8.0 against 8.5 ms at j = 28, and 8.5 against
# 6.5 ms at j = 32; SuperLU's minimum-degree order wins from there on (16
# against 41 ms at j = 48, 33 against 104 ms at j = 64).  j = 29-32 stay
# banded because the band bounds the work: at gamma_a = 1e-7, j = 32,
# the band refuses the degenerate kernel in 8 ms, SuperLU fills in for
# 0.31 s first (BENCH_banded_steady.json)
_BAND_LU_MAX = 2145
# SuperLU on the generator's structurally symmetric pattern: a minimum
# degree ordering of A + A^T, kept by diagonal pivots unless a column holds
# an entry ten times larger.  Measured on one core on the bordered block
# against the default (COLAMD, partial pivoting), the factorisation takes
# 32-43 % less time at j = 48 and 38-52 % less at j = 64 (nbar 0-1); with
# partial pivoting the same ordering fills 1.7-49x more at nbar = 0 and
# gamma_a = 0.01-0.0174 (j = 48, 64), up to 4.4 s against 20 ms
_SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options=dict(SymmetricMode=True)
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


def _border_pattern(indptr, indices, nz):
    """CSC structure of M = [[A, b], [b^H, 0]] from the canonical structure of A.

    Only b's nonzeros nz go in: row n as the last entry of their columns,
    and column n.  Returns (indptr, indices, slots, nz), indptr and
    indices of M as int32, and slots the position in M's data of each
    entry of A, then of b^H at nz, then of b at nz, so that one scatter
    of these values fills M.  All arrays are read-only.
    """
    n = len(indptr) - 1
    nnz, m = int(indptr[-1]), len(nz)
    ends = indptr[1:][nz]  # row n goes last in each of these columns
    shift = np.zeros(n + 1, dtype=np.int64)
    shift[nz + 1] = 1
    # np.insert puts b^H's entries before these ends, in the order of nz
    slots = np.empty(nnz + 2 * m, dtype=np.intp)
    slots[np.insert(np.arange(nnz), ends, nnz + np.arange(m))] = np.arange(nnz + m)
    slots[nnz + m:] = np.arange(nnz + m, nnz + 2 * m)
    out = (
        np.append(indptr + np.cumsum(shift), nnz + 2 * m).astype(np.int32),
        np.concatenate([np.insert(indices, ends, n), nz]).astype(np.int32),
        slots,
        nz,
    )
    for arr in out:
        arr.flags.writeable = False
    return out


def _bordered_solve(pattern, values, border, item):
    """x, a kappa_1 estimate and ||A x|| of M = [[A, b], [b^H, 0]] by one SuperLU factorisation.

    pattern is the _border_pattern of A's structure and b's nonzeros,
    values A's entries on it and border b, both of one dtype.  The
    condition estimate reuses the factors (_inverse_norm1_estimate), and
    A x is read from M.  A zero pivot raises DegenerateKernelError
    naming item(0).
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    indptr, indices, slots, nz = pattern
    n = len(indptr) - 2
    data = np.empty(len(slots), dtype=border.dtype)
    data[slots] = np.concatenate((values, border[nz].conj(), border[nz]))
    bordered = sp.csc_array((data, indices, indptr), shape=(n + 1, n + 1))
    try:
        lu = splu(bordered, **_SPLU_OPTIONS)
    except RuntimeError:  # a zero pivot
        raise DegenerateKernelError(f"{item(0)}{_SINGULAR}") from None

    def solve(b, adjoint):
        return lu.solve(b, trans="H" if adjoint else "N")

    y = np.zeros(n + 1, dtype=data.dtype)
    y[n] = 1.0
    y = solve(y, False)
    x = y[:n]
    # column sums of |M|; an empty column reads the next column's first
    # entry, which that column's own sum bounds, so the maximum is exact
    norm1 = np.add.reduceat(np.abs(data), indptr[:-1]).max()
    y[n] = 0.0
    residual = np.linalg.norm((bordered @ y)[:n])
    return x, norm1 * _inverse_norm1_estimate(solve, n + 1, data.dtype), residual


class _BandLayout(NamedTuple):
    """Where each entry of M = [[A, b], [b^H, 0]] goes in LAPACK band storage.

    M's unknowns are reordered as [mu, order]: the border unknown first,
    then A's unknowns in the caller's order.  slots is the position in
    the Fortran-order (2 kl + ku + 1, n + 1) band array of each entry of
    A, then of b^H at nz, then of b at nz; rows and cols give those
    entries' places in M (A's CSC entries first), and position the band
    index of each of A's unknowns.  Built by _band_layout; read-only.
    """

    slots: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    position: np.ndarray
    nz: np.ndarray
    kl: int
    ku: int


def _band_layout(indptr, indices, nz, order):
    """The _BandLayout of M = [[A, b], [b^H, 0]] from A's canonical CSC structure.

    order lists A's unknowns in the band's order and nz holds b's
    nonzeros; the band widths kl and ku are read from the reordered
    structure, so an order that keeps the couplings near the diagonal
    gives a narrow band.
    """
    n = len(indptr) - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    rows = np.concatenate([indices, np.full(len(nz), n), nz])
    cols = np.concatenate([cols, nz, np.full(len(nz), n)])
    position = np.empty(n + 1, dtype=np.intp)
    position[order] = np.arange(1, n + 1)
    position[n] = 0  # the border unknown goes first
    band_rows, band_cols = position[rows], position[cols]
    kl = int((band_rows - band_cols).max(initial=0))
    ku = int((band_cols - band_rows).max(initial=0))
    slots = (kl + ku + band_rows - band_cols) + (2 * kl + ku + 1) * band_cols
    out = _BandLayout(slots, rows, cols, position[:n], nz, kl, ku)
    for arr in out[:5]:
        arr.flags.writeable = False
    return out


def _band_matrix(layout, values, border):
    """M = [[A, b], [b^H, 0]] in the layout's band storage, and M's entries in layout order.

    The band array has kl extra rows on top for gbtrf's fill.
    """
    n = len(layout.position)
    data = np.concatenate((values, border[layout.nz].conj(), border[layout.nz]))
    band = np.zeros((n + 1) * (2 * layout.kl + layout.ku + 1), dtype=data.dtype)
    band[layout.slots] = data
    return band.reshape(n + 1, -1).T, data


def _banded_solve(layout, values, border, item):
    """x, a kappa_1 estimate and ||A x|| of M = [[A, b], [b^H, 0]] by one band LU.

    layout is a _band_layout, values A's entries in CSC order and border
    b, both of one dtype.  LAPACK gbtrf factors M in _band_matrix's
    storage, gbtrs solves M [x; mu] = [0; 1] in the layout's order, and
    gbcon estimates ||M^{-1}||_1 from the factors (Hager-Higham, dlacn2);
    ||M||_1 is exact, from column sums.  A x is read from A's own
    entries.  A zero pivot raises DegenerateKernelError naming item(0).
    """
    from scipy.linalg.lapack import get_lapack_funcs

    band, data = _band_matrix(layout, values, border)
    gbtrf, gbtrs, gbcon = get_lapack_funcs(("gbtrf", "gbtrs", "gbcon"), (band,))
    kl, ku, n = layout.kl, layout.ku, len(layout.position)
    norm1 = np.bincount(layout.cols, np.abs(data), minlength=n + 1).max()
    lu, pivots, info = gbtrf(band, kl, ku, overwrite_ab=1)
    if info > 0:  # a zero pivot
        raise DegenerateKernelError(f"{item(0)}{_SINGULAR}")
    rhs = np.zeros(n + 1, dtype=band.dtype)
    rhs[0] = 1.0
    y, _ = gbtrs(lu, kl, ku, rhs, pivots, overwrite_b=1)
    rcond, _ = gbcon(kl, ku, lu, pivots, norm1)
    x = y[layout.position]
    rows, product = layout.rows[:len(values)], values * x[layout.cols[:len(values)]]
    ax = np.bincount(rows, product.real, minlength=n)
    if product.dtype.kind == "c":
        ax = ax + 1j * np.bincount(rows, product.imag, minlength=n)
    return x, (1.0 / rcond if rcond > 0.0 else np.inf), np.linalg.norm(ax)


def _namer(label, stack):
    """item(i), the prefix that names item i in an error: label(i) when given."""
    if label is not None:
        return lambda i: f"{label(i)}: "
    return (lambda i: f"item {i}: ") if stack else (lambda i: "")


def _scaled_borders(fnorm, border, dtype, item):
    """The border scaled to ||A||_F / sqrt(n) for each item, as a (k, n) array of dtype.

    A zero matrix of size n > 1 raises DegenerateKernelError; a zero
    1 x 1 matrix is its own kernel, bordered at unit scale.
    """
    n = len(border)
    zero = np.flatnonzero(fnorm == 0.0)
    if n > 1 and zero.size:
        raise DegenerateKernelError(
            f"{item(zero[0])}zero matrix of size {n}: null space has dimension {n}"
        )
    scale = np.where(fnorm == 0.0, 1.0, fnorm) / np.sqrt(n) / np.linalg.norm(border)
    return scale[:, None] * border.astype(dtype)


# the default bound on ||A x|| / (||A||_F ||x||) that a null vector must reach
NULL_RTOL = 1e-9
# 1 / kappa_1 of the bordered matrix below this means a degenerate kernel;
# kappa_1 is exact on the dense route, and a Hager-Higham lower bound on the
# band and SuperLU routes (LAPACK gbcon, _inverse_norm1_estimate)
NULL_GAP_RTOL = 1e-8


def _check_null_rtol(null_rtol):
    """null_rtol as a float once it is a finite real number > 0; else ValidationError."""
    if not (isinstance(null_rtol, numbers.Real) and 0 < null_rtol < np.inf):
        raise ValidationError(f"null_rtol must be a finite number > 0, got {null_rtol!r}")
    return float(null_rtol)


def _accepted(x, kappa, residual, fnorm, kind, null_rtol, item):
    """The (k, n) rows of x at unit norm once each passes null_vector's two checks."""
    unique = kappa * NULL_GAP_RTOL <= 1.0
    xnorm = np.linalg.norm(x, axis=1)
    null = residual <= null_rtol * fnorm * xnorm
    failed = np.flatnonzero(~(unique & null))
    if failed.size:
        i = failed[0]
        if not unique[i]:
            raise DegenerateKernelError(
                f"{item(i)}null space not one-dimensional: {kind} {kappa[i]:.3e} of the "
                f"bordered matrix exceeds 1 / null_gap_rtol = {1.0 / NULL_GAP_RTOL:.1e}"
            )
        raise DegenerateKernelError(
            f"{item(i)}no null vector at working precision: ||A x|| / (||A||_F ||x||) = "
            f"{residual[i] / (fnorm[i] * xnorm[i]):.3e} > null_rtol = "
            f"{null_rtol:.1e}, so none of the singular values of A is "
            "numerically zero"
        )
    return x / xnorm[:, None]


def _sparse_null_vector(pattern, values, border, null_rtol, label):
    """null_vector above _DENSE_LU_MAX unknowns, of the A whose entries on pattern are values.

    pattern is the layout of the bordered matrix for A's canonical CSC
    structure and the border's nonzeros, flatnonzero(border): a
    _band_layout, factored by one band LU (_banded_solve), or a
    _border_pattern, factored by SuperLU (_bordered_solve).  values are
    finite and null_rtol has passed _check_null_rtol; a caller that
    solves many matrices of one structure builds the layout once.  The
    scaled border, both checks and the errors, named by label, are
    null_vector's.
    """
    item = _namer(label, False)
    dtype = np.result_type(values.dtype, border.dtype, float)
    fnorm = np.linalg.norm(values, keepdims=True)
    borders = _scaled_borders(fnorm, border, dtype, item)
    solve = _banded_solve if isinstance(pattern, _BandLayout) else _bordered_solve
    x, kappa, residual = solve(pattern, values.astype(dtype, copy=False), borders[0], item)
    return _accepted(x[None], np.array([kappa]), np.array([residual]), fnorm,
                     "condition estimate", null_rtol, item)[0]


def null_vector(A, border, *, label=None, null_rtol=NULL_RTOL):
    """Unit-norm vector spanning a one-dimensional null space of A.

    A is a dense (n, n) array, real or complex, or a (k, n, n) stack,
    solved item by item in one pass for a (k, n) result, with
    1 <= n <= _DENSE_LU_MAX; anything else, scipy.sparse input included,
    raises ValidationError (larger matrices: _sparse_null_vector).  The
    work is done in A's dtype (complex if border is).  Each solve
    inverts the bordered matrix M = [[A, b], [b^H, 0]]
    (_bordered_inverse), solving M [x; mu] = [0; 1], with b the caller's
    border scaled to ||A||_F / sqrt(n), so that M, and with it every
    check, is invariant under A -> c A.

    M is nonsingular exactly when the kernel of A is one-dimensional
    and neither it nor the left kernel is orthogonal to b; then mu = 0
    and x spans the kernel.  The caller picks b so that neither is: a
    vector close to the left kernel, which the kernel does not miss, is
    the well-conditioned choice.  For a trace-preserving generator that
    is the trace functional vec(I), its exact left kernel, whose
    overlap with the kernel is the steady state's trace.  Two checks
    raise DegenerateKernelError, naming the item i that fails as
    label(i) when given, else as "item i" in a stack:

    * uniqueness: 1 / kappa_1(M) must reach NULL_GAP_RTOL; kappa_1 is
      exact here and a Hager-Higham lower bound on the band and SuperLU
      routes;
    * existence: ``||A x|| <= null_rtol * ||A||_F * ||x||``, null_rtol
      finite and > 0 (else ValidationError, before any solve).

    A border (nearly) orthogonal to the kernel or the left kernel fails
    the first check although the kernel may be simple.
    """
    null_rtol = _check_null_rtol(null_rtol)
    A = np.asarray(A)
    if A.ndim not in (2, 3) or A.shape[-2] != A.shape[-1] or not 1 <= A.shape[-1] <= _DENSE_LU_MAX:
        raise ValidationError(
            f"matrix must be a square (n, n) array or a (k, n, n) stack of them with "
            f"1 <= n <= {_DENSE_LU_MAX}, got shape {A.shape} of dtype {A.dtype}"
        )
    stack = A.ndim == 3
    n = A.shape[-1]
    border = np.asarray(border).reshape(-1)
    if border.shape != (n,) or not np.all(np.isfinite(border)) or not border.any():
        raise ValidationError(f"border must be a finite nonzero vector of length {n}")
    A = A.reshape(-1, n, n)
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix contains non-finite entries")
    fnorm = np.linalg.norm(A.reshape(len(A), n * n), axis=1)
    dtype = np.result_type(A.dtype, border.dtype, float)
    A = A.astype(dtype, copy=False)
    item = _namer(label, stack)
    x, kappa = _bordered_inverse(A, _scaled_borders(fnorm, border, dtype, item), item)
    residual = np.linalg.norm((A @ x[:, :, None])[:, :, 0], axis=1)
    x = _accepted(x, kappa, residual, fnorm, "condition number", null_rtol, item)
    return x if stack else x[0]
