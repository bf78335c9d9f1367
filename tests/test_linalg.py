import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings as hsettings, strategies as st
from hypothesis.extra.numpy import arrays

from dickesim import (
    DegenerateKernelError,
    ModelParams,
    ValidationError,
    null_vector,
    steady_state_numeric,
    steady_states_numeric,
    validate_density_matrix,
)
from dickesim import dynamics, linalg
from util import bordered_bmat, null_vector_svd, random_unitary, superlu_null_vector

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
normal = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


def complex_matrix(n, elements=finite):
    return st.tuples(
        arrays(np.float64, (n, n), elements=elements),
        arrays(np.float64, (n, n), elements=elements),
    ).map(lambda ab: ab[0] + 1j * ab[1])


# ---------------------------------------------------------------- input checks

def test_eig_rejects_nonhermitian():
    with pytest.raises(ValidationError, match="not Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_eig_rejects_nonsquare():
    with pytest.raises(ValidationError, match="square"):
        null_vector(np.zeros((2, 3)), np.ones(2))


def test_eig_rejects_nonfinite():
    with pytest.raises(ValidationError, match="non-finite"):
        null_vector(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


# ---------------------------------------------------------------- null_vector

def test_null_vector_diagonal():
    x = null_vector(np.diag([0.0, 1.0, 2.0]), np.ones(3))
    assert np.abs(np.abs(x[0]) - 1.0) < 1e-12
    assert np.abs(x[1:]).max() < 1e-12


def test_null_vector_nullity_zero():
    with pytest.raises(DegenerateKernelError) as err:
        null_vector(np.diag([1.0, 2.0, 3.0]), np.ones(3))
    assert "singular values" in str(err.value)


def test_null_vector_nullity_two():
    with pytest.raises(DegenerateKernelError):
        null_vector(np.diag([0.0, 0.0, 1.0]), np.ones(3))


def test_null_vector_zero_matrix():
    with pytest.raises(DegenerateKernelError):
        null_vector(np.zeros((2, 2)), np.ones(2))
    assert np.allclose(null_vector(np.zeros((1, 1)), np.ones(1)), [1.0])


@given(st.integers(2, 6).flatmap(complex_matrix), st.floats(min_value=1e-3, max_value=1e3))
@hsettings(max_examples=40, deadline=None)
def test_null_vector_scale_invariant(m, c):
    # force a kernel: make every column orthogonal to one direction
    q, _ = np.linalg.qr(m + np.eye(len(m)))
    a = m @ (np.eye(len(m)) - np.outer(q[:, 0], q[:, 0].conj()))
    try:
        x1 = null_vector(a, np.ones(len(a)))
        x2 = null_vector(c * a, np.ones(len(a)))
    except DegenerateKernelError:
        return  # hypothesis found an accidental extra degeneracy; out of scope
    overlap = np.abs(np.vdot(x1, x2))
    assert overlap > 1.0 - 1e-9


def _phase_free_gap(x, y):
    """max |x - y e^{i phi}| for the phase phi that best aligns unit vectors x and y."""
    overlap = np.vdot(y, x)
    return float(np.abs(x - y * overlap / abs(overlap)).max())


@given(st.integers(2, 6).flatmap(lambda n: complex_matrix(n, normal)))
@hsettings(max_examples=60, deadline=None)
def test_null_vector_agrees_with_svd_oracle(m):
    q, _ = np.linalg.qr(m + np.eye(len(m)))
    a = m @ (np.eye(len(m)) - np.outer(q[:, 0], q[:, 0].conj()))
    peak = np.abs(a).max()
    if peak == 0.0:
        return
    a = a / peak  # null vectors are scale-free; this keeps norms clear of underflow
    u, s, vh = np.linalg.svd(a)
    if s[-1] > 1e-12 * np.linalg.norm(s) or s[-2] <= 1e-4 * np.linalg.norm(s):
        return  # near either threshold the two routes may decide differently
    expected = null_vector_svd(a)
    # the left kernel plus the kernel in phase with it: a nilpotent a has the
    # two orthogonal, and this border misses neither
    left, right = u[:, -1], vh[-1].conj()
    x = null_vector(a, left + np.exp(-1j * np.angle(np.vdot(left, right))) * right)
    resid = np.linalg.norm(a @ x)
    assert resid <= linalg.NULL_RTOL * np.linalg.norm(s)
    # a residual r puts x within angle r / sigma_{n-1} of the kernel
    assert _phase_free_gap(x, expected) <= 2.0 * resid / s[-2] + 1e-12


def _null_rtol_entries(null_rtol):
    """Each public entry that takes null_rtol, on both steady routes (j <= 5 and above)."""
    # rank 2, and its computed null vector leaves a residual of ~1e-15
    a = np.outer([1.0, 2.0, 3.0], [3.0, 1.0, -0.7]) + np.outer([0.3, -1.0, 2.0], [1.0, -2.0, 1.1])
    return [
        lambda: null_vector(a, np.ones(3), null_rtol=null_rtol),
        lambda: steady_state_numeric(ModelParams(j=2, omega=1.0, gamma_a=0.2), null_rtol=null_rtol),
        lambda: steady_state_numeric(ModelParams(j=8, omega=1.0, gamma_a=0.2), null_rtol=null_rtol),
        lambda: steady_states_numeric(1, 1.0, [0.2, 0.5], 0.3, null_rtol=null_rtol),
        lambda: steady_states_numeric(8, 1.0, [0.2, 0.5], 0.3, null_rtol=null_rtol),
    ]


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf"), float("-inf"), "1e-9", None])
def test_working_tolerance_must_be_finite_and_positive(tol, monkeypatch):
    # an infinite null_rtol would accept any vector as a null vector, and a
    # NaN or negative one would fail every solve as "no null vector"; each
    # entry rejects it before it builds or solves anything
    def no_work(*args, **kwargs):
        raise AssertionError("work done before null_rtol was checked")

    for module, name in [(dynamics, "build_liouvillian"), (dynamics, "_gauged_block"),
                         (linalg, "_bordered_inverse"), (linalg, "_bordered_solve")]:
        monkeypatch.setattr(module, name, no_work)
    for entry in _null_rtol_entries(tol):
        with pytest.raises(ValidationError, match="^null_rtol must be a finite number > 0"):
            entry()


def test_null_rtol_bounds_the_residual_on_every_entry():
    # a bound below any double-precision residual fails each solve by its
    # existence check, which quotes the bound it was given
    for entry in _null_rtol_entries(1e-300):
        with pytest.raises(DegenerateKernelError, match=r"null_rtol = 1\.0e-300"):
            entry()


_SHAPE_ERROR = r"^matrix must be a square \(n, n\) array or a \(k, n, n\) stack"


def _solve(a, border, label=None):
    """a's null vector on the route for its size: dense null_vector, or SuperLU on its CSC."""
    a = sp.csc_array(a)
    if a.shape[0] <= linalg._DENSE_LU_MAX:
        return null_vector(a.toarray(), border, label=label)
    return superlu_null_vector(a, border, label=label)


@pytest.mark.parametrize("n", [7, 200])  # dense and SuperLU factorisation
@pytest.mark.parametrize("kind", ["csc_array", "csr_matrix", "coo_array"])
def test_null_vector_sparse_input(kind, n):
    # null_vector refuses scipy.sparse input of every format; the route
    # for the matrix's size solves it: dense, or SuperLU on canonical CSC
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense[np.abs(dense) < 0.4] = 0.0
    dense[:, 3] = dense[:, :3] @ [1.0, -2.0, 0.5j]  # one kernel direction
    with pytest.raises(ValidationError, match=_SHAPE_ERROR):
        null_vector(getattr(sp, kind)(dense), np.ones(n))
    x = _solve(dense, np.ones(n))
    if n > linalg._DENSE_LU_MAX:
        # the dense kernel on the same border, past null_vector's size limit
        border = linalg._scaled_borders(np.linalg.norm(dense, keepdims=True), np.ones(n), complex, str)
        y, _ = linalg._bordered_inverse(dense[None], border, str)
        assert _phase_free_gap(x, y[0] / np.linalg.norm(y[0])) < 1e-13
    assert np.linalg.norm(dense @ x) < 1e-12 * np.linalg.norm(dense)
    assert _phase_free_gap(x, null_vector_svd(dense)) < 1e-12


def test_null_vector_sparse_input_checks():
    # sparse input, square and finite or not, fails the one shape check
    for a in (np.ones((2, 3)), np.array([[np.inf, 0.0], [0.0, 1.0]]), np.diag([0.0, 1.0])):
        with pytest.raises(ValidationError, match=_SHAPE_ERROR):
            null_vector(sp.csc_array(a), np.ones(2))


@pytest.mark.parametrize("shape", [
    (2,), (1, 1, 2, 2), (linalg._DENSE_LU_MAX + 1,) * 2, (2,) + (linalg._DENSE_LU_MAX + 1,) * 2,
], ids=["1-D", "4-D", "single-too-large", "stack-too-large"])
def test_null_vector_one_shape_and_size_error(shape):
    # the wrong rank and too many unknowns, single or stacked, raise the
    # error that sparse input raises
    with pytest.raises(ValidationError, match=_SHAPE_ERROR) as err:
        null_vector(np.zeros(shape), np.ones(shape[-1]))
    assert str(err.value).endswith(
        f"1 <= n <= {linalg._DENSE_LU_MAX}, got shape {shape} of dtype float64"
    )


@pytest.mark.parametrize("complex_border", [False, True])
def test_sparse_bordered_matrix_matches_bmat(monkeypatch, complex_border):
    # a canonical CSC matrix with explicit zeros and a border with zeros:
    # SuperLU must get the bmat bordering, structure and entries alike
    import scipy.sparse.linalg

    rng = np.random.default_rng(8)
    n = linalg._DENSE_LU_MAX + 29
    dense = rng.normal(size=(n, n))
    dense[np.abs(dense) < 1.2] = 0.0
    dense[:, 0] = dense[:, 1:] @ rng.normal(size=n - 1)  # one kernel direction
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    rows = np.concatenate([rows, [5, 7, 9]])  # three explicit zeros
    cols = np.concatenate([cols, [6, 8, n - 1]])
    vals = np.concatenate([vals, np.zeros(3)])
    A = sp.csc_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))
    assert A.has_canonical_format and np.count_nonzero(A.data == 0.0) == 3
    border = rng.normal(size=n) * (rng.random(n) < 0.5)
    if complex_border:
        border = border * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    factored = []
    real_splu = scipy.sparse.linalg.splu

    def splu(a, *args, **kwargs):
        factored.append(a)
        return real_splu(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    x = superlu_null_vector(A, border)
    expected = bordered_bmat(A, border)
    (M,) = factored
    assert M.has_canonical_format and expected.has_canonical_format
    assert np.count_nonzero(M.data == 0.0) == 3  # the explicit zeros stay
    assert np.array_equal(M.indptr, expected.indptr)
    assert np.array_equal(M.indices, expected.indices)
    assert np.array_equal(M.data, expected.data)
    assert np.linalg.norm(A @ x) < 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("complex_border", [False, True])
def test_band_layout_reads_its_widths_from_the_order(complex_border):
    # an unsymmetric band (2 below, 5 above the diagonal; its first column,
    # a mix of the next two, reaches 4 below) scrambled by a permutation:
    # the layout in the unscrambling order reads kl and ku from the
    # structure, the border on the first three unknowns included, and the
    # band LU solves it as SuperLU does, in the border's dtype
    rng = np.random.default_rng(26)
    n = 150
    dense = sum(np.diag(rng.normal(size=n - abs(k)), k) for k in range(-2, 6)) + 8.0 * np.eye(n)
    dense[:, 0] = dense[:, 1:3] @ rng.normal(size=2)  # one kernel direction
    perm = rng.permutation(n)
    A = sp.csc_array(dense[np.ix_(perm, perm)])
    border = np.zeros(n)
    border[np.argsort(perm)[:3]] = 1.0
    if complex_border:
        border = border * np.exp(1j * np.arange(n))
    layout = linalg._band_layout(A.indptr, A.indices, np.flatnonzero(border), np.argsort(perm))
    assert (layout.kl, layout.ku) == (4, 5)
    x = linalg._sparse_null_vector(layout, A.data, border, linalg.NULL_RTOL, None)
    assert x.dtype == border.dtype
    assert _phase_free_gap(x, superlu_null_vector(A, border)) < 1e-12
    # ||A x|| is read from A's own entries, imaginary parts included
    values = A.data + 1e-3j * complex_border
    y, _, residual = linalg._banded_solve(layout, values, border + 0j, str)
    exact = np.linalg.norm(sp.csc_array((values, A.indices, A.indptr), shape=A.shape) @ y)
    assert residual == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n", [3, 6, 12, 160])  # dense and SuperLU factorisation
def test_null_vector_second_singular_value_near_zero(n):
    # sigma_{n-1} = 1e-12 ||A||_F: numerically a two-dimensional kernel
    rng = np.random.default_rng(n)
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    s = np.linspace(1.0, 2.0, n)
    s[-1] = 0.0
    s[-2] = 1e-12 * np.linalg.norm(s)
    a = (u * s) @ v.conj().T
    with pytest.raises(DegenerateKernelError):
        null_vector_svd(a)
    with pytest.raises(DegenerateKernelError):
        _solve(a, u[:, -1])
    # the same matrix with a healthy second singular value passes
    s[-2] = 1e-3 * np.linalg.norm(s)
    x = _solve((u * s) @ v.conj().T, u[:, -1])
    assert _phase_free_gap(x, v[:, -1]) < 1e-10


@pytest.mark.parametrize("extra", [1, 200])  # dense and SuperLU factorisation
def test_null_vector_border_orthogonal_to_kernel_raises(extra):
    # the kernel (1, -1, 0, ...)/sqrt(2) is orthogonal to the uniform border,
    # which leaves the bordered matrix exactly singular although the kernel
    # is simple; the left kernel (2, -1, 0, ...) as the border solves it
    a = sp.block_diag([np.array([[1.0, 1.0], [2.0, 2.0]]), sp.eye_array(extra)], format="csc")
    with pytest.raises(DegenerateKernelError, match="not one-dimensional"):
        _solve(a, np.ones(2 + extra))
    with pytest.raises(DegenerateKernelError, match="^the point: .*bordered matrix is singular"):
        _solve(a, np.ones(2 + extra), label=lambda i: "the point")
    left = np.zeros(2 + extra)
    left[:2] = [2.0, -1.0]
    expected = np.zeros(2 + extra)
    expected[:2] = [1.0, -1.0]
    x = _solve(a, left)
    assert _phase_free_gap(x, expected / np.sqrt(2.0)) < 1e-14


def test_null_vector_residual_reaches_rounding_on_badly_scaled_matrix():
    # entries 1.2e-7 beside entries of size 1..4, third row (1 + 1e-5) times
    # the first: the left kernel is almost orthogonal to the uniform vector,
    # and bordered by that the solve stops at a residual of ~5e-12; bordered
    # by the left kernel it reaches rounding in one solve
    a = np.array([
        [3.0, 2.0, 1.2e-7],
        [1.2e-7, 1.0, 4.0],
        [3.0 * (1 + 1e-5), 2.0 * (1 + 1e-5), 1.2e-7 * (1 + 1e-5)],
    ])
    x = null_vector(a, null_vector_svd(a.conj().T))
    n = a.shape[0]
    assert np.linalg.norm(a @ x) <= 100 * n * np.finfo(float).eps * np.linalg.norm(a)
    assert _phase_free_gap(x, null_vector_svd(a)) < 1e-14


@pytest.mark.parametrize("n", [5, 300])  # dense and SuperLU factorisation
def test_null_vector_keeps_real_dtype(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a[:, 0] = a[:, 1:] @ rng.normal(size=n - 1)  # one kernel direction
    x = _solve(a, np.ones(n))
    assert x.dtype == np.float64
    assert np.linalg.norm(a @ x) < 1e-12 * np.linalg.norm(a)
    # a complex border makes the solve complex, with the same kernel
    z = _solve(a, np.exp(1j * np.arange(n)))
    assert z.dtype == np.complex128
    assert _phase_free_gap(z, x) < 1e-12


def test_null_vector_rejects_bad_border():
    for border in (np.ones(2), np.zeros(3), np.array([1.0, np.nan, 0.0])):
        with pytest.raises(ValidationError, match="border"):
            null_vector(np.diag([0.0, 1.0, 2.0]), border)


# ---------------------------------------------------------------- stacks

def _kernel_stack(rng, k, n):
    """k real n x n matrices with one kernel direction each, and their left kernels."""
    a = rng.normal(size=(k, n, n))
    a[:, :, 0] = np.einsum("kij,kj->ki", a[:, :, 1:], rng.normal(size=(k, n - 1)))
    return a


def test_null_vector_stack_matches_single_solves():
    rng = np.random.default_rng(21)
    a = _kernel_stack(rng, 7, 6)
    border = np.ones(6)
    x = null_vector(a, border)
    assert x.shape == (7, 6) and x.dtype == np.float64
    for item, xi in zip(a, x):
        assert np.array_equal(xi, null_vector(item, border))
        assert np.linalg.norm(item @ xi) < 1e-12 * np.linalg.norm(item)


def test_null_vector_dense_condition_is_exact():
    # the dense route's kappa_1 is the exact 1-norm condition number of the
    # bordered matrix, which the Hager-Higham estimate only bounds from below
    rng = np.random.default_rng(22)
    a = _kernel_stack(rng, 4, 5)
    border = rng.normal(size=(4, 5))
    _, kappa = linalg._bordered_inverse(a, border, str)
    for item, b, kap in zip(a, border, kappa):
        m = np.block([[item, b[:, None]], [b[None, :], np.zeros((1, 1))]])
        assert kap == pytest.approx(np.linalg.cond(m, 1), rel=1e-12)


@pytest.mark.parametrize("corrupt, message", [
    (lambda a: np.diag([0.0, 1e-12, 1.0, 2.0]), "not one-dimensional: condition number"),
    (lambda a: np.diag([1.0, 2.0, 3.0, 4.0]), "no null vector"),
    (lambda a: np.zeros((4, 4)), "zero matrix"),
    # the kernel (1, -1, 0, 0) is orthogonal to the uniform border: M is singular
    (lambda a: np.diag([1.0, 1.0, 3.0, 4.0]) + np.diag([1.0, 0.0, 0.0], 1)
     + np.diag([1.0, 0.0, 0.0], -1), "bordered matrix is singular"),
])
def test_null_vector_stack_names_the_failing_item(corrupt, message):
    rng = np.random.default_rng(23)
    a = _kernel_stack(rng, 5, 4)
    a[2] = corrupt(a[2])
    a[4] = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DegenerateKernelError, match=rf"^item 2: .*{message}"):
        null_vector(a, np.ones(4))
    with pytest.raises(DegenerateKernelError, match=rf"^point 2: .*{message}"):
        null_vector(a, np.ones(4), label=lambda i: f"point {i}")


def test_null_vector_stack_input_checks():
    with pytest.raises(ValidationError, match="square"):
        null_vector(np.zeros((2, 3, 4)), np.ones(4))
    with pytest.raises(ValidationError, match="non-finite"):
        null_vector(np.full((2, 3, 3), np.nan), np.ones(3))
    n = linalg._DENSE_LU_MAX + 1
    with pytest.raises(ValidationError, match="stack"):
        null_vector(np.zeros((2, n, n)), np.ones(n))
