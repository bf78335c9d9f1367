import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings as hsettings, strategies as st
from hypothesis.extra.numpy import arrays

from dickesim import (
    DEFAULT,
    DegenerateKernelError,
    ValidationError,
    null_vector,
    validate_density_matrix,
)
from dickesim import linalg
from util import bordered_bmat, null_vector_svd, random_unitary

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
    assert resid <= DEFAULT.null_rtol * np.linalg.norm(s)
    # a residual r puts x within angle r / sigma_{n-1} of the kernel
    assert _phase_free_gap(x, expected) <= 2.0 * resid / s[-2] + 1e-12


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_working_tolerance_must_be_finite_and_positive(tol):
    # an infinite null_rtol would accept any vector as a null vector
    with pytest.raises(ValueError):
        DEFAULT.with_working_tolerance(tol)
    assert DEFAULT.with_working_tolerance(1e-12).null_rtol == 1e-12


@pytest.mark.parametrize("n", [7, 200])  # dense and SuperLU factorisation
@pytest.mark.parametrize("kind", ["csc_array", "csr_matrix", "coo_array"])
def test_null_vector_sparse_input(kind, n):
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense[np.abs(dense) < 0.4] = 0.0
    dense[:, 3] = dense[:, :3] @ [1.0, -2.0, 0.5j]  # one kernel direction
    x = null_vector(getattr(sp, kind)(dense), np.ones(n))
    assert np.linalg.norm(dense @ x) < 1e-12 * np.linalg.norm(dense)
    assert _phase_free_gap(x, null_vector(dense, np.ones(n))) < 1e-13
    assert _phase_free_gap(x, null_vector_svd(dense)) < 1e-12


def test_null_vector_sums_duplicate_entries():
    # diag(0, 1, 2) stored with the (1, 1) entry split in two
    a = sp.coo_array(([0.25, 0.75, 2.0], ([1, 1, 2], [1, 1, 2])), shape=(3, 3))
    x = null_vector(a, np.ones(3))
    assert np.abs(np.abs(x[0]) - 1.0) < 1e-12
    assert np.abs(x[1:]).max() < 1e-12


def test_null_vector_sparse_input_checks():
    with pytest.raises(ValidationError, match="square"):
        null_vector(sp.csc_array(np.ones((2, 3))), np.ones(2))
    with pytest.raises(ValidationError, match="non-finite"):
        null_vector(sp.csc_array(np.array([[np.inf, 0.0], [0.0, 1.0]])), np.ones(2))


@pytest.mark.parametrize("complex_border", [False, True])
def test_sparse_bordered_matrix_matches_bmat(monkeypatch, complex_border):
    # generic sparse input: entries in random order, duplicates, explicit
    # zeros (one a duplicate pair that cancels) and a border with zeros;
    # SuperLU must get the bmat bordering, structure and entries alike
    import scipy.sparse.linalg

    rng = np.random.default_rng(8)
    n = linalg._DENSE_LU_MAX + 29
    dense = rng.normal(size=(n, n))
    dense[np.abs(dense) < 1.2] = 0.0
    dense[:, 0] = dense[:, 1:] @ rng.normal(size=n - 1)  # one kernel direction
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    half = rng.random(len(vals)) < 0.3  # split these entries into two duplicates
    rows = np.concatenate([rows, rows[half], [5, 7, 7], [9]])
    cols = np.concatenate([cols, cols[half], [6, 8, 8], [n - 1]])
    vals = np.concatenate([np.where(half, 0.25, 1.0) * vals, 0.75 * vals[half], [0.0, 2.5, -2.5], [0.0]])
    order = rng.permutation(len(vals))
    A = sp.coo_array((vals[order], (rows[order], cols[order])), shape=(n, n))
    border = rng.normal(size=n) * (rng.random(n) < 0.5)
    if complex_border:
        border = border * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    factored = []
    real_splu = scipy.sparse.linalg.splu

    def splu(a, *args, **kwargs):
        factored.append(a)
        return real_splu(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    x = null_vector(A, border)
    expected = bordered_bmat(A, border)
    (M,) = factored
    assert M.has_canonical_format and expected.has_canonical_format
    assert np.count_nonzero(M.data == 0.0) == 3  # the explicit zeros stay
    assert np.array_equal(M.indptr, expected.indptr)
    assert np.array_equal(M.indices, expected.indices)
    assert np.array_equal(M.data, expected.data)
    assert np.linalg.norm(A @ x) < 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("n", [3, 6, 12, 160])
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
        null_vector(a, u[:, -1])
    with pytest.raises(DegenerateKernelError):
        null_vector(sp.csc_array(a), u[:, -1])
    # the same matrix with a healthy second singular value passes
    s[-2] = 1e-3 * np.linalg.norm(s)
    x = null_vector((u * s) @ v.conj().T, u[:, -1])
    assert _phase_free_gap(x, v[:, -1]) < 1e-10


@pytest.mark.parametrize("extra", [1, 200])  # dense and SuperLU factorisation
def test_null_vector_border_orthogonal_to_kernel_raises(extra):
    # the kernel (1, -1, 0, ...)/sqrt(2) is orthogonal to the uniform border,
    # which leaves the bordered matrix exactly singular although the kernel
    # is simple; the left kernel (2, -1, 0, ...) as the border solves it
    a = sp.block_diag([np.array([[1.0, 1.0], [2.0, 2.0]]), sp.eye_array(extra)], format="csc")
    with pytest.raises(DegenerateKernelError, match="not one-dimensional"):
        null_vector(a, np.ones(2 + extra))
    with pytest.raises(DegenerateKernelError, match="^the point: .*bordered matrix is singular"):
        null_vector(a, np.ones(2 + extra), label=lambda i: "the point")
    left = np.zeros(2 + extra)
    left[:2] = [2.0, -1.0]
    expected = np.zeros(2 + extra)
    expected[:2] = [1.0, -1.0]
    x = null_vector(a, left)
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
    for matrix in (a, sp.csc_array(a)):
        x = null_vector(matrix, np.ones(n))
        assert x.dtype == np.float64
        assert np.linalg.norm(a @ x) < 1e-12 * np.linalg.norm(a)
    # a complex border makes the solve complex, with the same kernel
    z = null_vector(a, np.exp(1j * np.arange(n)))
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
