import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from hypothesis.extra.numpy import arrays

from dickesim import (
    DegenerateKernelError,
    ValidationError,
    null_vector,
    validate_density_matrix,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def complex_matrix(n):
    return st.tuples(
        arrays(np.float64, (n, n), elements=finite),
        arrays(np.float64, (n, n), elements=finite),
    ).map(lambda ab: ab[0] + 1j * ab[1])


# ---------------------------------------------------------------- input checks

def test_eig_rejects_nonhermitian():
    with pytest.raises(ValidationError, match="not Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_eig_rejects_nonsquare():
    with pytest.raises(ValidationError, match="square"):
        null_vector(np.zeros((2, 3)))


def test_eig_rejects_nonfinite():
    with pytest.raises(ValidationError, match="non-finite"):
        null_vector(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- null_vector

def test_null_vector_diagonal():
    x = null_vector(np.diag([0.0, 1.0, 2.0]))
    assert np.abs(np.abs(x[0]) - 1.0) < 1e-12
    assert np.abs(x[1:]).max() < 1e-12


def test_null_vector_nullity_zero():
    with pytest.raises(DegenerateKernelError) as err:
        null_vector(np.diag([1.0, 2.0, 3.0]))
    assert "singular values" in str(err.value)


def test_null_vector_nullity_two():
    with pytest.raises(DegenerateKernelError):
        null_vector(np.diag([0.0, 0.0, 1.0]))


def test_null_vector_zero_matrix():
    with pytest.raises(DegenerateKernelError):
        null_vector(np.zeros((2, 2)))
    assert np.allclose(null_vector(np.zeros((1, 1))), [1.0])


@given(st.integers(2, 6).flatmap(complex_matrix), st.floats(min_value=1e-3, max_value=1e3))
@hsettings(max_examples=40, deadline=None)
def test_null_vector_scale_invariant(m, c):
    # force a kernel: make every column orthogonal to one direction
    q, _ = np.linalg.qr(m + np.eye(len(m)))
    a = m @ (np.eye(len(m)) - np.outer(q[:, 0], q[:, 0].conj()))
    try:
        x1 = null_vector(a)
        x2 = null_vector(c * a)
    except DegenerateKernelError:
        return  # hypothesis found an accidental extra degeneracy; out of scope
    overlap = np.abs(np.vdot(x1, x2))
    assert overlap > 1.0 - 1e-9
