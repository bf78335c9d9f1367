import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from dickesim import (
    SpinQuantum,
    ValidationError,
    build_jminus,
    build_jz,
    dicke_projector,
    m_values,
)
from util import build_jplus, expectation, random_density


# ---------------------------------------------------------------- SpinQuantum

def test_spin_quantum_fields():
    s = SpinQuantum(3)
    assert s.j == 1.5 and s.dim == 4 and s.two_j == 3


def test_from_j_coercions():
    assert SpinQuantum.from_j(1.5).two_j == 3
    assert SpinQuantum.from_j(2).two_j == 4
    assert SpinQuantum.from_j(SpinQuantum(5)).two_j == 5


@pytest.mark.parametrize("bad", [0.3, -1, -0.5, float("nan"), float("inf")])
def test_from_j_rejects(bad):
    with pytest.raises(ValidationError):
        SpinQuantum.from_j(bad)


def test_two_j_must_be_integer():
    with pytest.raises(ValidationError):
        SpinQuantum(1.5)
    with pytest.raises(ValidationError):
        SpinQuantum(True)
    with pytest.raises(ValidationError):
        SpinQuantum(-2)


def test_m_values_descending():
    assert np.allclose(m_values(1), [1.0, 0.0, -1.0])
    assert np.allclose(m_values(0.5), [0.5, -0.5])


# ---------------------------------------------------------------- ladder operators

def test_jminus_spin_half():
    assert np.allclose(build_jminus(0.5), [[0, 0], [1, 0]])


def test_jminus_spin_one():
    jm = build_jminus(1)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = np.sqrt(2.0)
    assert np.allclose(jm, expected)


@pytest.mark.parametrize("j", [0.5, 1, 2.5, 64])
def test_jminus_annihilates_bottom(j):
    jm = build_jminus(j)
    bottom = np.zeros(jm.shape[0])
    bottom[-1] = 1.0
    assert np.abs(jm @ bottom).max() == 0.0


def test_jplus_spin_half():
    assert np.allclose(build_jplus(0.5), [[0, 1], [0, 0]])


@pytest.mark.parametrize("j", [0.5, 1, 4, 64])
def test_jplus_is_adjoint(j):
    assert np.abs(build_jplus(j) - build_jminus(j).conj().T).max() == 0.0


def test_jplus_annihilates_top():
    jp = build_jplus(3)
    top = np.zeros(7)
    top[0] = 1.0
    assert np.abs(jp @ top).max() == 0.0


def test_jz_spin_one():
    assert np.allclose(build_jz(1), np.diag([1.0, 0.0, -1.0]))


def _algebra_tol(j):
    # matrix entries grow like j(j+1); squaring sqrt-built ladder
    # coefficients costs a few ulps of that scale (1.8e-12 measured at
    # j=64), so the absolute 1e-12 bound only holds through j=16
    return max(1e-12, 4e-15 * j * (j + 1.0))


@pytest.mark.parametrize("j", [0.5, 1, 4, 16, 64])
def test_su2_algebra(j):
    jm, jp, jz = build_jminus(j), build_jplus(j), build_jz(j)
    tol = _algebra_tol(j)
    assert np.abs(jz @ jp - jp @ jz - jp).max() <= tol
    assert np.abs(jz @ jm - jm @ jz + jm).max() <= tol
    assert np.abs(jp @ jm - jm @ jp - 2.0 * jz).max() <= tol


@pytest.mark.parametrize("j", [0.5, 1, 4, 16, 64])
def test_casimir(j):
    jm, jp, jz = build_jminus(j), build_jplus(j), build_jz(j)
    casimir = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
    target = j * (j + 1.0) * np.eye(jm.shape[0])
    assert np.abs(casimir - target).max() <= _algebra_tol(j)


@pytest.mark.parametrize("j", [1, 2.5, 16])
def test_jpjm_diagonal_rates(j):
    jm = build_jminus(j)
    rates = np.diag(build_jplus(j) @ jm).real
    m = m_values(j)
    assert np.allclose(rates, j * (j + 1.0) - m * (m - 1.0), atol=1e-11)


@pytest.mark.parametrize("j", [0, 0.5, 1, 2.5, 16, 64])
def test_jminus_equals_per_column_formula(j):
    # the textbook sqrt(j(j+1) - m(m-1)) one column at a time; every
    # radicand is exact in double precision, so the match is bitwise
    m = m_values(j)
    expected = np.zeros((len(m), len(m)), dtype=complex)
    for col in range(len(m) - 1):
        expected[col + 1, col] = np.sqrt(j * (j + 1) - m[col] * (m[col] - 1))
    assert np.array_equal(build_jminus(j), expected)


# ---------------------------------------------------------------- expectation

def test_expectation_ground_jz():
    j = 2.5
    rho = dicke_projector(j, -j)
    assert expectation(rho, build_jz(j)) == pytest.approx(-j)


def test_expectation_mixed_jz_zero():
    rho = np.eye(5, dtype=complex) / 5.0
    assert abs(expectation(rho, build_jz(2))) < 1e-14


def test_expectation_middle_level_rate():
    rho = dicke_projector(1, 0)
    jpjm = build_jplus(1) @ build_jminus(1)
    assert expectation(rho, jpjm) == pytest.approx(2.0)


def test_expectation_shape_mismatch():
    with pytest.raises(ValidationError):
        expectation(np.eye(2), np.eye(3))


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
@hsettings(max_examples=30, deadline=None)
def test_expectation_adjoint_conjugates(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    left = expectation(rho, a.conj().T)
    right = np.conj(expectation(rho, a))
    assert abs(left - right) < 1e-12


# ---------------------------------------------------------------- dicke_projector

def test_dicke_projector_levels():
    p = dicke_projector(1, 1)
    assert p[0, 0] == 1.0 and np.trace(p) == 1.0
    p = dicke_projector(1, -1)
    assert p[2, 2] == 1.0


def test_dicke_projector_rejects_bad_m():
    with pytest.raises(ValidationError):
        dicke_projector(1, 0.5)
    with pytest.raises(ValidationError):
        dicke_projector(1, 2)
