from fractions import Fraction

import numpy as np
import pytest

from dickesim import (
    ModelParams,
    NumericRangeError,
    ValidationError,
    build_liouvillian,
    normalization_D,
    steady_state_analytic,
    steady_state_numeric,
    validate_density_matrix,
)
from util import closed_form_j1, trace_distance, vec


def exact_trace_oracle(two_j, gamma):
    """Independent normalization value by exact rational term summation.

    Sums <m| (gamma J-)^l (gamma J+)^l |m> over levels and powers with
    Fraction arithmetic; only the l = l' diagonal terms contribute to
    the trace.  Slow and exact, which is the point.
    """
    j = Fraction(two_j, 2)
    total = Fraction(0)
    for l in range(two_j + 1):
        level_sum = Fraction(0)
        for i in range(two_j + 1):
            m = j - i
            product = Fraction(1)
            for k in range(l):
                mk = m + k
                product *= j * (j + 1) - mk * (mk + 1)
            level_sum += product
        total += Fraction(gamma) ** (2 * l) * level_sum
    return total


# ---------------------------------------------------------------- known values

def test_known_spin1_matrix_at_unit_gamma():
    r2 = np.sqrt(2.0)
    expected = np.array(
        [
            [1.0, -1j * r2, -2.0],
            [1j * r2, 3.0, -3j * r2],
            [-2.0, 3j * r2, 7.0],
        ]
    ) / 11.0
    assert np.abs(steady_state_analytic(1, 1.0) - expected).max() < 1e-12
    assert np.abs(closed_form_j1(1.0) - expected).max() < 1e-12


@pytest.mark.parametrize("gamma", [0.01, 0.1, 0.5, 1.0, 2.0, 10.0])
def test_normalization_quartic_spin1(gamma):
    expected = 3.0 + 4.0 * gamma ** 2 + 4.0 * gamma ** 4
    assert normalization_D(1, gamma) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("two_j,gamma", [(4, Fraction(1, 2)), (4, Fraction(3, 10)), (4, Fraction(17, 10)), (6, Fraction(4, 5))])
def test_normalization_against_exact_oracle(two_j, gamma):
    expected = float(exact_trace_oracle(two_j, gamma))
    assert normalization_D(two_j / 2.0, float(gamma)) == pytest.approx(expected, rel=1e-12)


def test_normalization_spin2_half():
    assert exact_trace_oracle(4, Fraction(1, 2)) == 22
    assert normalization_D(2, 0.5) == pytest.approx(22.0, rel=1e-12)


# ---------------------------------------------------------------- limits

@pytest.mark.parametrize("j", [0.5, 1, 3.5])
def test_zero_gamma_limit_is_maximally_mixed(j):
    d = int(round(2 * j)) + 1
    assert np.abs(steady_state_analytic(j, 0.0) - np.eye(d) / d).max() < 1e-15
    assert np.abs(steady_state_analytic(j, [0.0, 0.0]) - np.eye(d) / d).max() < 1e-15
    assert normalization_D(j, 0.0) == float(d)


def test_closed_form_zero_gamma():
    assert np.abs(closed_form_j1(0.0) - np.eye(3) / 3.0).max() < 1e-15


@pytest.mark.parametrize("j", [1, 4])
def test_large_gamma_limit_is_ground_state(j):
    rho = steady_state_analytic(j, 1e6)
    assert rho[-1, -1].real == pytest.approx(1.0, abs=1e-10)
    assert np.abs(rho[:-1, :-1]).max() < 1e-10


# ---------------------------------------------------------------- consistency

@pytest.mark.parametrize("j", [1, 2, 16])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_annihilated_by_generator(j, gamma):
    rho = steady_state_analytic(j, gamma)
    lio = build_liouvillian(ModelParams(j=j, omega=1.0, gamma_a=gamma))
    assert np.linalg.norm(lio @ vec(rho)) < 1e-8


@pytest.mark.parametrize("j", [0.5, 1, 2, 8])
@pytest.mark.parametrize("gamma", [0.1, 1.0, 5.0])
def test_agrees_with_numeric_path(j, gamma):
    analytic = steady_state_analytic(j, gamma)
    numeric = steady_state_numeric(ModelParams(j=j, omega=1.0, gamma_a=gamma))
    assert trace_distance(analytic, numeric) < 1e-8


@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.7, 1.0, 13.0])
def test_closed_form_equals_general_path(gamma):
    assert np.abs(closed_form_j1(gamma) - steady_state_analytic(1, gamma)).max() < 1e-12


def test_closed_form_on_a_gamma_array():
    gammas = np.logspace(-3.0, 3.0, 13).reshape(1, 13)
    stack = closed_form_j1(gammas)
    assert stack.shape == (1, 13, 3, 3)
    for g, rho in zip(gammas.ravel(), stack[0]):
        assert np.array_equal(rho, closed_form_j1(g))
    assert np.abs(steady_state_analytic(1, gammas) - stack).max() < 1e-12
    with pytest.raises(ValidationError, match="-1.0"):
        closed_form_j1([0.5, -1.0])
    for bad in ("-1.0", "nan"):
        with pytest.raises(ValidationError, match=f"got {bad}$"):
            steady_state_analytic(1, [[0.5, 2.0], [float(bad), 3.0]])


@pytest.mark.parametrize("j", [1, 4.5, 16])
def test_stack_equals_per_gamma_calls(j):
    gammas = np.concatenate(([0.0], np.logspace(-3.0, 3.0, 25), [1e300]))
    expected = np.stack([steady_state_analytic(j, g) for g in gammas])
    assert np.array_equal(steady_state_analytic(j, gammas), expected)
    d = int(2 * j) + 1
    grid = steady_state_analytic(j, gammas[:6].reshape(2, 3))
    assert grid.shape == (2, 3, d, d)
    assert np.array_equal(grid, expected[:6].reshape(2, 3, d, d))


@pytest.mark.parametrize("j,gamma", [(1, 0.3), (2.5, 1.1), (16, 2.0), (64, 0.5)])
def test_output_is_valid_state(j, gamma):
    rho = steady_state_analytic(j, gamma)
    validate_density_matrix(rho)
    assert np.abs(rho - rho.conj().T).max() < 1e-12


@pytest.mark.parametrize("j", [1, 4, 16, 64])
def test_positive_semidefinite_on_fig3_grid(j):
    # S S^dag / tr is positive semidefinite by construction; rounding must keep it so
    for omega_r in np.linspace(0.05, 3.0, 119):
        rho = steady_state_analytic(j, 1.0 / (j * omega_r))
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


@pytest.mark.parametrize("j", [1, 3, 12.5])
def test_normalization_monotone_in_gamma(j):
    grid = np.logspace(-2, 1, 25)
    values = [normalization_D(j, g) for g in grid]
    assert np.all(np.diff(values) > 0)


# ---------------------------------------------------------------- scaling & errors

def test_large_j_large_gamma_state_still_finite():
    # the unscaled sum would overflow here; the scaled path must not
    rho = steady_state_analytic(64, 10.0)
    validate_density_matrix(rho)
    assert rho[-1, -1].real == pytest.approx(1.0, abs=1e-3)


def test_huge_gamma_stack_is_valid_state():
    # gamma^4 overflows past gamma ~ 1e77 in the hand-expanded j = 1 matrix
    rho = steady_state_analytic(1, [1e80, 1e200, 1e300])
    validate_density_matrix(rho)
    assert np.abs(rho[:, -1, -1] - 1.0).max() < 1e-15


def test_normalization_overflow_reported():
    with pytest.raises(NumericRangeError) as err:
        normalization_D(64, 10.0)
    assert "64" in str(err.value) and "10" in str(err.value)


def test_validation_errors():
    with pytest.raises(ValidationError):
        steady_state_analytic(0, 1.0)  # j = 0 has no drive ladder
    with pytest.raises(ValidationError):
        steady_state_analytic(1, -0.5)
    with pytest.raises(ValidationError):
        steady_state_analytic(1, float("inf"))
    with pytest.raises(ValidationError):
        closed_form_j1(-1.0)
    with pytest.raises(ValidationError):
        normalization_D(1, float("nan"))


@pytest.mark.parametrize("gamma", [[1.0, 2.0], np.array([1.0]), np.ones((2, 2))])
def test_normalization_rejects_an_array_of_gamma(gamma):
    # one gamma only: an array raises a typed error naming its shape
    with pytest.raises(ValidationError, match=rf"one gamma, got an array of shape \({np.shape(gamma)[0]},"):
        normalization_D(1, gamma)
