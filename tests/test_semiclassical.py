import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from dickesim import (
    BifurcationNotFoundError,
    ValidationError,
    bifurcation_scan,
    find_fixed_points,
    integrate_meanfield,
    jacobian_eigenvalues,
    meanfield_jacobian,
    meanfield_rhs,
    stable_branch_summary,
)
from util import finite_difference_jacobian

coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- flow field

def test_rhs_south_pole_is_stationary_without_drive():
    assert np.abs(meanfield_rhs([0.0, 0.0, -1.0], 0.0)).max() == 0.0


def test_rhs_known_equilibrium():
    assert np.abs(meanfield_rhs([0.0, 0.6, -0.8], 0.6)).max() < 1e-14


def test_rhs_example_value():
    # hand-evaluated at s = (0.3, 0.5, -0.2), omega_r = 0.7
    out = meanfield_rhs([0.3, 0.5, -0.2], 0.7)
    assert out == pytest.approx([-0.06, -0.1 + 0.14, 0.35 - 0.09 - 0.25], abs=1e-15)


@given(coord, coord, coord, st.floats(0.0, 3.0, allow_nan=False))
@hyp_settings(max_examples=60, deadline=None)
def test_flow_is_tangent_to_spheres(sx, sy, sz, omega_r):
    s = np.array([sx, sy, sz])
    radial = float(s @ meanfield_rhs(s, omega_r))
    assert abs(radial) <= 1e-12 * max(1.0, float(np.abs(s).max()) ** 3)


def test_rhs_validation():
    with pytest.raises(ValidationError):
        meanfield_rhs([0.0, 0.0], 1.0)
    with pytest.raises(ValidationError):
        meanfield_rhs([0.0, np.nan, 0.0], 1.0)
    with pytest.raises(ValidationError):
        meanfield_rhs([0.0, 0.0, -1.0], -0.5)


# ---------------------------------------------------------------- jacobians

@given(coord, coord, coord, st.floats(0.0, 3.0, allow_nan=False))
@hyp_settings(max_examples=40, deadline=None)
def test_jacobian_matches_finite_differences(sx, sy, sz, omega_r):
    s = np.array([sx, sy, sz])
    gap = np.abs(
        meanfield_jacobian(s, omega_r) - finite_difference_jacobian(s, omega_r)
    ).max()
    assert gap < 1e-5


def test_jacobian_spectrum_at_undriven_south_pole():
    eigs = np.sort(jacobian_eigenvalues([0.0, 0.0, -1.0], 0.0).real)
    assert eigs == pytest.approx([-1.0, -1.0, 0.0], abs=1e-12)


def test_jacobian_spectrum_below_transition():
    # transverse pair equals sz twice, plus the structural zero mode
    eigs = jacobian_eigenvalues([0.0, 0.6, -0.8], 0.6)
    assert np.sort(eigs.real) == pytest.approx([-0.8, -0.8, 0.0], abs=1e-12)
    assert np.abs(eigs.imag).max() < 1e-12


def test_jacobian_spectrum_above_transition():
    # rotation centers: zero mode plus a conjugate pair +/- i sqrt(w^2 - 1)
    omega_r = 1.5
    point = find_fixed_points(omega_r)[0].point
    eigs = jacobian_eigenvalues(point, omega_r)
    assert np.abs(eigs.real).max() < 1e-9
    assert np.sort(np.abs(eigs.imag)) == pytest.approx(
        [0.0, np.sqrt(1.25), np.sqrt(1.25)], abs=1e-9
    )


def test_jacobian_eigenvalues_rejects_non_equilibrium():
    with pytest.raises(ValidationError, match="not a fixed point"):
        jacobian_eigenvalues([0.5, 0.5, 0.5], 0.6)


# ---------------------------------------------------------------- equilibria

def test_fixed_points_undriven():
    reports = find_fixed_points(0.0)
    assert len(reports) == 2
    assert reports[0].stable
    assert reports[0].point == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)
    assert not reports[1].stable
    assert reports[1].point == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


def test_fixed_points_below_transition():
    reports = find_fixed_points(0.6)
    assert reports[0].stable
    assert reports[0].point == pytest.approx([0.0, 0.6, -0.8], abs=1e-10)
    assert not reports[1].stable
    assert reports[1].point == pytest.approx([0.0, 0.6, 0.8], abs=1e-10)


def test_fixed_points_at_transition_merge():
    reports = find_fixed_points(1.0)
    assert len(reports) == 1
    assert reports[0].point == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)
    assert not reports[0].stable


def test_fixed_points_above_transition():
    reports = find_fixed_points(1.5)
    assert len(reports) == 2
    sx = np.sqrt(1.0 - (2.0 / 3.0) ** 2)
    for report, sign in zip(reports, (-1.0, 1.0)):
        assert not report.stable
        assert report.point == pytest.approx([sign * sx, 2.0 / 3.0, 0.0], abs=1e-10)
        assert np.linalg.norm(report.point) == pytest.approx(1.0, abs=1e-10)


def test_fixed_points_sit_on_unit_sphere():
    for omega_r in (0.0, 0.3, 0.9, 1.0, 1.7, 2.5):
        for report in find_fixed_points(omega_r):
            assert np.linalg.norm(report.point) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(meanfield_rhs(report.point, omega_r)).max() < 1e-10


def test_relaxation_rate_softens_toward_transition():
    drives = [0.2, 0.5, 0.8, 0.95, 0.999]
    rates = [stable_branch_summary(w)[1] for w in drives]
    assert all(rate < 0 for rate in rates)
    assert np.all(np.diff(rates) > 0)  # attraction weakens monotonically
    assert rates[0] == pytest.approx(-np.sqrt(1.0 - 0.04), abs=1e-10)


def test_stable_branch_summary_values():
    sz, rate = stable_branch_summary(0.6)
    assert sz == pytest.approx(-0.8, abs=1e-10)
    assert rate == pytest.approx(-0.8, abs=1e-10)
    sz_above, rate_above = stable_branch_summary(1.5)
    assert sz_above == pytest.approx(0.0, abs=1e-10)
    assert abs(rate_above) < 1e-9


# ---------------------------------------------------------------- bifurcation

def test_bifurcation_located_at_unit_drive():
    critical = bifurcation_scan(np.linspace(0.1, 2.0, 20))
    assert abs(critical - 1.0) <= 1e-6


def test_bifurcation_scan_grid_errors():
    with pytest.raises(BifurcationNotFoundError, match="below"):
        bifurcation_scan(np.linspace(0.1, 0.5, 5))
    with pytest.raises(BifurcationNotFoundError, match="above"):
        bifurcation_scan(np.linspace(1.2, 2.0, 5))
    with pytest.raises(ValidationError):
        bifurcation_scan([0.5])
    with pytest.raises(ValidationError):
        bifurcation_scan([0.5, 0.4, 0.3])
    with pytest.raises(ValidationError):
        bifurcation_scan([-0.1, 0.5, 1.5])


# ---------------------------------------------------------------- trajectories

def test_spin_length_conserved_on_long_run():
    s0 = np.array([0.3, 0.4, np.sqrt(1.0 - 0.25)])
    path = integrate_meanfield(s0, 1.3, np.linspace(0.0, 100.0, 201))
    lengths = np.einsum("ij,ij->i", path, path)
    assert np.abs(lengths - 1.0).max() <= 1e-8


def test_trajectory_converges_to_attracting_point():
    s0 = np.array([0.5, 0.2, -0.7])
    s0 /= np.linalg.norm(s0)
    path = integrate_meanfield(s0, 0.6, np.linspace(0.0, 60.0, 61))
    assert np.abs(path[-1] - [0.0, 0.6, -0.8]).max() <= 1e-6


def test_trajectory_grid_handling():
    s0 = [0.0, 0.0, -1.0]
    single = integrate_meanfield(s0, 0.5, [0.0])
    assert single.shape == (1, 3)
    with pytest.raises(ValidationError):
        integrate_meanfield(s0, 0.5, [0.0, 2.0, 1.0])
