import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hyp_settings, strategies as st

from dickesim import (
    BifurcationNotFoundError,
    ValidationError,
    bifurcation_scan,
    find_fixed_points,
    integrate_meanfield,
    meanfield_rhs,
    stable_branch_summary,
)
from dickesim import semiclassical
from dickesim.semiclassical import _jacobian_kernel
from util import (
    bifurcation_per_drive,
    branch_summary_per_drive,
    finite_difference_jacobian,
    fixed_points_per_drive,
    meanfield_dop853,
)

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
        _jacobian_kernel(s, omega_r) - finite_difference_jacobian(s, omega_r)
    ).max()
    assert gap < 1e-5


def test_jacobian_stack_equals_one_matrix_at_a_time():
    rng = np.random.default_rng(5)
    points = rng.uniform(-2.0, 2.0, size=(4, 2, 3))
    drives = rng.uniform(0.0, 3.0, size=(4, 1))
    stack = _jacobian_kernel(points, drives)
    assert stack.shape == (4, 2, 3, 3)
    for k in range(4):
        for n in range(2):
            assert np.array_equal(stack[k, n], _jacobian_kernel(points[k, n], drives[k, 0]))


# the spectra find_fixed_points reports, at its attracting point (listed
# first) where there is one

def test_jacobian_spectrum_at_undriven_south_pole():
    report = find_fixed_points(0.0)[0]
    assert report.point == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)
    eigs = np.sort(report.jacobian_eigenvalues.real)
    assert eigs == pytest.approx([-1.0, -1.0, 0.0], abs=1e-12)


def test_jacobian_spectrum_below_transition():
    # transverse pair equals sz twice, plus the structural zero mode
    report = find_fixed_points(0.6)[0]
    assert report.point == pytest.approx([0.0, 0.6, -0.8], abs=1e-10)
    eigs = report.jacobian_eigenvalues
    assert np.sort(eigs.real) == pytest.approx([-0.8, -0.8, 0.0], abs=1e-12)
    assert np.abs(eigs.imag).max() < 1e-12


def test_jacobian_spectrum_above_transition():
    # rotation centers: zero mode plus a conjugate pair +/- i sqrt(w^2 - 1)
    eigs = find_fixed_points(1.5)[0].jacobian_eigenvalues
    assert np.abs(eigs.real).max() < 1e-9
    assert np.sort(np.abs(eigs.imag)) == pytest.approx(
        [0.0, np.sqrt(1.25), np.sqrt(1.25)], abs=1e-9
    )


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


# ------------------------------------------- the stacked pass against the oracle

def _drive_sweep():
    rng = np.random.default_rng(12)
    return np.concatenate([
        [0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1e3],
        np.linspace(0.0, 3.0, 61),
        rng.uniform(0.0, 5.0, 200),
        1.0 + rng.uniform(-1e-6, 1e-6, 200),
    ])


def test_stacked_branch_summary_equals_per_drive_oracle():
    drives = _drive_sweep()
    sz, rate = stable_branch_summary(drives)
    ref = np.array([branch_summary_per_drive(w) for w in drives])
    assert np.array_equal(sz, ref[:, 0])
    assert np.array_equal(rate, ref[:, 1])


def test_fixed_point_reports_equal_per_drive_oracle():
    for omega_r in _drive_sweep()[::7]:
        reports = find_fixed_points(omega_r)
        ref = fixed_points_per_drive(omega_r)
        assert len(reports) == len(ref)
        for report, (point, eigs, stable) in zip(reports, ref):
            assert np.array_equal(report.point, point)
            assert np.array_equal(report.jacobian_eigenvalues, eigs)
            assert report.stable == stable


@pytest.mark.parametrize("grid", [
    np.linspace(0.05, 2.0, 40),
    np.linspace(0.999, 1.001, 7),
    np.linspace(0.0, 5.0, 1001),
], ids=["paper", "narrow", "fine"])
def test_bifurcation_scan_equals_per_drive_oracle(grid):
    assert bifurcation_scan(grid) == bifurcation_per_drive(grid, semiclassical.BIFURCATION_TOL)


@given(
    lo=st.floats(0.0, 0.999),
    hi=st.floats(1.0, 4.0),
    count=st.integers(2, 60),
    exponent=st.floats(-15.0, -1.0),
)
@example(lo=0.05, hi=2.0, count=40, exponent=-6.0)
@example(lo=0.999, hi=1.0, count=2, exponent=-15.0)
@hyp_settings(max_examples=60, deadline=None)
def test_bifurcation_scan_equals_per_drive_oracle_on_drawn_grids(lo, hi, count, exponent):
    grid = np.linspace(lo, hi, count)
    tol = 10.0 ** exponent
    critical = bifurcation_scan(grid, tol=tol)
    assert critical == bifurcation_per_drive(grid, tol)


def _count_passes(monkeypatch, limit=200):
    """Count _equilibria calls; raise past limit, so a runaway bisection fails."""
    calls = []
    real = semiclassical._equilibria

    def counted(omega_r):
        calls.append(len(omega_r))
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} mean-field passes")
        return real(omega_r)

    monkeypatch.setattr(semiclassical, "_equilibria", counted)
    return calls


def test_bifurcation_scan_bisects_a_tree_per_pass(monkeypatch):
    calls = _count_passes(monkeypatch)
    bifurcation_scan(np.linspace(0.05, 2.0, 40))
    # the grid pass plus 16 bisection levels, _TREE_DEPTH of them a pass
    assert len(calls) <= 1 + math.ceil(16 / semiclassical._TREE_DEPTH)
    assert max(calls[1:]) <= 2 ** semiclassical._TREE_DEPTH - 1


@pytest.mark.parametrize("tol", [0.0, 1e-300, 5e-324])
def test_bifurcation_scan_below_float_spacing_ends_at_adjacent_doubles(monkeypatch, tol):
    grid = np.linspace(0.1, 2.0, 20)
    calls = _count_passes(monkeypatch)
    critical = bifurcation_scan(grid, tol=tol)
    assert critical == 1.0
    monkeypatch.undo()
    assert critical == bifurcation_per_drive(grid, tol)
    # the 0.1-wide bracket below 1 halves to adjacent doubles in 50 levels
    assert len(calls) <= 1 + math.ceil(50 / semiclassical._TREE_DEPTH)


@pytest.mark.parametrize("tol", [-1e-6, -np.inf, np.nan, np.inf, "1e-6"])
def test_bifurcation_scan_rejects_bad_tolerance_before_any_pass(monkeypatch, tol):
    calls = _count_passes(monkeypatch)
    with pytest.raises(ValidationError, match="^tol must be a finite number >= 0"):
        bifurcation_scan(np.linspace(0.1, 2.0, 20), tol=tol)
    assert calls == []


def test_scalar_and_array_summaries_agree():
    drives = _drive_sweep()[:80]
    sz, rate = stable_branch_summary(drives)
    for k, omega_r in enumerate(drives):
        scalar = stable_branch_summary(float(omega_r))
        assert type(scalar[0]) is float and type(scalar[1]) is float
        assert scalar == (sz[k], rate[k])
    assert stable_branch_summary(drives.tolist())[1].tolist() == rate.tolist()


@pytest.mark.parametrize("bad", [
    [0.5, np.nan], [0.5, -0.1], [[0.5, 1.5]], np.nan, -0.5, np.inf,
], ids=["nan", "negative", "2-D", "scalar-nan", "scalar-negative", "scalar-inf"])
def test_branch_summary_rejects_bad_drives(bad):
    with pytest.raises(ValidationError):
        stable_branch_summary(bad)


# ---------------------------------------------------------------- trajectories

def test_spin_length_conserved_on_long_run():
    s0 = np.array([0.3, 0.4, np.sqrt(1.0 - 0.25)])
    path = integrate_meanfield(s0, 1.3, np.linspace(0.0, 100.0, 201))
    lengths = np.einsum("ij,ij->i", path, path)
    assert np.abs(lengths - 1.0).max() <= 1e-13


def test_trajectory_converges_to_attracting_point():
    s0 = np.array([0.5, 0.2, -0.7])
    s0 /= np.linalg.norm(s0)
    path = integrate_meanfield(s0, 0.6, np.linspace(0.0, 60.0, 61))
    assert np.abs(path[-1] - [0.0, 0.6, -0.8]).max() <= 1e-6


def test_trajectory_work_does_not_grow_with_span():
    s0 = np.array([0.5, 0.2, -0.7])
    s0 /= np.linalg.norm(s0)
    start = time.perf_counter()
    path = integrate_meanfield(s0, 0.6, [0.0, 1e9])
    assert time.perf_counter() - start < 1.0
    assert np.abs(path[-1] - [0.0, 0.6, -0.8]).max() <= 1e-10


def test_trajectory_keeps_repelling_fixed_point():
    # without drive the north pole is a fixed point that repels; over a
    # long enough interval tanh(kappa h) rounds to 1 and the step matrix
    # annihilates its spinor
    path = integrate_meanfield([0.0, 0.0, 4.0], 0.0, [0.0, 1.0, 1e3])
    assert np.array_equal(path, [[0.0, 0.0, 4.0]] * 3)


@given(
    radius=st.one_of(st.just(0.0), st.floats(0.05, 4.0)),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    omega_r=st.floats(0.0, 3.0),
    span=st.floats(0.1, 50.0),
    log_grid=st.booleans(),
)
@example(radius=1.5, direction=(0.0, 0.0, 1.0), omega_r=1.5, span=50.0, log_grid=False)  # omega_r = r
@example(radius=0.7, direction=(0.3, -0.5, 0.2), omega_r=0.7, span=40.0, log_grid=True)  # r ~ omega_r
@example(radius=1.0, direction=(0.4, 0.1, 0.6), omega_r=0.0, span=30.0, log_grid=True)  # no drive
@example(radius=1.0, direction=(0.0, 0.0, 1.0), omega_r=0.6, span=50.0, log_grid=False)  # north pole
@example(radius=2.0, direction=(0.0, 0.0, -1.0), omega_r=2.5, span=50.0, log_grid=True)  # south pole
@example(radius=3.0, direction=(0.0, 0.0, 1.0), omega_r=0.0, span=50.0, log_grid=False)  # repeller
@example(radius=0.0, direction=(0.0, 0.0, 1.0), omega_r=1.0, span=10.0, log_grid=False)
@example(radius=4.0, direction=(0.0, 1e-12, 1.0), omega_r=0.0, span=4.0, log_grid=False)  # tiny growing sy
@example(radius=2.0, direction=(0.0, 2.5140738220139062e-46, 0.125), omega_r=0.0, span=41.0,
         log_grid=False)  # sy starts near 4e-45
@hyp_settings(max_examples=60, deadline=None)
def test_trajectory_matches_dop853(radius, direction, omega_r, span, log_grid):
    v = np.array(direction)
    assume(np.linalg.norm(v) > 1e-3)
    s0 = radius * v / np.linalg.norm(v)
    if log_grid:
        taus = np.concatenate([[0.0], np.geomspace(1e-3, span, 30)])
    else:
        taus = np.linspace(0.0, span, 41)
    path = integrate_meanfield(s0, omega_r, taus)
    assert path.shape == (len(taus), 3)
    assert np.abs(path - meanfield_dop853(s0, omega_r, taus)).max() <= 1e-9


def test_trajectory_grid_handling():
    s0 = [0.0, 0.0, -1.0]
    single = integrate_meanfield(s0, 0.5, [0.0])
    assert single.shape == (1, 3)
    assert np.array_equal(single[0], s0)
    with pytest.raises(ValidationError):
        integrate_meanfield(s0, 0.5, [0.0, 2.0, 1.0])


def test_trajectory_rejects_non_finite_grid():
    s0 = [0.3, 0.0, -0.5]
    for grid in ([0.0, 0.1, np.inf], [-np.inf, 0.0], [0.0, np.nan], [-1e308, 1e308]):
        with pytest.raises(ValidationError, match="finite"):
            integrate_meanfield(s0, 1.5, grid)
