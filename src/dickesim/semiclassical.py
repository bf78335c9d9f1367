"""Mean-field dynamics of the driven damped spin and its bifurcation.

Factorizing expectation values in the master equation and scaling time
by tau = j * gamma_a * t gives a closed flow on the Bloch vector
s = (sx, sy, sz) = <J>/j, with a single knob, the scaled drive
omega_r = omega / (j * gamma_a):

    dsx/dtau = sz * sx
    dsy/dtau = sz * sy - omega_r * sz
    dsz/dtau = omega_r * sy - sx^2 - sy^2

The flow conserves the spin length sx^2 + sy^2 + sz^2 exactly, which
also means every equilibrium carries a structural zero eigenvalue of
the Jacobian (the radial direction).  Stability is therefore judged on
the transverse spectrum with the zero mode filtered out; the full
three-eigenvalue list is always reported.

Below omega_r = 1 the attracting equilibrium sits at
(0, omega_r, -sqrt(1 - omega_r^2)); at omega_r = 1 the two on-sphere
branches collide at sz = 0 and for larger drives only neutrally stable
rotation centers remain.  bifurcation_scan locates that loss of
attraction by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BifurcationNotFoundError, ValidationError
from .settings import DEFAULT, NumericSettings

# any |eigenvalue| below this is treated as the structural zero mode
_ZERO_MODE_TOL = 1e-9
# attraction must beat this margin to count as stable (guards roundoff
# on the pure-rotation branch where real parts are 0 up to noise)
_STABILITY_MARGIN = 1e-12
# integrate_meanfield's largest RK4 step in scaled time
_MAX_STEP = 1.0 / 1024.0


@dataclass(frozen=True)
class FixedPointReport:
    """One equilibrium: location, full Jacobian spectrum, stability flag.

    ``stable`` means every transverse eigenvalue (zero mode filtered)
    has real part below a small negative margin, i.e. the point attracts
    on the sphere.
    """

    point: np.ndarray
    jacobian_eigenvalues: np.ndarray
    stable: bool


def _as_bloch(s):
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValidationError(f"Bloch state must have shape (3,), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValidationError("Bloch state contains non-finite entries")
    return s


def _check_omega_r(omega_r):
    omega_r = float(omega_r)
    if not np.isfinite(omega_r) or omega_r < 0:
        raise ValidationError(f"omega_r must be finite and >= 0, got {omega_r!r}")
    return omega_r


def _rhs_kernel(s, omega_r) -> np.ndarray:
    """meanfield_rhs without input checks, for callers that validated already."""
    sx, sy, sz = s
    return np.array([
        sz * sx,
        sz * sy - omega_r * sz,
        omega_r * sy - sx * sx - sy * sy,
    ])


def meanfield_rhs(s, omega_r) -> np.ndarray:
    """Time derivative of the Bloch vector in scaled time."""
    return _rhs_kernel(_as_bloch(s), _check_omega_r(omega_r))


def meanfield_jacobian(s, omega_r) -> np.ndarray:
    """Analytic 3x3 Jacobian of meanfield_rhs."""
    s = _as_bloch(s)
    omega_r = _check_omega_r(omega_r)
    sx, sy, sz = s
    return np.array([
        [sz, 0.0, sx],
        [0.0, sz, sy - omega_r],
        [-2.0 * sx, omega_r - 2.0 * sy, 0.0],
    ])


def jacobian_eigenvalues(point, omega_r, settings: NumericSettings = DEFAULT) -> np.ndarray:
    """Jacobian spectrum at an equilibrium (all three eigenvalues)."""
    point = _as_bloch(point)
    omega_r = _check_omega_r(omega_r)
    resid = float(np.linalg.norm(meanfield_rhs(point, omega_r)))
    if resid > settings.fixed_point_resid:
        raise ValidationError(
            f"not a fixed point: |rhs| = {resid:.3e} > {settings.fixed_point_resid:.1e}"
        )
    return np.linalg.eigvals(meanfield_jacobian(point, omega_r))


def _transverse(eigs):
    """Spectrum with the structural zero mode removed."""
    scale = max(1.0, float(np.abs(eigs).max()))
    return eigs[np.abs(eigs) > _ZERO_MODE_TOL * scale]


def _is_attracting(eigs) -> bool:
    trans = _transverse(eigs)
    return len(trans) > 0 and bool(np.all(trans.real < -_STABILITY_MARGIN))


def _newton_polish(s, omega_r, sweeps=3):
    # the Jacobian is singular along the radius, so use least squares
    for _ in range(sweeps):
        f = _rhs_kernel(s, omega_r)
        if np.linalg.norm(f) < 1e-14:
            break
        step, *_ = np.linalg.lstsq(meanfield_jacobian(s, omega_r), -f, rcond=None)
        s = s + step
    return s


def find_fixed_points(omega_r):
    """Equilibria of the mean-field flow on the unit sphere.

    Below the critical drive: two points at sx = 0, sy = omega_r,
    sz = -/+ sqrt(1 - omega_r^2), the lower one attracting.  At and
    above it: the sz = 0 circle intersection sy = 1/omega_r,
    sx = -/+ sqrt(1 - 1/omega_r^2), neutrally stable centers.  Reports
    are ordered with the attracting point (if any) first.
    """
    omega_r = _check_omega_r(omega_r)
    points = []
    if omega_r < 1.0:
        rad = np.sqrt(1.0 - omega_r * omega_r)
        points = [np.array([0.0, omega_r, -rad]), np.array([0.0, omega_r, rad])]
    else:
        sy = 1.0 / omega_r
        sx = np.sqrt(max(0.0, 1.0 - sy * sy))
        points = [np.array([-sx, sy, 0.0]), np.array([sx, sy, 0.0])]
        if sx == 0.0:  # branches merged exactly at the critical drive
            points = points[:1]

    reports = []
    for p in points:
        p = _newton_polish(p, omega_r)
        resid = float(np.linalg.norm(_rhs_kernel(p, omega_r)))
        if resid > 1e-10:
            raise ValidationError(f"equilibrium polish failed: residual {resid:.3e}")
        eigs = np.linalg.eigvals(meanfield_jacobian(p, omega_r))
        reports.append(FixedPointReport(point=p, jacobian_eigenvalues=eigs, stable=_is_attracting(eigs)))
    reports.sort(key=lambda r: not r.stable)
    return reports


def stable_branch_summary(omega_r):
    """(sz of the attracting branch, its leading transverse rate).

    The rate is the real part of the least-damped transverse mode of the
    best equilibrium: negative while an attracting equilibrium exists,
    ~0 once only the neutrally stable centers above the bifurcation
    remain.  Its sign change is what bifurcation_scan brackets.
    """

    def leading_rate(report):
        trans = _transverse(report.jacobian_eigenvalues)
        return float(trans.real.max()) if len(trans) else 0.0

    best = min(find_fixed_points(omega_r), key=leading_rate)
    return float(best.point[2]), leading_rate(best)


def bifurcation_scan(omega_r_grid, settings: NumericSettings = DEFAULT) -> float:
    """Critical scaled drive where the attracting equilibrium disappears.

    Scans the grid for the first pair of adjacent points that bracket
    the loss of attraction, then bisects the bracket down to
    ``settings.bifurcation_tol``.  Raises BifurcationNotFoundError when
    the whole grid sits on one side.
    """
    grid = np.asarray(omega_r_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValidationError("omega_r grid must contain at least two values")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValidationError("omega_r grid must be finite and >= 0")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("omega_r grid must be strictly ascending")

    def attracting(omega_r):
        return stable_branch_summary(omega_r)[1] < -_STABILITY_MARGIN

    sides = [attracting(w) for w in grid]
    bracket = None
    for k in range(len(grid) - 1):
        if sides[k] and not sides[k + 1]:
            bracket = (grid[k], grid[k + 1])
            break
    if bracket is None:
        side = "below" if sides[0] else "above"
        raise BifurcationNotFoundError(
            f"no loss of attraction inside grid [{grid[0]:g}, {grid[-1]:g}] "
            f"(entire grid {side} the transition)"
        )
    lo, hi = bracket
    while hi - lo > settings.bifurcation_tol:
        mid = 0.5 * (lo + hi)
        if attracting(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate_meanfield(s0, omega_r, tau_grid) -> np.ndarray:
    """Fixed-step RK4 trajectory of the Bloch vector; rows match tau_grid.

    Steps are at most _MAX_STEP, small enough that the conserved spin
    length drifts by less than ~1e-9 over tau spans of order 100.
    """
    s = _as_bloch(s0)
    omega_r = _check_omega_r(omega_r)
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValidationError("tau_grid must be a 1-D array of at least one time")
    if len(grid) > 1 and not np.all(np.diff(grid) > 0):
        raise ValidationError("tau_grid must be strictly ascending")

    out = np.empty((len(grid), 3))
    out[0] = s
    for k in range(len(grid) - 1):
        span = grid[k + 1] - grid[k]
        steps = max(1, int(np.ceil(span / _MAX_STEP)))
        h = span / steps
        for _ in range(steps):
            k1 = _rhs_kernel(s, omega_r)
            k2 = _rhs_kernel(s + 0.5 * h * k1, omega_r)
            k3 = _rhs_kernel(s + 0.5 * h * k2, omega_r)
            k4 = _rhs_kernel(s + h * k3, omega_r)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = s
    return out
