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

Both equilibria are known in closed form, so one pass handles a whole
1-D array of drives: it builds the (k, 2, 3) points, checks their
residuals (the closed forms sit on the flow's zeros to rounding, so no
Newton polish follows), takes one eigvals of the (k, 2, 3, 3) Jacobian
stack and ranks the branches with array filters.  stable_branch_summary
on an array, bifurcation_scan's grid and find_fixed_points all read it;
the bisection takes the pass on every midpoint of the next _TREE_DEPTH
levels of its tree at once.

The flow is a rotation about x plus a conformal boost toward -z, and
both are Moebius maps of the Bloch sphere (Carmichael, J. Phys. B 13,
3551 (1980)).  On a 2-spinor psi with s = r psi^dag sigma psi /
psi^dag psi, r = |s|, it is linear: psi' = A psi with
A = -(i omega_r sigma_x + r sigma_z) / 2, and A^2 = (r^2 - omega_r^2)/4.
integrate_meanfield applies exp(h A) in closed form.  The bifurcation at
omega_r = 1 = r is where that step matrix turns from hyperbolic (two
fixed points, one attracting) to elliptic (rotation about two centres).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BifurcationNotFoundError, ValidationError

# any |eigenvalue| below this is treated as the structural zero mode
_ZERO_MODE_TOL = 1e-9
# attraction must beat this margin to count as stable (guards roundoff
# on the pure-rotation branch where real parts are 0 up to noise)
_STABILITY_MARGIN = 1e-12
# bisection levels evaluated per pass (2^5 - 1 = 31 drives).  On one core
# a pass takes 0.14 ms on one drive, 0.19 on 7, 0.35 on 31 and 0.52 on 63,
# and the paper grid's 16 levels take 3.7 ms at one level a pass, 2.1 ms
# at 3, 1.75-1.83 ms at 4 to 6 and 2.0 ms at 7
_TREE_DEPTH = 5
# bifurcation_scan's default bracket width for the critical drive
BIFURCATION_TOL = 1e-6


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
    """meanfield_rhs without input checks; s may be a (..., 3) stack."""
    sx, sy, sz = s[..., 0], s[..., 1], s[..., 2]
    return np.stack([
        sz * sx,
        sz * sy - omega_r * sz,
        omega_r * sy - sx * sx - sy * sy,
    ], axis=-1)


def meanfield_rhs(s, omega_r) -> np.ndarray:
    """Time derivative of the Bloch vector in scaled time."""
    return _rhs_kernel(_as_bloch(s), _check_omega_r(omega_r))


def _jacobian_kernel(s, omega_r) -> np.ndarray:
    """Analytic Jacobian of meanfield_rhs, without input checks.

    s may be a (..., 3) stack, with omega_r broadcasting against
    s[..., 0]; the result is (..., 3, 3).
    """
    s = np.asarray(s, dtype=float)
    sx, sy, sz = s[..., 0], s[..., 1], s[..., 2]
    out = np.zeros(s.shape + (3,))
    out[..., 0, 0] = out[..., 1, 1] = sz
    out[..., 0, 2] = sx
    out[..., 1, 2] = sy - omega_r
    out[..., 2, 0] = -2.0 * sx
    out[..., 2, 1] = omega_r - 2.0 * sy
    return out


def _equilibria(omega_r):
    """Both equilibria of each drive in a 1-D array, in one pass.

    Returns (points, eigs, stable, rate, count): the (k, 2, 3) points
    in find_fixed_points' closed form, lower (or -sx) branch first, their
    (k, 2, 3) Jacobian spectra, the (k, 2) stability flags and leading
    transverse rates (the largest real part once the structural zero
    mode is filtered, 0 when nothing is left), and the number of
    distinct points per drive: 1 where the branches merge at sx = 0,
    and then the second slot is a copy whose rate reads +inf.
    """
    below = omega_r < 1.0
    sy = np.where(below, omega_r, 1.0 / np.maximum(omega_r, 1.0))
    root = np.sqrt(np.maximum(0.0, 1.0 - sy * sy))
    k = len(omega_r)
    points = np.zeros((k, 2, 3))
    points[:, :, 1] = sy[:, None]
    points[np.arange(k), :, np.where(below, 2, 0)] = root[:, None] * [-1.0, 1.0]

    drive = omega_r[:, None]
    resid = np.linalg.norm(_rhs_kernel(points, drive), axis=-1).max(initial=0.0)
    if resid > 1e-10:
        raise ValidationError(f"equilibrium residual {resid:.3e} at the closed-form points")
    eigs = np.linalg.eigvals(_jacobian_kernel(points, drive))
    size = np.abs(eigs)
    transverse = size > _ZERO_MODE_TOL * np.maximum(1.0, size.max(axis=-1, keepdims=True))
    some = transverse.any(axis=-1)
    rate = np.where(some, np.where(transverse, eigs.real, -np.inf).max(axis=-1), 0.0)
    stable = some & np.all(~transverse | (eigs.real < -_STABILITY_MARGIN), axis=-1)
    count = np.where(below | (root > 0.0), 2, 1)  # 1: merged exactly at the critical drive
    rate[:, 1] = np.where(count == 2, rate[:, 1], np.inf)
    return points, eigs, stable, rate, count


def find_fixed_points(omega_r):
    """Equilibria of the mean-field flow on the unit sphere.

    Below the critical drive: two points at sx = 0, sy = omega_r,
    sz = -/+ sqrt(1 - omega_r^2), the lower one attracting.  At and
    above it: the sz = 0 circle intersection sy = 1/omega_r,
    sx = -/+ sqrt(1 - 1/omega_r^2), neutrally stable centers.  Reports
    are ordered with the attracting point (if any) first.
    """
    points, eigs, stable, _, count = _equilibria(np.array([_check_omega_r(omega_r)]))
    reports = [
        FixedPointReport(point=points[0, n], jacobian_eigenvalues=eigs[0, n], stable=bool(stable[0, n]))
        for n in range(count[0])
    ]
    reports.sort(key=lambda r: not r.stable)
    return reports


def _branch_summary(omega_r):
    """stable_branch_summary for a checked 1-D array of drives, as two arrays."""
    points, _, _, rate, _ = _equilibria(omega_r)
    # The least damped of find_fixed_points' reports, the first on a tie.
    # A stable point's rate is below -_STABILITY_MARGIN and any other's
    # is not, so its listing first never decides a tie: slot order does.
    second = rate[:, 1] < rate[:, 0]
    return np.where(second, points[:, 1, 2], points[:, 0, 2]), np.where(second, rate[:, 1], rate[:, 0])


def stable_branch_summary(omega_r):
    """(sz of the attracting branch, its leading transverse rate).

    The rate is the real part of the least-damped transverse mode of the
    best equilibrium: negative while an attracting equilibrium exists,
    ~0 once only the neutrally stable centers above the bifurcation
    remain.  Its sign change is what bifurcation_scan brackets.  A
    scalar drive gives two floats; a 1-D array of drives gives two
    arrays, from one pass over all of them.
    """
    drives = np.asarray(omega_r, dtype=float)
    if drives.ndim == 0:
        sz, rate = _branch_summary(np.array([_check_omega_r(omega_r)]))
        return float(sz[0]), float(rate[0])
    if drives.ndim != 1 or not np.all(np.isfinite(drives)) or np.any(drives < 0):
        raise ValidationError("omega_r must be a drive or a 1-D array of drives, each finite and >= 0")
    return _branch_summary(drives)


def bifurcation_scan(omega_r_grid, tol=BIFURCATION_TOL) -> float:
    """Critical scaled drive where the attracting equilibrium disappears.

    Evaluates the whole grid in one pass, takes the first pair of
    adjacent points that bracket the loss of attraction, then bisects
    the bracket down to width tol, or to adjacent doubles when that is
    finer (tol = 0), _TREE_DEPTH levels a pass (16 levels in 4 passes on
    the paper grid).  tol must be finite and >= 0, else ValidationError.
    Raises BifurcationNotFoundError when the whole grid sits on one side.
    """
    grid = np.asarray(omega_r_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValidationError("omega_r grid must contain at least two values")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValidationError("omega_r grid must be finite and >= 0")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("omega_r grid must be strictly ascending")
    if not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
        raise ValidationError(f"tol must be a finite number >= 0, got {tol!r}")

    sides = _branch_summary(grid)[1] < -_STABILITY_MARGIN
    edges = np.flatnonzero(sides[:-1] & ~sides[1:])
    if len(edges) == 0:
        side = "below" if sides[0] else "above"
        raise BifurcationNotFoundError(
            f"no loss of attraction inside grid [{grid[0]:g}, {grid[-1]:g}] "
            f"(entire grid {side} the transition)"
        )
    return _bisect(grid[edges[0]], grid[edges[0] + 1], float(tol))


def _bisect(lo, hi, tol):
    """Bisect the bracket (lo, hi) down to tol, _TREE_DEPTH levels a pass.

    A pass evaluates every midpoint of the next levels of the bisection
    tree, each 0.5 * (lo + hi) of its node's own bracket, in one
    _branch_summary call, then walks the tree with the one-step loop's
    decisions, so the result is that loop's bit for bit.  It stops once
    the bracket is at most tol wide or its midpoint is not strictly
    inside it (adjacent doubles), so every tol >= 0 ends.
    """
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        width = hi - lo
        levels = _TREE_DEPTH
        if width < tol * 2.0 ** _TREE_DEPTH:  # only the ~log2(width / tol) levels left
            levels = max(1, math.ceil(math.log2(width / tol)))
        lows, highs, tree = np.array([lo]), np.array([hi]), []
        for _ in range(levels):
            mids = 0.5 * (lows + highs)
            tree.append(mids)
            # node n's children 2n and 2n + 1 bracket (low, mid) and (mid, high)
            lows = np.stack([lows, mids], axis=1).ravel()
            highs = np.stack([mids, highs], axis=1).ravel()
        attracting = (_branch_summary(np.concatenate(tree))[1] < -_STABILITY_MARGIN).tolist()
        node = 0
        for level, mids in enumerate(tree):
            mid = mids[node]
            if not (hi - lo > tol and lo < mid < hi):
                break
            up = attracting[2 ** level - 1 + node]
            lo, hi = (mid, hi) if up else (lo, mid)
            node = 2 * node + up
    return 0.5 * (lo + hi)


def integrate_meanfield(s0, omega_r, tau_grid) -> np.ndarray:
    """Exact trajectory of the Bloch vector; rows match tau_grid.

    With r = |s0|, which the flow conserves, and the spinor form
    s = r psi^dag sigma psi / psi^dag psi, the flow is psi' = A psi,
    A = -(i omega_r sigma_x + r sigma_z) / 2 (module docstring).  Each
    grid interval h applies exp(h A), up to a positive scalar that
    renormalising psi removes:

        omega_r > r:  cos(mu h) I + sin(mu h)/mu A,   mu = sqrt(omega_r^2 - r^2)/2
        omega_r < r:  I + tanh(kappa h)/kappa A,      kappa = sqrt(r^2 - omega_r^2)/2
        omega_r = r:  I + h A

    The hyperbolic form is exp(h A) / cosh(kappa h), so nothing
    overflows however long the interval.  The work is one 2x2 step per
    grid interval, whatever the tau span, and the spin length holds to
    rounding.  s0 = 0 stays 0.
    """
    s = _as_bloch(s0)
    omega_r = _check_omega_r(omega_r)
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValidationError("tau_grid must be a 1-D array of at least one time")
    # an ascending grid holds finite times and finite steps iff its span is finite
    if not math.isfinite(float(grid[-1]) - float(grid[0])):
        raise ValidationError("tau_grid must hold finite times and finite steps")
    h = np.diff(grid)
    if not np.all(h > 0):
        raise ValidationError("tau_grid must be strictly ascending")

    out = np.empty((len(grid), 3))
    out[0] = s
    r = float(np.linalg.norm(s))
    if r == 0.0:
        out[1:] = 0.0
        return out

    sx, sy, sz = s
    # scaled by the larger of cos(theta/2), sin(theta/2), so no pole gives psi ~ 0
    psi = np.array([r + sz, sx + 1j * sy]) if sz >= 0.0 else np.array([sx - 1j * sy, r - sz])
    gen = -0.5 * np.array([[r, 1j * omega_r], [1j * omega_r, -r]])
    gap = (omega_r - r) * (omega_r + r)          # -4 A^2
    if gap > 0.0:
        mu = 0.5 * np.sqrt(gap)
        c, t = np.cos(mu * h), np.sin(mu * h) / mu
    elif gap < 0.0:
        kappa = 0.5 * np.sqrt(-gap)
        c, t = np.ones_like(h), np.tanh(kappa * h) / kappa
    else:
        c, t = np.ones_like(h), h
    steps = c[:, None, None] * np.eye(2) + t[:, None, None] * gen

    spinors = np.empty((len(h), 2), dtype=complex)
    for k, step in enumerate(steps):
        nxt = step @ psi
        scale = np.abs(nxt).max()
        # only a hyperbolic step with tanh = 1 can annihilate psi, and
        # only when psi is the repelling fixed point, which the flow keeps
        if scale > 0.0:
            psi = nxt / scale
        spinors[k] = psi
    a, b = spinors[:, 0], spinors[:, 1]
    na, nb = (a * a.conj()).real, (b * b.conj()).real
    ab = a.conj() * b * (2.0 * r / (na + nb))
    out[1:, 0] = ab.real
    out[1:, 1] = ab.imag
    out[1:, 2] = r * (na - nb) / (na + nb)
    return out
