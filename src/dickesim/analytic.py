"""Exact zero-temperature steady states at arbitrary j.

With collective decay only (nbar = 0) the stationary state of the driven
spin factorizes as rho = S S^dag / D where S = sum_{l=0}^{2j} (i gamma J-)^l
and D = tr(S S^dag).  J- is nilpotent, so the sum is finite and S is
lower triangular with constant-magnitude diagonals:

    S[a, b] = (i gamma)^(a-b) * prod_{k=b}^{a-1} c_k     (a >= b)

with c_k the ladder coefficients on the subdiagonal of J-.  Entry
magnitudes span hundreds of orders of magnitude at large j and gamma, so
everything is assembled from log-magnitude prefix sums and the largest
entry is factored out; the scale cancels in rho and is restored in log
space for D.  gamma may be an array, giving one state per entry.  The
power of gamma sits only below the diagonal, so gamma = 0 gives S = I
and the maximally mixed state follows from the formula itself.

This is the one construction of the state; the two-ion figure is its
j = 1 case.  The hand-expanded j = 1 matrix is kept in the tests as an
independent oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericRangeError, ValidationError
from .spin_ops import SpinQuantum, ladder_coefficients

_LOG_DBL_MAX = float(np.log(np.finfo(float).max))


def _validate(spin, gamma):
    s = SpinQuantum.from_j(spin)
    if s.two_j < 1:
        raise ValidationError(f"j must be >= 1/2, got {s.j}")
    gamma = np.asarray(gamma, dtype=float)
    valid = np.isfinite(gamma) & (gamma >= 0)
    if not valid.all():
        bad = float(gamma[~valid].flat[0])
        raise ValidationError(f"gamma must be finite and >= 0, got {bad!r}")
    return s, gamma


def _scaled_sum(s: SpinQuantum, gamma: np.ndarray):
    """Lower-triangular sums with their largest magnitudes factored out.

    Returns (Shat, log_scale) of shapes gamma.shape + (d, d) and
    gamma.shape: each Shat has max entry magnitude 1 and
    S = exp(log_scale) * Shat exactly up to rounding.
    """
    d = s.dim
    coeffs = ladder_coefficients(s)
    prefix = np.concatenate(([0.0], np.cumsum(np.log(coeffs))))
    a = np.arange(d)[:, None]
    b = np.arange(d)[None, :]
    diff = a - b
    with np.errstate(divide="ignore", invalid="ignore"):
        # gamma^0 = 1 on the diagonal, also at gamma = 0
        power = np.where(diff > 0, diff * np.log(gamma)[..., None, None], 0.0)
    logmag = np.where(diff >= 0, power + prefix[a] - prefix[b], -np.inf)
    log_scale = logmag.max(axis=(-2, -1))
    Shat = np.exp(logmag - log_scale[..., None, None]) * (1j) ** np.maximum(diff, 0)
    return Shat, log_scale


def steady_state_analytic(spin, gamma) -> np.ndarray:
    """Stationary density matrix of the driven, collectively damped spin.

    gamma is the damping-to-drive ratio gamma_a / omega: a number gives
    one (d, d) state, an array a stack of shape gamma.shape + (d, d).
    gamma = 0 gives the maximally mixed state; very large gamma
    approaches the bottom ladder level.
    """
    s, gamma = _validate(spin, gamma)
    Shat, _ = _scaled_sum(s, gamma)
    rho = Shat @ Shat.conj().swapaxes(-1, -2)
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    bad = ~(np.isfinite(tr) & (tr > 0))
    if bad.any():
        raise NumericRangeError(
            f"scaled steady-state sum degenerated at j = {s.j}, "
            f"gamma = {float(gamma[bad].flat[0])}"
        )
    rho = rho / tr[..., None, None]
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho


def normalization_D(spin, gamma) -> float:
    """Trace of the unnormalized stationary sum, tr(S S^dag), for one gamma.

    For j = 1 this is the quartic 3 + 4 gamma^2 + 4 gamma^4.  Raises
    ValidationError for an array of gamma, and NumericRangeError when
    the true value exceeds double-precision range (large j with large
    gamma).
    """
    s, gamma = _validate(spin, gamma)
    if gamma.ndim:
        raise ValidationError(f"normalization_D takes one gamma, got an array of shape {gamma.shape}")
    Shat, log_scale = _scaled_sum(s, gamma)
    # tr(S S^dag) = sum |S_ab|^2 = exp(2 log_scale) * sum |Shat_ab|^2
    log_scale2 = 2.0 * float(log_scale)
    total = float((np.abs(Shat) ** 2).sum())
    log_d = log_scale2 + np.log(total)
    if log_d > _LOG_DBL_MAX:
        raise NumericRangeError(
            f"normalization overflows double precision at j = {s.j}, "
            f"gamma = {float(gamma)} (log value {log_d:.1f})"
        )
    return float(np.exp(log_scale2) * total)
