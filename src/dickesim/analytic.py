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
space for D.
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
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma < 0:
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma!r}")
    return s, gamma


def _scaled_sum(s: SpinQuantum, gamma: float):
    """Lower-triangular sum with its largest magnitude factored out.

    Returns (Shat, log_scale): Shat has max entry magnitude 1 and
    S = exp(log_scale) * Shat exactly up to rounding.
    """
    d = s.dim
    coeffs = ladder_coefficients(s)
    prefix = np.concatenate(([0.0], np.cumsum(np.log(coeffs))))
    a = np.arange(d)[:, None]
    b = np.arange(d)[None, :]
    diff = a - b
    with np.errstate(divide="ignore"):
        logmag = np.where(diff >= 0, diff * np.log(gamma) + prefix[a] - prefix[b], -np.inf)
    log_scale = float(logmag.max())
    Shat = np.exp(logmag - log_scale) * (1j) ** np.maximum(diff, 0)
    return Shat, log_scale


def steady_state_analytic(spin, gamma) -> np.ndarray:
    """Stationary density matrix of the driven, collectively damped spin.

    gamma is the damping-to-drive ratio gamma_a / omega.  gamma = 0 is
    returned as its documented limit, the maximally mixed state; very
    large gamma approaches the bottom ladder level.
    """
    s, gamma = _validate(spin, gamma)
    d = s.dim
    if gamma == 0.0:
        return np.eye(d, dtype=complex) / d
    Shat, _ = _scaled_sum(s, gamma)
    rho = Shat @ Shat.conj().T
    tr = float(np.trace(rho).real)
    if not np.isfinite(tr) or tr <= 0:
        raise NumericRangeError(
            f"scaled steady-state sum degenerated at j = {s.j}, gamma = {gamma}"
        )
    rho = rho / tr
    rho = 0.5 * (rho + rho.conj().T)
    return rho


def normalization_D(spin, gamma) -> float:
    """Trace of the unnormalized stationary sum, tr(S S^dag).

    For j = 1 this is the quartic 3 + 4 gamma^2 + 4 gamma^4.  Computed
    in log space; raises NumericRangeError when the true value exceeds
    double-precision range (large j with large gamma).
    """
    s, gamma = _validate(spin, gamma)
    if gamma == 0.0:
        return float(s.dim)
    Shat, log_scale = _scaled_sum(s, gamma)
    # tr(S S^dag) = sum |S_ab|^2 = exp(2 log_scale) * sum |Shat_ab|^2
    log_d = 2.0 * log_scale + float(np.log((np.abs(Shat) ** 2).sum()))
    if log_d > _LOG_DBL_MAX:
        raise NumericRangeError(
            f"normalization overflows double precision at j = {s.j}, "
            f"gamma = {gamma} (log value {log_d:.1f})"
        )
    return float(np.exp(log_d))


def closed_form_j1(gamma) -> np.ndarray:
    """The explicit 3x3 stationary matrix of the spin-1 (two-ion) case.

    Hand-expanded form of steady_state_analytic at j = 1, kept as an
    independent code path for cross-checks.  An array of gamma gives a
    stack of shape gamma.shape + (3, 3).
    """
    gamma = np.asarray(gamma, dtype=float)
    valid = np.isfinite(gamma) & (gamma >= 0)
    if not valid.all():
        bad = float(gamma[~valid].flat[0])
        raise ValidationError(f"gamma must be finite and >= 0, got {bad!r}")
    g2 = gamma * gamma
    r2 = np.sqrt(2.0)
    off = r2 * gamma + 2.0 * r2 * gamma * g2
    rho = np.array(
        [
            [np.ones_like(gamma), -1j * r2 * gamma, -2.0 * g2],
            [1j * r2 * gamma, 1.0 + 2.0 * g2, -1j * off],
            [-2.0 * g2, 1j * off, 1.0 + 2.0 * g2 + 4.0 * g2 * g2],
        ],
        dtype=complex,
    )
    rho = rho / (3.0 + 4.0 * g2 + 4.0 * g2 * g2)
    return np.moveaxis(rho, (0, 1), (-2, -1))  # gamma's axes first
