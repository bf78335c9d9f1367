"""Shared numeric tolerances for the solvers.

Every operation that needs a threshold reads it from a NumericSettings
record, so one object tightens or loosens the whole pipeline.  The
defaults are chosen so that double precision leaves at least two orders
of magnitude of headroom on each check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericSettings:
    hermiticity_tol: float = 1e-10    # max entrywise |A - A^dag| accepted on input
    trace_tol: float = 1e-10          # |tr(rho) - 1| accepted for density matrices
    density_eig_floor: float = -1e-9  # most negative state eigenvalue accepted
    null_rtol: float = 1e-9           # ||A x|| <= null_rtol * ||A||_F for null vectors
    null_gap_rtol: float = 1e-8       # 1 / kappa_1(bordered matrix) below this means degenerate;
                                      # kappa_1 is exact on the dense route, estimated on SuperLU
    bifurcation_tol: float = 1e-6     # bisection bracket width for the critical drive

    def with_working_tolerance(self, tol: float) -> "NumericSettings":
        """Settings with the null-space residual bound replaced by ``tol``.

        Sets only ``null_rtol``, the one knob a caller would mean by
        "work to this accuracy".  Time evolution is exact propagation
        and has no accuracy knob.  Validation thresholds stay put.
        """
        tol = float(tol)
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        return replace(self, null_rtol=tol)


DEFAULT = NumericSettings()
