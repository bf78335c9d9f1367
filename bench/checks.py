"""Checks of every op's output against the oracles in oracles.py.

Each check takes the op's spec, its collected output and a References
cache, raises oracles.CheckError when the output is wrong, and otherwise
returns the errors it measured, keyed by the per-layer metric that
reports their maximum.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O
from oracles import require

RESIDUAL = "dynamics.steady_state_numeric.residual_max"
EVOLVE_ERR = "dynamics.evolve.err_max"
BIFURCATION_ERR = "semiclassical.bifurcation_scan.err"


class References:
    """Oracle results, computed once per distinct input and then reused."""

    def __init__(self):
        self._memo = {}

    def get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def parse_grid(spec):
    """The CLI's grid syntax: start:stop:count or log:start:stop:count."""
    parts = spec.split(":")
    if parts[0] == "log":
        return np.logspace(math.log10(float(parts[1])), math.log10(float(parts[2])), int(parts[3]))
    return np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))


def option(argv, name):
    return argv[argv.index(name) + 1]


def cli_text(out):
    require(out.rc == 0, f"exit code {out.rc}: {out.stderr.strip()}")
    return out.files["output"]


def check_gnuplot(out, argv):
    script = out.files.get("gnuplot", "")
    require(f'plot "{option(argv, "--output")}"' in script, "gnuplot script does not plot the CSV")


def check_inputs(rows, expected, label):
    require(rows.shape[0] == len(expected), f"{label}: {rows.shape[0]} rows, expected {len(expected)}")
    require(np.allclose(rows, expected, rtol=1e-12, atol=0.0), f"{label}: rows are not the requested grid")


def j1_concurrence(gamma_a, nbar):
    return O.pair_concurrence(O.steady_state_dense(1, 1.0, gamma_a, nbar), 1)


def check_fig1(spec, out, refs):
    argv = spec["argv"]
    rows = O.read_csv(cli_text(out), ["gamma", "nbar", "concurrence"])
    grid = [(g, n) for g in parse_grid(option(argv, "--gamma-grid")) for n in parse_grid(option(argv, "--nbar-grid"))]
    check_inputs(rows[:, :2], np.array(grid), "fig1")
    ref = refs.get(("fig1", tuple(grid)), lambda: [j1_concurrence(g, n) for g, n in grid])
    for row, c in zip(rows, ref):
        O.check_close(row[2], c, O.CONCURRENCE_TOL, f"fig1 gamma={row[0]:.17g} nbar={row[1]:.17g}")
    check_gnuplot(out, argv)
    return {}


def check_fig2(spec, out, refs):
    argv = spec["argv"]
    rows = O.read_csv(cli_text(out), ["gamma", "abs_g", "concurrence"])
    gammas = parse_grid(option(argv, "--gamma-grid"))
    check_inputs(rows[:, 0], gammas, "fig2")
    check_inputs(rows[:, 1], 1.0 / gammas, "fig2 abs_g")
    ref = refs.get(("fig2", tuple(gammas)), lambda: [j1_concurrence(g, 0.0) for g in gammas])
    for row, c in zip(rows, ref):
        O.check_close(row[2], c, O.CONCURRENCE_TOL, f"fig2 gamma={row[0]:.17g}")
    at_one = rows[np.abs(rows[:, 0] - 1.0) <= 1e-12]
    require(len(at_one) == 1, "fig2 grid has no row at gamma = 1")
    O.check_close(at_one[0, 2], O.FIG2_GAMMA1, 1e-8, "fig2 concurrence at gamma = 1")
    check_gnuplot(out, argv)
    return {}


def fig3_concurrence(j, omega_r):
    gamma = 1.0 / (j * omega_r)
    if j <= 4:
        rho = O.steady_state_dense(j, 1.0, gamma, 0.0)
    else:
        rho = O.steady_state_zero_temperature(j, gamma)
    return O.pair_concurrence(rho, j)


def check_fig3(spec, out, refs):
    argv = spec["argv"]
    rows = O.read_csv(cli_text(out), ["j", "omega_r", "pair_concurrence"])
    js = [float(v) for v in option(argv, "--j-list").split(",")]
    grid = [(j, w) for j in js for w in parse_grid(option(argv, "--omega-r-grid"))]
    check_inputs(rows[:, :2], np.array(grid), "fig3")
    ref = refs.get(("fig3", tuple(grid)), lambda: [fig3_concurrence(j, w) for j, w in grid])
    for row, c in zip(rows, ref):
        O.check_close(row[2], c, O.CONCURRENCE_TOL, f"fig3 j={row[0]:g} omega_r={row[1]:.17g}")
    check_gnuplot(out, argv)
    return {}


def check_semiclassical(spec, out, refs):
    argv = spec["argv"]
    rows = O.read_csv(cli_text(out), ["omega_r", "sz_stable", "leading_eigenvalue_real"])
    check_inputs(rows[:, 0], parse_grid(option(argv, "--omega-r-grid")), "semiclassical")
    for omega_r, sz, rate in rows:
        ref_sz, ref_rate = O.stable_branch(omega_r)
        O.check_close(sz, ref_sz, O.BRANCH_TOL, f"semiclassical sz at omega_r={omega_r:.17g}")
        O.check_close(rate, ref_rate, O.BRANCH_TOL, f"semiclassical rate at omega_r={omega_r:.17g}")
    prefix = "critical omega_r = "
    lines = [line for line in out.stdout.splitlines() if line.startswith(prefix)]
    require(len(lines) == 1, "semiclassical printed no critical drive")
    critical = float(lines[0][len(prefix):])
    err = O.check_close(critical, 1.0, O.CRITICAL_TOL, "critical omega_r")
    check_gnuplot(out, argv)
    return {BIFURCATION_ERR: err}


def check_steady_state(spec, rho, value, label):
    j = spec["j"]
    residual = O.check_steady(rho, j, spec["omega"], spec["gamma_a"], spec["nbar"], label)
    O.check_close(value, O.pair_concurrence(np.asarray(rho, dtype=complex), j), O.CONCURRENCE_TOL,
                  f"{label} pair concurrence")
    return {RESIDUAL: residual}


def check_steady(spec, out, refs):
    rho, value = out
    return check_steady_state(spec, rho, value, f"steady j={spec['j']}")


def check_steady_cli(spec, out, refs):
    rho, fields = O.read_steady_text(cli_text(out))
    j = spec["j"]
    require(rho.shape == (int(2 * j) + 1,) * 2, f"steady CLI matrix has shape {rho.shape}")
    require(fields.get("method") == "numeric", "steady CLI did not report the numeric method")
    require("pair_concurrence" in fields, "steady CLI printed no pair concurrence")
    return check_steady_state(spec, rho, float(fields["pair_concurrence"]), f"steady CLI j={j}")


def check_evolve(spec, out, refs):
    ref = refs.get(("evolve", id(spec)), lambda: O.expm_trajectory(
        spec["rho0"], spec["j"], spec["omega"], spec["gamma_a"], spec["nbar"], spec["times"]))
    return {EVOLVE_ERR: O.check_trajectory(out, ref, f"evolve j={spec['j']}")}


def check_meanfield(spec, out, refs):
    ref = refs.get(("meanfield", id(spec)), lambda: O.meanfield_reference(
        spec["s0"], spec["omega_r"], spec["taus"]))
    O.check_meanfield(out, ref, f"meanfield omega_r={spec['omega_r']!r}")
    return {}


CHECKS = {
    "fig1": check_fig1,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "semiclassical": check_semiclassical,
    "steady": check_steady,
    "steady_cli": check_steady_cli,
    "evolve": check_evolve,
    "meanfield": check_meanfield,
}


def check(op, output, refs):
    """Errors measured on one op's output; raises CheckError if it is wrong."""
    return CHECKS[op.kind](op.spec, output, refs)

