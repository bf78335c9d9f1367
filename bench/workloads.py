"""The benchmark's workloads: the requests each one times, and their inputs.

Every workload times the same nine requests, one per end-to-end metric,
so that every metric is measured on every workload.  Each request runs
at full size on the workload that owns it (the figure requests on
`figures`, the steady-state requests on `steady_finite_T`, the
integrators on `trajectories`) and at a small fixed "probe" size on the
other two.  On the owner the request stresses its layers; elsewhere the
same calls are small and their time is mostly per-call overhead, which
is where a change that helps big sizes but adds set-up cost to every
call shows up.  NOTES.md has the full table.

Only public dickesim functions are called, and always through the
module attribute at call time (``ds.evolve``, ``ds.cli.main``), so that
the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import dickesim as ds
import dickesim.cli

# Sizes: "full" on the workload that owns a request, "probe" on the
# others, "tiny" in the self-tests.  The full figure arguments are those
# of scripts/reproduce_figures.py, copied so that the benchmark keeps its
# meaning if the script changes.
FIGURES = {
    "full": {
        "fig1": ["--gamma-grid", "log:0.01:100:41", "--nbar-grid", "0:3:4"],
        "fig2": ["--gamma-grid", "log:0.001:1000:121"],
        "fig3": ["--j-list", "1,4,16,64", "--omega-r-grid", "0.05:3:119"],
        "semiclassical": ["--omega-r-grid", "0.05:2:40"],
    },
    "probe": {
        "fig1": ["--gamma-grid", "log:0.01:100:11", "--nbar-grid", "0:3:4"],
        "fig2": ["--gamma-grid", "log:0.001:1000:31"],
        "fig3": ["--j-list", "1,4,16,64", "--omega-r-grid", "0.05:3:11"],
        "semiclassical": ["--omega-r-grid", "0.05:2:40"],
    },
    "tiny": {
        "fig1": ["--gamma-grid", "log:0.01:100:5", "--nbar-grid", "0:3:2"],
        "fig2": ["--gamma-grid", "log:0.001:1000:7"],
        "fig3": ["--j-list", "1,4", "--omega-r-grid", "0.05:3:5"],
        "semiclassical": ["--omega-r-grid", "0.05:2:40"],
    },
}
# Full-size figure requests shorter than fig3 run several times per
# iteration, so that their medians rest on enough samples.
FIGURE_REPEAT = {"fig1": 2, "fig2": 5, "fig3": 1, "semiclassical": 5}

# Trajectory parameters.  nbar = 0.5 puts the RK4 step-halving error of
# the converged sweep a factor of 2 or more away from the tolerance on
# both sides, so the seeded initial states never change the sweep count.
OMEGA = 1.0
EVOLVE_GAMMA_A = 1.0
EVOLVE_NBAR = 0.5
STEADY_CLI_NBAR = 0.3
PROBE_GAMMA_A = 0.8


def uniform_grid(t_max, points):
    return np.linspace(0.0, t_max, points)


def log_grid(t_max, points):
    """0 followed by points - 1 log-spaced times from 0.01 to t_max: every step differs."""
    return np.concatenate(([0.0], np.logspace(-2.0, math.log10(t_max), points - 1)))


# ---------------------------------------------------------------- outputs

@dataclass
class CliOutput:
    """What one CLI request produced: exit code, streams, written files."""

    rc: int
    stdout: str
    stderr: str
    files: dict

    @property
    def nbytes(self):
        return len(self.stdout.encode()) + sum(len(t.encode()) for t in self.files.values())


@dataclass(frozen=True)
class Op:
    """One call into dickesim.

    ``run`` is the timed part.  ``collect`` turns its return value into the
    output that is kept and checked, outside the timed region.  ``kind``
    selects the check in checks.py; ``spec`` holds the inputs the check
    needs.
    """

    kind: str
    run: Callable[[], Any]
    spec: dict
    collect: Callable[[Any], Any] = lambda raw: raw


@dataclass(frozen=True)
class Request:
    """Ops timed together as one sample of ``metric``.

    An owned request runs at full size, ``repeat`` times in a row per
    iteration; a probe runs once after each owned request (run.py).
    """

    metric: str
    ops: tuple
    owned: bool
    repeat: int = 1


def cli_op(kind, argv, outdir, spec):
    """A `dickesim.cli.main` request writing its output under outdir."""
    path = Path(outdir) / f"{kind}.out"
    argv = list(argv) + ["--output", str(path), "--jobs", "1"]
    gnuplot = "--gnuplot" in argv

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ds.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def collect(raw):
        rc, stdout, stderr = raw
        files = {}
        if rc == 0:
            files["output"] = path.read_text(encoding="utf-8")
            if gnuplot:
                files["gnuplot"] = Path(str(path) + ".gp").read_text(encoding="utf-8")
        return CliOutput(rc, stdout, stderr, files)

    return Op(kind, run, dict(spec, argv=argv), collect)


# ---------------------------------------------------------------- requests

def figure_requests(outdir, size, owned):
    out = []
    for name, args in FIGURES[size].items():
        argv = [name] + args + ["--gnuplot"]
        repeat = FIGURE_REPEAT[name] if size == "full" else 1
        out.append(Request(f"{name}_s", (cli_op(name, argv, outdir, {}),), owned, repeat))
    return out


def steady_point_op(j, gamma_a, nbar):
    spec = {"j": j, "omega": OMEGA, "gamma_a": gamma_a, "nbar": nbar}

    def run():
        rho = ds.steady_state_numeric(ds.ModelParams(j=j, omega=OMEGA, gamma_a=gamma_a, nbar=nbar))
        return rho, ds.concurrence(ds.pair_reduced_state(rho, j))

    return Op("steady", run, spec)


def steady_requests(rng, outdir, size, owned):
    """Dense finite-temperature solves plus one `steady` CLI request."""
    if size == "full":
        points = [
            (j, float(rng.uniform(0.4, 1.2)), float(rng.uniform(0.05, 0.4)))
            for j in (4, 8, 12, 16)
            for _ in range(2)
        ]
        cli_j, cli_gamma_a = 16, float(rng.uniform(0.4, 1.2))
    else:
        points = [(4, PROBE_GAMMA_A, STEADY_CLI_NBAR), (8, PROBE_GAMMA_A, STEADY_CLI_NBAR)]
        cli_j, cli_gamma_a = 8, PROBE_GAMMA_A
    scan = tuple(steady_point_op(*p) for p in points)
    argv = ["steady", "--j", str(cli_j), "--omega", repr(OMEGA), "--gamma-a", repr(cli_gamma_a),
            "--nbar", repr(STEADY_CLI_NBAR)]
    spec = {"j": cli_j, "omega": OMEGA, "gamma_a": cli_gamma_a, "nbar": STEADY_CLI_NBAR}
    return [
        Request("steady_scan_s", scan, owned),
        Request("steady_j16_cli_s", (cli_op("steady_cli", argv, outdir, spec),), owned),
    ]


def initial_state(rng, j):
    """The top Dicke level, mixed with a random state of weight 2-10 % when seeded."""
    d = int(round(2 * j)) + 1
    top = np.zeros((d, d), dtype=complex)
    top[0, 0] = 1.0
    if rng is None:
        return top
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mixed = g @ g.conj().T
    mixed /= np.trace(mixed).real
    eps = rng.uniform(0.02, 0.1)
    rho = (1.0 - eps) * top + eps * mixed
    return 0.5 * (rho + rho.conj().T)


def evolve_op(rho0, j, times):
    spec = {"rho0": rho0, "j": j, "omega": OMEGA, "gamma_a": EVOLVE_GAMMA_A, "nbar": EVOLVE_NBAR,
            "times": times}

    def run():
        params = ds.ModelParams(j=j, omega=OMEGA, gamma_a=EVOLVE_GAMMA_A, nbar=EVOLVE_NBAR)
        return ds.evolve(rho0, params, times).states

    return Op("evolve", run, spec)


def meanfield_op(s0, omega_r, taus):
    def run():
        return ds.integrate_meanfield(s0, omega_r, taus)

    return Op("meanfield", run, {"s0": s0, "omega_r": omega_r, "taus": taus})


def trajectory_requests(rng, size, owned):
    """RK4 master-equation runs on a uniform and a log-spaced grid, and the mean-field flow."""
    if size == "full":
        uniform = evolve_op(initial_state(rng, 1), 1, uniform_grid(10.0, 101))
        logt = evolve_op(initial_state(rng, 4), 4, log_grid(2.5, 26))
        theta, phi = rng.uniform(0.05, 0.3), rng.uniform(0.0, 2.0 * math.pi)
        s0 = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
        drives = (float(rng.uniform(0.4, 0.8)), float(rng.uniform(1.2, 1.6)))
        taus = uniform_grid(10.0, 21)
    else:
        uniform = evolve_op(initial_state(None, 1), 1, uniform_grid(0.5, 6))
        logt = evolve_op(initial_state(None, 4), 4, log_grid(0.1, 5))
        s0 = np.array([math.sin(0.2), 0.0, math.cos(0.2)])
        drives = (0.6, 1.4)
        taus = uniform_grid(2.0, 5)
    return [
        Request("evolve_uniform_s", (uniform,), owned),
        Request("evolve_logt_s", (logt,), owned),
        Request("meanfield_s", tuple(meanfield_op(s0, w, taus) for w in drives), owned),
    ]


def build(workload, seed, outdir, tiny=False):
    """The requests of one workload, one per request metric of run.py, in its order.

    Each request runs at full size on the workload that owns it and at
    probe size on the others; only steady_finite_T and trajectories draw
    from the seed, and only for their full-size requests.  ``tiny``
    shrinks every request to its smallest size, for the self-tests.
    """
    rng = np.random.default_rng(seed)

    def size(owner):
        return "tiny" if tiny else ("full" if workload == owner else "probe")

    out = figure_requests(outdir, size("figures"), workload == "figures")
    out += steady_requests(rng, outdir, size("steady_finite_T"), workload == "steady_finite_T")
    out += trajectory_requests(rng, size("trajectories"), workload == "trajectories")
    return out
