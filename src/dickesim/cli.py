"""Command-line front end: steady states, trajectories, figure data.

Six subcommands (steady, evolve, fig1, fig2, fig3, semiclassical) share
the global flags --output, --format, --jobs, --config, --tolerance and
--gnuplot.  One argparse parser reads them (flags > --config file >
defaults); each option's converter is the one check on its value, from
a flag or a config file alike.  Scan output is CSV (or a JSON mirror of
the same rows) with frozen headers and shortest-round-trip float
formatting, so identical invocations produce byte-identical files,
independent of --jobs.

Exit codes: 0 success, 1 computational or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .analytic import closed_form_j1, steady_state_analytic
from .dynamics import ModelParams, evolve, steady_state_numeric, steady_states_numeric
from .entanglement import concurrence, pair_reduced_state, triplet_to_two_qubit
from .errors import DickeSimError
from .semiclassical import bifurcation_scan, stable_branch_summary
from .settings import DEFAULT
from .spin_ops import SpinQuantum, build_jz, dicke_projector


class UsageError(argparse.ArgumentTypeError):
    """Bad arguments or config (exit code 2); argparse names the option it came from."""


# Work bounds, checked before anything is allocated.  Measured on one BLAS
# thread, a scan row takes 0.16 ms (fig2) to 5.9 ms (fig3 at j = 64), so a
# scan stays under ~2 min at j <= 64; an evolve row takes 0.17 ms at j = 1.
# A fig3 row (analytic steady state, pair state, concurrence) at j = 128
# takes 25 ms and peaks at 4.4 MB; at j = 256 0.13 s and 17 MB, at
# j = 1024 6.4 s and 269 MB.
SCAN_ROW_LIMIT = 20_000      # rows of one scan, and points of each grid
EVOLVE_STEPS_LIMIT = 100_000  # evolve --steps
J_LIST_LIMIT = 64            # entries of fig3 --j-list
J_VALUE_LIMIT = 128          # the spin value of --j and of each fig3 --j-list entry
# --jobs: under the fork start method ProcessPoolExecutor starts all of
# its workers at once, so an unbounded --jobs would fork that many processes
JOBS_LIMIT = 64
# fig1 and fig2 solve, check and score contiguous blocks of at most this
# many rows as one stack each, and spread the blocks over --jobs; fig1
# peaks at ~3.9 kB per row of a block (tracemalloc: 4 MB for a block of
# 1024 rows, 78 MB for all 20 000 rows in one block)
BLOCK_ROWS = 1024


# ---------------------------------------------------------------- converters

def _require_count(count, limit, what):
    if count > limit:
        raise UsageError(f"{what} is {count}, over the limit of {limit}")


def _boolean(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _count_to(limit):
    """A converter to an integer from 1 to limit."""

    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"expected a positive integer, got {text!r}") from None
        if value < 1:
            raise UsageError(f"expected a positive integer, got {text!r}")
        _require_count(value, limit, "the count")
        return value

    return convert


def _finite(text):
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {text!r}")
    return value


def _positive(text):
    value = _finite(text)
    if value <= 0:
        raise UsageError(f"expected a positive number, got {text!r}")
    return value


def _nonnegative(text):
    value = _finite(text)
    if value < 0:
        raise UsageError(f"expected a number >= 0, got {text!r}")
    return value


def _one_of(*choices):
    def convert(text):
        if text not in choices:
            raise UsageError(f"expected {' or '.join(choices)}, got {text!r}")
        return text

    return convert


def _spin(text):
    """A half-integer j up to J_VALUE_LIMIT, as a SpinQuantum."""
    try:
        spin = SpinQuantum.from_j(text)
    except (ValueError, DickeSimError):
        raise UsageError(f"expected a non-negative half-integer j, got {text!r}") from None
    if spin.j > J_VALUE_LIMIT:
        raise UsageError(f"j = {spin.j:g} is over the limit of {J_VALUE_LIMIT}")
    return spin


def _pair_spins(text):
    """fig3's comma-separated j values, each at least 1 for the pair reduction."""
    items = str(text).split(",")
    _require_count(len(items), J_LIST_LIMIT, "j list length")
    spins = [_spin(item) for item in items if item.strip()]
    if not spins or min(spins).two_j < 2:
        raise UsageError(f"pair reduction needs a list of j >= 1, got {text!r}")
    return spins


def parse_grid(spec):
    """start:stop:count (linear) or log:start:stop:count (logarithmic).

    The endpoints are finite and count is at most SCAN_ROW_LIMIT.
    """
    parts = str(spec).split(":")
    log = parts[0] == "log"
    if len(parts) != 3 + log:
        form = "log:start:stop:count" if log else "start:stop:count"
        raise UsageError(f"grid spec needs {form}, got {spec!r}")
    try:
        start, stop, count = float(parts[-3]), float(parts[-2]), int(parts[-1])
    except ValueError:
        raise UsageError(f"malformed grid spec {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid endpoints must be finite, got {spec!r}")
    if log and (start <= 0 or stop <= 0):
        raise UsageError(f"log grid endpoints must be positive, got {spec!r}")
    if count < 1:
        raise UsageError(f"grid count must be >= 1, got {spec!r}")
    _require_count(count, SCAN_ROW_LIMIT, f"grid count of {spec!r}")
    if log:
        return np.logspace(np.log10(start), np.log10(stop), count)
    return np.linspace(start, stop, count)


def _positive_grid(spec):
    grid = parse_grid(spec)
    if grid.min() <= 0:
        raise UsageError(f"grid {spec!r} must be positive")
    return grid


def _nonnegative_grid(spec):
    grid = parse_grid(spec)
    if grid.min() < 0:
        raise UsageError(f"grid {spec!r} must be >= 0")
    return grid


# ---------------------------------------------------------------- options

# (name, converter, default, help); required options use REQUIRED
REQUIRED = object()

GLOBAL_OPTIONS = [
    ("output", str, None, "output file path (required for scan subcommands)"),
    ("format", _one_of("csv", "json"), "csv", "output format: csv or json"),
    ("jobs", _count_to(JOBS_LIMIT), 1, "worker processes for scan rows"),
    ("config", str, None, "key = value config file (flags win over it)"),
    ("tolerance", _positive, None, "override the working numeric tolerance"),
    ("gnuplot", _boolean, False, "also write a gnuplot script next to the CSV"),
]

SUBCOMMANDS = {
    "steady": [
        ("j", _spin, REQUIRED, "spin quantum number (half-integer, <= 128)"),
        ("gamma", _nonnegative, None, "damping-to-drive ratio gamma_a/omega (sets omega=1)"),
        ("omega", _nonnegative, None, "drive strength (alternative to --gamma)"),
        ("gamma-a", _nonnegative, None, "decay rate (alternative to --gamma)"),
        ("nbar", _nonnegative, 0.0, "bath occupation"),
        ("method", _one_of("numeric", "analytic"), "numeric",
         "numeric or analytic (analytic needs nbar=0)"),
    ],
    "evolve": [
        ("j", _spin, REQUIRED, "spin quantum number (half-integer, <= 128; evolve runs j <= 16)"),
        ("omega", _nonnegative, 0.0, "drive strength"),
        ("gamma-a", _nonnegative, 0.0, "decay rate"),
        ("nbar", _nonnegative, 0.0, "bath occupation"),
        ("t-max", _positive, REQUIRED, "final time"),
        ("steps", _count_to(EVOLVE_STEPS_LIMIT), 200, "number of grid intervals (rows = steps + 1)"),
        ("initial", _one_of("excited", "ground"), "excited", "initial state: excited or ground"),
    ],
    "fig1": [
        ("gamma-grid", _positive_grid, "log:0.01:100:41", "gamma grid spec"),
        ("nbar-grid", _nonnegative_grid, "0:3:4", "nbar grid spec"),
    ],
    "fig2": [
        ("gamma-grid", _positive_grid, "log:0.001:1000:121", "gamma grid spec"),
    ],
    "fig3": [
        ("j-list", _pair_spins, "1,4,16,64", "comma-separated spin values (each 1 <= j <= 128)"),
        ("omega-r-grid", _positive_grid, "0.05:3:60", "scaled-drive grid spec"),
    ],
    "semiclassical": [
        ("omega-r-grid", _nonnegative_grid, "0.05:2:40", "scaled-drive grid spec"),
    ],
}

HEADERS = {
    "fig1": ["gamma", "nbar", "concurrence"],
    "fig2": ["gamma", "abs_g", "concurrence"],
    "fig3": ["j", "omega_r", "pair_concurrence"],
    "semiclassical": ["omega_r", "sz_stable", "leading_eigenvalue_real"],
    "evolve": ["t", "jz_expect", "p_top", "p_bottom", "concurrence_if_j1"],
}


# ---------------------------------------------------------------- parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser(config_sub=None, config=None):
    """The front end; config ({dest: raw string}) replaces config_sub's defaults.

    argparse runs string defaults through the converters, so config
    values get the same checks as flags.
    """
    parser = _Parser(prog="dickesim", allow_abbrev=False,
                     epilog="run 'dickesim SUBCOMMAND --help' for its options")
    subparsers = parser.add_subparsers(
        dest="subcommand", required=True, title="subcommands", metavar="SUBCOMMAND"
    )
    for sub, command in DISPATCH.items():
        sub_parser = subparsers.add_parser(
            sub, help=command.__doc__, description=command.__doc__, allow_abbrev=False
        )
        for name, convert, default, text in SUBCOMMANDS[sub] + GLOBAL_OPTIONS:
            text += " (required)" if default is REQUIRED else f" (default: {default})"
            # --gnuplot alone means yes; --gnuplot=no and gnuplot = no mean no
            flag = {"nargs": "?", "const": True} if convert is _boolean else {}
            sub_parser.add_argument(
                f"--{name}", type=convert, default=None if default is REQUIRED else default,
                help=text, **flag,
            )
        if sub == config_sub:
            sub_parser.set_defaults(**config)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser without a config file, built once per process (~1.7 ms a build)."""
    return _build_parser()


def _read_config(path, sub):
    """A key = value file, # starting a comment, as {option dest: raw string}."""
    known = {name for name, *_ in SUBCOMMANDS[sub] + GLOBAL_OPTIONS}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            key = key.strip().replace("_", "-")
            if key not in known:
                raise UsageError(f"unknown config key {key!r} for subcommand {sub!r}")
            values[key.replace("-", "_")] = value.strip()
    return values


def _parse(argv):
    """(subcommand, options): flags > config file > table defaults."""
    options = vars(_parser().parse_args(argv))
    sub = options.pop("subcommand")
    if options["config"] is not None:
        # a fresh parser, so that no later call sees this file's values
        config = _read_config(options["config"], sub)
        options = vars(_build_parser(sub, config).parse_args(argv))
        del options["subcommand"]
    for name, _convert, default, _help in SUBCOMMANDS[sub]:
        if default is REQUIRED and options[name.replace("-", "_")] is None:
            raise UsageError(f"missing required option --{name}")
    if sub in HEADERS:  # the subcommands that write rows
        if options["output"] is None:
            raise UsageError(f"subcommand {sub!r} requires --output")
        if options["gnuplot"] and options["format"] != "csv":
            raise UsageError("--gnuplot requires --format csv")
    tol = options.pop("tolerance")
    options["settings"] = DEFAULT if tol is None else DEFAULT.with_working_tolerance(tol)
    return sub, options


# ---------------------------------------------------------------- output

def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _write_rows(options, sub, rows):
    header = HEADERS[sub]
    path = options["output"]
    if options["format"] == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = [
            {key: (None if v is None else float(v)) for key, v in zip(header, row)}
            for row in rows
        ]
        text = json.dumps(payload, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    if options["gnuplot"]:
        script = (
            'set datafile separator ","\n'
            "set key autotitle columnhead\n"
            f'plot "{path}" using 1:{len(header)} with lines\n'
        )
        with open(path + ".gp", "w", encoding="utf-8", newline="") as fh:
            fh.write(script)


def _map_rows(worker, tasks, jobs):
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # at most one worker per task, as the executor forks all of them at
        # once; executor.map preserves input order, keeping output deterministic
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    return [worker(task) for task in tasks]


def _map_blocks(worker, columns, settings, jobs):
    """Rows from worker((*column blocks, settings)) over contiguous row blocks.

    Blocks hold at most BLOCK_ROWS rows, and there are at least jobs of
    them when the rows allow.  Every row is computed on its own, so the
    rows do not depend on the blocking, nor on jobs.
    """
    count = len(columns[0])
    size = max(1, min(BLOCK_ROWS, -(-count // jobs)))
    tasks = [
        tuple(c[start:start + size] for c in columns) + (settings,)
        for start in range(0, count, size)
    ]
    return [row for block in _map_rows(worker, tasks, jobs) for row in block]


# ---------------------------------------------------------------- workers

def _fig1_block(task):
    gammas, nbars, settings = task
    rho = steady_states_numeric(SpinQuantum(2), 1.0, gammas, nbars, settings)
    values = concurrence(triplet_to_two_qubit(rho, settings), settings)
    return list(zip(gammas.tolist(), nbars.tolist(), values.tolist()))


def _fig2_block(task):
    gammas, settings = task
    values = concurrence(triplet_to_two_qubit(closed_form_j1(gammas), settings), settings)
    return list(zip(gammas.tolist(), (1.0 / gammas).tolist(), values.tolist()))


def _fig3_row(task):
    two_j, omega_r, settings = task
    spin = SpinQuantum(two_j)
    gamma = 1.0 / (spin.j * omega_r)
    rho = steady_state_analytic(spin, gamma)
    value = concurrence(pair_reduced_state(rho, spin, settings), settings)
    return (spin.j, omega_r, value)


# ------------------------------------------------------------- subcommands

def _cmd_steady(options):
    """Stationary state for one parameter set."""
    settings = options["settings"]
    spin, method = options["j"], options["method"]

    if options["gamma"] is not None:
        if options["omega"] is not None or options["gamma_a"] is not None:
            raise UsageError("give either --gamma or --omega/--gamma-a, not both")
        omega, gamma_a = 1.0, options["gamma"]
    elif options["omega"] is not None and options["gamma_a"] is not None:
        omega, gamma_a = options["omega"], options["gamma_a"]
    else:
        raise UsageError("steady needs --gamma or both --omega and --gamma-a")

    if method == "analytic":
        if options["nbar"] != 0.0:
            raise UsageError("analytic method requires nbar = 0")
        if omega <= 0:
            raise UsageError("analytic method needs omega > 0 to form gamma_a/omega")
        rho = steady_state_analytic(spin, gamma_a / omega)
    else:
        params = ModelParams(j=spin, omega=omega, gamma_a=gamma_a, nbar=options["nbar"])
        rho = steady_state_numeric(params, settings)

    label = value = None
    if spin.two_j == 2:
        label = "concurrence"
        value = concurrence(triplet_to_two_qubit(rho, settings), settings)
    elif spin.two_j > 2:
        label = "pair_concurrence"
        value = concurrence(pair_reduced_state(rho, spin, settings), settings)

    if options["format"] == "json":
        payload = {
            "j": spin.j,
            "method": method,
            "omega": omega,
            "gamma_a": gamma_a,
            "nbar": options["nbar"],
            "matrix_re": rho.real.tolist(),
            "matrix_im": rho.imag.tolist(),
        }
        if label is not None:
            payload[label] = value
        text = json.dumps(payload, indent=1) + "\n"
    else:
        lines = [
            f"j = {_fmt(spin.j)}",
            f"method = {method}",
            f"omega = {_fmt(omega)}",
            f"gamma_a = {_fmt(gamma_a)}",
            f"nbar = {_fmt(options['nbar'])}",
            "matrix real part:",
        ]
        # repr of the rows' Python floats is _fmt's text, without a call per entry
        lines += ["  " + " ".join(map(repr, row)) for row in rho.real.tolist()]
        lines.append("matrix imaginary part:")
        lines += ["  " + " ".join(map(repr, row)) for row in rho.imag.tolist()]
        if label is not None:
            lines.append(f"{label} = {_fmt(value)}")
        text = "\n".join(lines) + "\n"

    if options["output"]:
        with open(options["output"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_evolve(options):
    """Master-equation trajectory to CSV/JSON."""
    settings = options["settings"]
    spin = options["j"]
    params = ModelParams(
        j=spin, omega=options["omega"], gamma_a=options["gamma_a"], nbar=options["nbar"]
    )
    rho0 = dicke_projector(spin, spin.j if options["initial"] == "excited" else -spin.j)
    times = np.linspace(0.0, options["t_max"], options["steps"] + 1)
    trajectory = evolve(rho0, params, times, settings)
    states = trajectory.states
    jz_expect = np.einsum("tij,ji->t", states, build_jz(spin)).real
    if spin.two_j == 2:
        c = concurrence(triplet_to_two_qubit(states, settings), settings).tolist()
    else:
        c = [None] * len(states)
    rows = zip(
        trajectory.times.tolist(), jz_expect.tolist(),
        states[:, 0, 0].real.tolist(), states[:, -1, -1].real.tolist(), c,
    )
    _write_rows(options, "evolve", rows)
    return 0


def _cmd_fig1(options):
    """Two-ion concurrence vs gamma and nbar (numeric path)."""
    gammas, nbars = options["gamma_grid"], options["nbar_grid"]
    _require_count(len(gammas) * len(nbars), SCAN_ROW_LIMIT, "fig1 row count")
    columns = (np.repeat(gammas, len(nbars)), np.tile(nbars, len(gammas)))
    rows = _map_blocks(_fig1_block, columns, options["settings"], options["jobs"])
    _write_rows(options, "fig1", rows)
    return 0


def _cmd_fig2(options):
    """Zero-temperature two-ion concurrence vs gamma (closed form)."""
    gammas = options["gamma_grid"]
    rows = _map_blocks(_fig2_block, (gammas,), options["settings"], options["jobs"])
    _write_rows(options, "fig2", rows)
    return 0


def _cmd_fig3(options):
    """Pair concurrence vs scaled drive for several j."""
    settings = options["settings"]
    spins, omega_rs = options["j_list"], options["omega_r_grid"]
    _require_count(len(spins) * len(omega_rs), SCAN_ROW_LIMIT, "fig3 row count")
    tasks = [(s.two_j, float(w), settings) for s in spins for w in omega_rs]
    rows = _map_rows(_fig3_row, tasks, options["jobs"])
    _write_rows(options, "fig3", rows)
    return 0


def _cmd_semiclassical(options):
    """Mean-field branch data and the critical drive."""
    omega_rs = options["omega_r_grid"]
    sz, rate = stable_branch_summary(omega_rs)
    critical = bifurcation_scan(omega_rs, options["settings"])  # raises if grid misses it
    _write_rows(options, "semiclassical", zip(omega_rs.tolist(), sz.tolist(), rate.tolist()))
    sys.stdout.write(f"critical omega_r = {critical:.6f}\n")
    return 0


DISPATCH = {
    "steady": _cmd_steady,
    "evolve": _cmd_evolve,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "semiclassical": _cmd_semiclassical,
}


def main(argv=None) -> int:
    try:
        sub, options = _parse(sys.argv[1:] if argv is None else list(argv))
        return DISPATCH[sub](options)
    except SystemExit:  # argparse exits only after printing --help; errors raise
        return 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except DickeSimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory; try a smaller j or grid\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
