"""Command-line front end: steady states, trajectories, figure data.

Six subcommands (steady, evolve, fig1, fig2, fig3, semiclassical) share
the global flags --output, --format, --jobs, --config, --tolerance and
--gnuplot.  Scan output is CSV (or a JSON mirror of the same rows) with
frozen headers and shortest-round-trip float formatting, so identical
invocations produce byte-identical files, independent of --jobs.

Exit codes: 0 success, 1 computational or I/O failure, 2 usage error.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .analytic import closed_form_j1, steady_state_analytic
from .dynamics import ModelParams, evolve, steady_state_numeric, steady_states_numeric
from .entanglement import concurrence, pair_reduced_state, triplet_to_two_qubit
from .errors import DickeSimError
from .semiclassical import bifurcation_scan, stable_branch_summary
from .settings import DEFAULT, NumericSettings
from .spin_ops import SpinQuantum, build_jz, dicke_projector


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


# Work bounds, checked before anything is allocated.  Measured on one BLAS
# thread, a scan row takes 0.16 ms (fig2) to 5.9 ms (fig3 at j = 64), so a
# scan stays under ~2 min at j <= 64; an evolve row takes 0.17 ms at j = 1.
# A fig3 row (analytic steady state, pair state, concurrence) at j = 128
# takes 25 ms and peaks at 4.4 MB; at j = 256 0.13 s and 17 MB, at
# j = 1024 6.4 s and 269 MB.
SCAN_ROW_LIMIT = 20_000      # rows of one scan, and points of each grid
EVOLVE_STEPS_LIMIT = 100_000  # evolve --steps
J_LIST_LIMIT = 64            # entries of fig3 --j-list
J_VALUE_LIMIT = 128          # the spin value of steady --j and of each fig3 --j-list entry
# fig1 and fig2 solve, check and score contiguous blocks of at most this
# many rows as one stack each, and spread the blocks over --jobs; fig1
# peaks at ~3.9 kB per row of a block (tracemalloc: 4 MB for a block of
# 1024 rows, 78 MB for all 20 000 rows in one block)
BLOCK_ROWS = 1024


# ---------------------------------------------------------------- options

# (name, converter, default, help); required options use REQUIRED
REQUIRED = object()


def _boolean(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise UsageError(f"expected a positive integer, got {text!r}")
    return value


GLOBAL_OPTIONS = [
    ("output", str, None, "output file path (required for scan subcommands)"),
    ("format", str, "csv", "output format: csv or json"),
    ("jobs", _positive_int, 1, "worker processes for scan rows"),
    ("config", str, None, "key = value config file (flags win over it)"),
    ("tolerance", float, None, "override the working numeric tolerance"),
    ("gnuplot", _boolean, False, "also write a gnuplot script next to the CSV"),
]

SUBCOMMANDS = {
    "steady": [
        ("j", float, REQUIRED, "spin quantum number (half-integer, <= 128; numeric <= 64)"),
        ("gamma", float, None, "damping-to-drive ratio gamma_a/omega (sets omega=1)"),
        ("omega", float, None, "drive strength (alternative to --gamma)"),
        ("gamma-a", float, None, "decay rate (alternative to --gamma)"),
        ("nbar", float, 0.0, "bath occupation"),
        ("method", str, "numeric", "numeric or analytic (analytic needs nbar=0)"),
    ],
    "evolve": [
        ("j", float, REQUIRED, "spin quantum number (half-integer)"),
        ("omega", float, 0.0, "drive strength"),
        ("gamma-a", float, 0.0, "decay rate"),
        ("nbar", float, 0.0, "bath occupation"),
        ("t-max", float, REQUIRED, "final time"),
        ("steps", _positive_int, 200, "number of grid intervals (rows = steps + 1)"),
        ("initial", str, "excited", "initial state: excited or ground"),
    ],
    "fig1": [
        ("gamma-grid", str, "log:0.01:100:41", "gamma grid spec"),
        ("nbar-grid", str, "0:3:4", "nbar grid spec"),
    ],
    "fig2": [
        ("gamma-grid", str, "log:0.001:1000:121", "gamma grid spec"),
    ],
    "fig3": [
        ("j-list", str, "1,4,16,64", "comma-separated spin values (each 1 <= j <= 128)"),
        ("omega-r-grid", str, "0.05:3:60", "scaled-drive grid spec"),
    ],
    "semiclassical": [
        ("omega-r-grid", str, "0.05:2:40", "scaled-drive grid spec"),
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

def _parse_argv(argv):
    """Split argv into (subcommand, {option: raw string}) with no argparse.

    Hand-rolled so that config-file merging and the three-way precedence
    (flags > config > defaults) stay explicit and testable.
    """
    if not argv:
        raise UsageError(
            "missing subcommand; expected one of: " + ", ".join(sorted(SUBCOMMANDS))
        )
    sub = argv[0]
    if sub in ("-h", "--help"):
        return "help", {}
    if sub not in SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {sub!r}")
    known = {name for name, *_ in SUBCOMMANDS[sub] + GLOBAL_OPTIONS}
    raw = {}
    k = 1
    while k < len(argv):
        token = argv[k]
        if token in ("-h", "--help"):
            return "help", {"topic": sub}
        if not token.startswith("--"):
            raise UsageError(f"unexpected positional argument {token!r}")
        body = token[2:]
        if "=" in body:
            name, value = body.split("=", 1)
        else:
            name = body
            if name == "gnuplot":  # the only flag-style option
                value = "true"
            else:
                k += 1
                if k >= len(argv):
                    raise UsageError(f"option --{name} expects a value")
                value = argv[k]
        if name not in known:
            raise UsageError(f"unknown option --{name} for subcommand {sub!r}")
        raw[name] = value
        k += 1
    return sub, raw


def _read_config(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            values[key.strip().replace("_", "-")] = value.strip()
    return values


def _resolve(sub, raw):
    """Apply precedence flags > config > defaults and convert types."""
    table = SUBCOMMANDS[sub] + GLOBAL_OPTIONS
    known = {name for name, *_ in table}
    config = {}
    if "config" in raw:
        config = _read_config(raw.pop("config"))
        for key in config:
            if key not in known:
                raise UsageError(f"unknown config key {key!r} for subcommand {sub!r}")
    merged = {}
    for name, conv, default, _help in table:
        if name in raw:
            source = raw[name]
        elif name in config:
            source = config[name]
        else:
            if default is REQUIRED:
                raise UsageError(f"missing required option --{name}")
            merged[name.replace("-", "_")] = default
            continue
        try:
            merged[name.replace("-", "_")] = conv(source)
        except (ValueError, TypeError):
            raise UsageError(f"bad value for --{name}: {source!r}")
    return merged


def _require_count(count, limit, what):
    if count > limit:
        raise UsageError(f"{what} is {count}, over the limit of {limit}")


def parse_grid(spec):
    """start:stop:count (linear) or log:start:stop:count (logarithmic).

    count is at most SCAN_ROW_LIMIT.
    """
    parts = str(spec).split(":")
    try:
        if parts[0] == "log":
            if len(parts) != 4:
                raise UsageError(f"log grid spec needs log:start:stop:count, got {spec!r}")
            start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
            if start <= 0 or stop <= 0:
                raise UsageError(f"log grid endpoints must be positive, got {spec!r}")
        else:
            if len(parts) != 3:
                raise UsageError(f"grid spec needs start:stop:count, got {spec!r}")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"malformed grid spec {spec!r}")
    if count < 1:
        raise UsageError(f"grid count must be >= 1, got {spec!r}")
    _require_count(count, SCAN_ROW_LIMIT, f"grid count of {spec!r}")
    if parts[0] == "log":
        return np.logspace(np.log10(start), np.log10(stop), count)
    return np.linspace(start, stop, count)


def _require_spin(spin):
    if spin.j > J_VALUE_LIMIT:
        raise UsageError(f"j = {spin.j:g} is over the limit of {J_VALUE_LIMIT}")
    return spin


def _parse_j_list(text):
    items = str(text).split(",")
    _require_count(len(items), J_LIST_LIMIT, "j list length")
    out = []
    for item in items:
        item = item.strip()
        if not item:
            continue
        try:
            spin = SpinQuantum.from_j(float(item))
        except (ValueError, DickeSimError):
            raise UsageError(f"bad j value {item!r} in j list")
        out.append(_require_spin(spin))
    if not out:
        raise UsageError("j list is empty")
    return out


def _settings_from(options) -> NumericSettings:
    tol = options.get("tolerance")
    return DEFAULT if tol is None else DEFAULT.with_working_tolerance(tol)


# ---------------------------------------------------------------- output

def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _write_rows(options, sub, rows):
    header = HEADERS[sub]
    path = options.get("output")
    if path is None:
        raise UsageError(f"subcommand {sub!r} requires --output")
    fmt = options["format"]
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r} (expected csv or json)")
    if fmt == "csv":
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
        if fmt != "csv":
            raise UsageError("--gnuplot requires --format csv")
        script = (
            'set datafile separator ","\n'
            "set key autotitle columnhead\n"
            f'plot "{path}" using 1:{len(header)} with lines\n'
        )
        with open(path + ".gp", "w", encoding="utf-8", newline="") as fh:
            fh.write(script)


def _map_rows(worker, tasks, jobs):
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # executor.map preserves input order, keeping output deterministic
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
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


def _semiclassical_row(task):
    (omega_r,) = task
    sz, rate = stable_branch_summary(omega_r)
    return (omega_r, sz, rate)


# ------------------------------------------------------------- subcommands

def _cmd_steady(options):
    settings = _settings_from(options)
    spin = _require_spin(SpinQuantum.from_j(options["j"]))
    method = options["method"]
    if method not in ("numeric", "analytic"):
        raise UsageError(f"unknown method {options['method']!r}")

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
        lines += ["  " + " ".join(_fmt(v) for v in row) for row in rho.real]
        lines.append("matrix imaginary part:")
        lines += ["  " + " ".join(_fmt(v) for v in row) for row in rho.imag]
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
    _require_count(options["steps"], EVOLVE_STEPS_LIMIT, "--steps")
    settings = _settings_from(options)
    spin = SpinQuantum.from_j(options["j"])
    params = ModelParams(
        j=spin, omega=options["omega"], gamma_a=options["gamma_a"], nbar=options["nbar"]
    )
    if options["t_max"] <= 0:
        raise UsageError("--t-max must be positive")
    if options["initial"] not in ("excited", "ground"):
        raise UsageError(f"unknown initial state {options['initial']!r}")
    rho0 = dicke_projector(spin, spin.j if options["initial"] == "excited" else -spin.j)
    times = np.linspace(0.0, options["t_max"], options["steps"] + 1)
    trajectory = evolve(rho0, params, times, settings)
    states = np.asarray(trajectory.states)
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
    settings = _settings_from(options)
    gammas = parse_grid(options["gamma_grid"])
    nbars = parse_grid(options["nbar_grid"])
    if np.any(gammas <= 0):
        raise UsageError("fig1 gamma grid must be positive")
    if np.any(nbars < 0):
        raise UsageError("fig1 nbar grid must be >= 0")
    _require_count(len(gammas) * len(nbars), SCAN_ROW_LIMIT, "fig1 row count")
    columns = (np.repeat(gammas, len(nbars)), np.tile(nbars, len(gammas)))
    rows = _map_blocks(_fig1_block, columns, settings, options["jobs"])
    _write_rows(options, "fig1", rows)
    return 0


def _cmd_fig2(options):
    settings = _settings_from(options)
    gammas = parse_grid(options["gamma_grid"])
    if np.any(gammas <= 0):
        raise UsageError("fig2 gamma grid must be positive")
    rows = _map_blocks(_fig2_block, (gammas,), settings, options["jobs"])
    _write_rows(options, "fig2", rows)
    return 0


def _cmd_fig3(options):
    settings = _settings_from(options)
    spins = _parse_j_list(options["j_list"])
    for spin in spins:
        if spin.two_j < 2:
            raise UsageError(f"fig3 needs j >= 1 for pair reduction, got {spin.j}")
    omega_rs = parse_grid(options["omega_r_grid"])
    if np.any(omega_rs <= 0):
        raise UsageError("fig3 omega_r grid must be positive")
    _require_count(len(spins) * len(omega_rs), SCAN_ROW_LIMIT, "fig3 row count")
    tasks = [(s.two_j, float(w), settings) for s in spins for w in omega_rs]
    rows = _map_rows(_fig3_row, tasks, options["jobs"])
    _write_rows(options, "fig3", rows)
    return 0


def _cmd_semiclassical(options):
    settings = _settings_from(options)
    omega_rs = parse_grid(options["omega_r_grid"])
    if np.any(omega_rs < 0):
        raise UsageError("semiclassical omega_r grid must be >= 0")
    tasks = [(float(w),) for w in omega_rs]
    rows = _map_rows(_semiclassical_row, tasks, options["jobs"])
    critical = bifurcation_scan(omega_rs, settings)  # raises if grid misses it
    _write_rows(options, "semiclassical", rows)
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


def _print_help(topic=None):
    if topic in SUBCOMMANDS:
        sys.stdout.write(f"usage: dickesim {topic} [options]\n\noptions:\n")
        for name, _conv, default, help_text in SUBCOMMANDS[topic] + GLOBAL_OPTIONS:
            suffix = " (required)" if default is REQUIRED else f" (default: {default})"
            sys.stdout.write(f"  --{name:<16} {help_text}{suffix}\n")
        return
    sys.stdout.write(
        "usage: dickesim SUBCOMMAND [options]\n\n"
        "subcommands:\n"
        "  steady         stationary state for one parameter set\n"
        "  evolve         master-equation trajectory to CSV/JSON\n"
        "  fig1           concurrence vs gamma and nbar (numeric path)\n"
        "  fig2           zero-temperature concurrence vs gamma (closed form)\n"
        "  fig3           pair concurrence vs scaled drive for several j\n"
        "  semiclassical  mean-field branch data and the critical drive\n\n"
        "global options: --output PATH, --format csv|json, --jobs N,\n"
        "                --config PATH, --tolerance X, --gnuplot\n"
        "run 'dickesim SUBCOMMAND --help' for per-subcommand options\n"
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        sub, raw = _parse_argv(list(argv))
        if sub == "help":
            _print_help(raw.get("topic"))
            return 0
        options = _resolve(sub, raw)
        return DISPATCH[sub](options)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except DickeSimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
