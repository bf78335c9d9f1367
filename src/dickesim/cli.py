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
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analytic import closed_form_j1, steady_state_analytic
from .dynamics import ModelParams, evolve, steady_state_numeric
from .entanglement import concurrence, pair_reduced_state, triplet_to_two_qubit
from .errors import DickeSimError
from .semiclassical import bifurcation_scan, stable_branch_summary
from .settings import DEFAULT, NumericSettings
from .spin_ops import SpinQuantum, build_jz, dicke_projector


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


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
        ("j", float, REQUIRED, "spin quantum number (half-integer)"),
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
        ("j-list", str, "1,4,16,64", "comma-separated spin values (each >= 1)"),
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


def parse_grid(spec):
    """start:stop:count (linear) or log:start:stop:count (logarithmic)."""
    parts = str(spec).split(":")
    try:
        if parts[0] == "log":
            if len(parts) != 4:
                raise UsageError(f"log grid spec needs log:start:stop:count, got {spec!r}")
            start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
            if start <= 0 or stop <= 0:
                raise UsageError(f"log grid endpoints must be positive, got {spec!r}")
            if count < 1:
                raise UsageError(f"grid count must be >= 1, got {spec!r}")
            return np.logspace(np.log10(start), np.log10(stop), count)
        if len(parts) != 3:
            raise UsageError(f"grid spec needs start:stop:count, got {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise UsageError(f"grid count must be >= 1, got {spec!r}")
        return np.linspace(start, stop, count)
    except ValueError:
        raise UsageError(f"malformed grid spec {spec!r}")


def _parse_j_list(text):
    out = []
    for item in str(text).split(","):
        item = item.strip()
        if not item:
            continue
        try:
            out.append(SpinQuantum.from_j(float(item)))
        except (ValueError, DickeSimError):
            raise UsageError(f"bad j value {item!r} in j list")
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
        # executor.map preserves input order, keeping output deterministic
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    return [worker(task) for task in tasks]


# ---------------------------------------------------------------- workers

def _fig1_row(task):
    gamma, nbar, settings = task
    params = ModelParams(j=SpinQuantum(2), omega=1.0, gamma_a=gamma, nbar=nbar)
    rho = steady_state_numeric(params, settings)
    value = concurrence(triplet_to_two_qubit(rho, settings), settings)
    return (gamma, nbar, value)


def _fig2_row(task):
    gamma, settings = task
    rho = closed_form_j1(gamma)
    value = concurrence(triplet_to_two_qubit(rho, settings), settings)
    return (gamma, 1.0 / gamma, value)


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
    spin = SpinQuantum.from_j(options["j"])
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
    jz = build_jz(spin)
    trajectory = evolve(rho0, params, times, settings)
    rows = []
    for t, rho in zip(trajectory.times, trajectory.states):
        c = None
        if spin.two_j == 2:
            c = concurrence(triplet_to_two_qubit(rho, settings), settings)
        rows.append(
            (
                float(t),
                float(np.einsum("ij,ji->", rho, jz).real),
                float(rho[0, 0].real),
                float(rho[-1, -1].real),
                c,
            )
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
    tasks = [(float(g), float(n), settings) for g in gammas for n in nbars]
    rows = _map_rows(_fig1_row, tasks, options["jobs"])
    _write_rows(options, "fig1", rows)
    return 0


def _cmd_fig2(options):
    settings = _settings_from(options)
    gammas = parse_grid(options["gamma_grid"])
    if np.any(gammas <= 0):
        raise UsageError("fig2 gamma grid must be positive")
    tasks = [(float(g), settings) for g in gammas]
    rows = _map_rows(_fig2_row, tasks, options["jobs"])
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
