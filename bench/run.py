#!/usr/bin/env python3
"""The dickesim benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload figures --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a dickesim checkout; it imports the package
from the checkout's src/ and exits with code 2 if there is none.  The
workloads, their requests and why they were chosen are in workloads.py
and NOTES.md.

One run, in a single process at --jobs 1 with BLAS pinned to
BLAS_THREADS threads:

1. times SETUP_REPEATS fresh interpreters running warmup.py (`setup_s`);
2. warms up in-process, then repeats one iteration (see schedule(): each
   request the workload owns, each followed by one pass over the probes)
   until a further iteration would pass --seconds, and at least
   MIN_ITERATIONS times.  Each execution of a request is one sample of
   its metric.  With --trace 1, untraced and traced iterations alternate,
   and the traced ones give the per-layer metrics;
3. reads the peak resident memory, then checks every output of every
   iteration against the oracles (checks.py) and counts the ops that
   raised or failed a check;
4. writes bench/results/BENCH_<workload>_seed<seed>_trace<t>.json (and
   the spans, when traced), prints each metric by name and unit, and
   prints as its last line one JSON object with the keys correct,
   attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("figures", "steady_finite_T", "trajectories")
BLAS_THREADS = 1  # the plain single-threaded baseline, so never above nproc
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_ITERATIONS = 3

REQUEST_METRICS = (
    "fig1_s", "fig2_s", "fig3_s", "semiclassical_s", "steady_scan_s", "steady_j16_cli_s",
    "evolve_uniform_s", "evolve_logt_s", "meanfield_s",
)
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB")) + tuple((m, "s") for m in REQUEST_METRICS)

# Per-layer metrics: "<module>.<function>.<what>" from the spans and counters
# of tracing.py, the oracle errors from checks.py, and the trace overhead.
PER_LAYER = (
    ("linalg.null_vector.calls", "count"),
    ("linalg.null_vector.self_s", "s"),
    ("linalg.null_vector.flops_computed", "flop"),
    ("dynamics.build_liouvillian.calls", "count"),
    ("dynamics.build_liouvillian.self_s", "s"),
    ("dynamics.build_liouvillian.bytes_computed", "B"),
    ("dynamics.steady_state_numeric.calls", "count"),
    ("dynamics.steady_state_numeric.self_s", "s"),
    ("dynamics.validate_density_matrix.calls", "count"),
    ("dynamics.validate_density_matrix.self_s", "s"),
    ("spin_ops.build_jminus.calls", "count"),
    ("spin_ops.build_jminus.self_s", "s"),
    ("analytic.steady_state_analytic.calls", "count"),
    ("analytic.steady_state_analytic.self_s", "s"),
    ("entanglement.pair_reduced_state.calls", "count"),
    ("entanglement.pair_reduced_state.self_s", "s"),
    ("entanglement.concurrence.calls", "count"),
    ("entanglement.concurrence.self_s", "s"),
    ("entanglement.triplet_to_two_qubit.calls", "count"),
    ("entanglement.triplet_to_two_qubit.self_s", "s"),
    ("semiclassical.find_fixed_points.calls", "count"),
    ("semiclassical.find_fixed_points.self_s", "s"),
    ("semiclassical.bifurcation_scan.self_s", "s"),
    ("dynamics.evolve.calls", "count"),
    ("dynamics.evolve.self_s", "s"),
    ("semiclassical.integrate_meanfield.self_s", "s"),
    ("semiclassical.meanfield_rhs.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("dynamics.steady_state_numeric.residual_max", "1"),
    ("dynamics.evolve.err_max", "1"),
    ("semiclassical.bifurcation_scan.err", "1"),
)
ERROR_METRICS = (
    "dynamics.steady_state_numeric.residual_max",
    "dynamics.evolve.err_max",
    "semiclassical.bifurcation_scan.err",
)


def pin_blas_threads():
    """Must run before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc()))


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass
class Record:
    """One op of one iteration: its output, or the exception it raised."""

    op: Any
    output: Any
    error: str | None


def schedule(requests):
    """One iteration: each owned request ``repeat`` times, each followed by one pass of the probes.

    Spreading the probes between the long owned requests samples them at
    several moments of every iteration, not at one.
    """
    probes = [r for r in requests if not r.owned]
    out = []
    for request in requests:
        if request.owned:
            out += [request] * request.repeat + probes
    return out


def run_iteration(requests, tracer=None, label=""):
    """Time one iteration; returns ({metric: [seconds]}, [Record])."""
    durations, records = {}, []
    for n, request in enumerate(schedule(requests)):
        raws = []
        start = time.perf_counter()
        for k, op in enumerate(request.ops):
            if tracer is not None:
                tracer.op = f"{label}/{n}/{request.metric}/{k}"
            try:
                raws.append((op, op.run(), None))
            except Exception as exc:  # a failed op is counted, and the run goes on
                raws.append((op, None, f"{type(exc).__name__}: {exc}"))
        durations.setdefault(request.metric, []).append(time.perf_counter() - start)
        for op, raw, error in raws:
            output = None
            if error is None:
                try:
                    output = op.collect(raw)
                except OSError as exc:
                    error = f"{type(exc).__name__}: {exc}"
            records.append(Record(op, output, error))
    return durations, records


def layer_sample(tracer, spans_before, counts_before, records):
    """Per-layer values of one traced iteration."""
    from workloads import CliOutput

    calls, self_s = tracer.totals(spans_before)
    counts = tracer.counts - counts_before
    counts["cli.output_bytes"] = sum(r.output.nbytes for r in records if isinstance(r.output, CliOutput))
    sample = {}
    for name, _unit in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if name in ERROR_METRICS or name == "trace.overhead_s":
            continue
        if what == "self_s":
            sample[name] = self_s.get(layer, 0.0)
        elif what == "calls" and layer in calls:
            sample[name] = calls[layer]
        else:
            sample[name] = counts.get(name, 0)
    return sample


def measure_setup(repeats):
    """Wall seconds of fresh interpreters importing dickesim and warming up."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "warmup.py")], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(seed):
    import numpy
    import scipy

    import dickesim

    return {
        "nproc": nproc(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cli_jobs": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dickesim": dickesim.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one workload and return the full result record."""
    import checks
    import warmup
    import workloads
    from tracing import Tracer

    env = environment(seed)
    setup = measure_setup(1 if tiny else SETUP_REPEATS)
    min_iterations = 2 if trace else (1 if tiny else MIN_ITERATIONS)
    RESULTS.mkdir(exist_ok=True)
    plain, traced, layer_samples, records = [], [], [], []
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=RESULTS) as outdir:
        requests = workloads.build(workload, seed, outdir, tiny)
        warmup.warm_up()
        start = time.perf_counter()
        while True:
            iteration = len(plain) + len(traced)
            iter_start = time.perf_counter()
            if trace and iteration % 2 == 1:
                spans_before, counts_before = len(tracer.spans), Counter(tracer.counts)
                with tracer.installed():
                    durations, recs = run_iteration(requests, tracer, str(iteration))
                traced.append((time.perf_counter() - iter_start, durations))
                layer_samples.append(layer_sample(tracer, spans_before, counts_before, recs))
            else:
                durations, recs = run_iteration(requests)
                plain.append((time.perf_counter() - iter_start, durations))
            records += recs
            done = iteration + 1
            elapsed = time.perf_counter() - start
            complete = not trace or done % 2 == 0
            if done >= min_iterations and complete and elapsed * (done + 1) / done > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = checks.References()
    errors = defaultdict(float)
    failures = []
    for rec in records:
        if rec.error is not None:
            failures.append(f"{rec.op.kind}: {rec.error}")
            continue
        try:
            for name, value in checks.check(rec.op, rec.output, refs).items():
                errors[name] = max(errors[name], value)
        except Exception as exc:  # every failed check is reported, none stops the others
            failures.append(f"{rec.op.kind}: {type(exc).__name__}: {exc}")

    samples = {m: [t for _, d in plain for t in d[m]] for m in REQUEST_METRICS}
    if trace:
        values = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
        values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - statistics.median(w for w, _ in plain))
        values.update({name: errors[name] for name in ERROR_METRICS})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {m: statistics.median(s) for m, s in samples.items()}
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "env": env,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples_s": setup,
        "request_samples_s": samples,
        "traced_request_samples_s": {m: [t for _, d in traced for t in d[m]] for m in REQUEST_METRICS},
        "errors": dict(errors),
        "peak_rss_mb": peak_rss_mb,
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": metrics,
    }
    label = f"{workload}_seed{seed}_trace{trace}" + ("_tiny" if tiny else "")
    (RESULTS / f"BENCH_{label}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if trace:
        (RESULTS / f"SPANS_{label}.json").write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="draws the seeded workloads' inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    pin_blas_threads()
    package = SRC / "dickesim"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"error: no dickesim sources at {package}; run inside a dickesim checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import dickesim

    if Path(dickesim.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"error: imported dickesim from {dickesim.__file__}, not {package}\n")
        return 2

    result = measure(args.workload, args.seed, args.seconds, args.trace)
    n = result["iterations"]
    print(f"workload {args.workload}, seed {args.seed}, {n['untraced']} untraced and "
          f"{n['traced']} traced iterations, env {json.dumps(result['env'])}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
