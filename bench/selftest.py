"""Self-tests of the benchmark: its checks, its tracer and a tiny run of each workload.

    python3 bench/selftest.py

Not collected by pytest (the file name does not match test_*.py), so the
repository's own suite is unchanged.  Takes about half a minute.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.pin_blas_threads()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402  (after the BLAS pin)

import checks  # noqa: E402
import dickesim  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def replace_value(text, row, col, delta):
    """CSV text with one cell moved by delta."""
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def with_output(out, text):
    return workloads.CliOutput(out.rc, out.stdout, out.stderr, dict(out.files, output=text))


def off_diagonal(d, eps):
    """A Hermitian, traceless perturbation."""
    e = np.zeros((d, d), dtype=complex)
    e[0, 1] = e[1, 0] = eps
    return e


def not_steady(rho):
    """A valid state near rho that the generator moves: mixed with the identity."""
    d = rho.shape[0]
    return 0.999 * rho + 0.001 * np.eye(d) / d


def steady_text(text, rho):
    """The `steady` CLI text output with its matrix replaced by rho."""
    lines = text.splitlines()
    for header, part in (("matrix real part:", rho.real), ("matrix imaginary part:", rho.imag)):
        top = lines.index(header) + 1
        for k, row in enumerate(part):
            lines[top + k] = "  " + " ".join(repr(float(v)) for v in row)
    return "\n".join(lines) + "\n"


def corruptions(kind, out):
    """(fragment of the expected failure message, wrong output), one per check."""
    if kind in ("fig1", "fig2", "fig3", "semiclassical"):
        text = out.files["output"]
        yield 'exit code', workloads.CliOutput(1, out.stdout, "error: injected", {})
        yield 'vs reference', with_output(out, replace_value(text, 2, -1, 1e-3))
        yield 'rows, expected', with_output(out, "\n".join(text.splitlines()[:-1]) + "\n")
        yield 'gnuplot', workloads.CliOutput(out.rc, out.stdout, out.stderr, dict(out.files, gnuplot=""))
    if kind == "fig2":
        lines = out.files["output"].splitlines()
        row = next(k for k, line in enumerate(lines[1:], 1) if float(line.split(",")[0]) == 1.0)
        yield 'gamma = 1', with_output(out, replace_value(out.files["output"], row, 2, 2e-8))
    if kind == "semiclassical":
        yield 'critical omega_r', workloads.CliOutput(out.rc, "critical omega_r = 1.000010\n", out.stderr, out.files)
        yield 'semiclassical sz', with_output(out, replace_value(out.files["output"], 3, 1, 1e-5))
    if kind == "steady":
        rho, value = out
        d = rho.shape[0]
        yield 'generator residual', (not_steady(rho), value)
        yield 'not Hermitian', (rho + 1e-6 * np.triu(np.ones((d, d)), 1), value)
        yield 'trace', (1.01 * rho, value)
        w, v = np.linalg.eigh(rho)
        w[0], w[-1] = -1e-3, w[-1] + w[0] + 1e-3
        yield 'negative eigenvalue', ((v * w) @ v.conj().T, value)
        yield 'pair concurrence', (rho, value + 1e-3)
    if kind == "steady_cli":
        rho, _ = oracles.read_steady_text(out.files["output"])
        yield 'generator residual', with_output(out, steady_text(out.files["output"], not_steady(rho)))
        text = "\n".join(l for l in out.files["output"].splitlines() if not l.startswith("pair_concurrence"))
        yield 'no pair concurrence', with_output(out, text + "\n")
    if kind == "evolve":
        states = list(out)
        states[-1] = states[-1] + off_diagonal(states[-1].shape[0], 1e-6)
        yield 'expm reference', states
        yield 'states, expected', out[:-1]
    if kind == "meanfield":
        path = np.array(out)
        end = path[-1]
        tangent = np.cross(end, [1.0, 0.0, 0.0])
        moved = end + 1e-5 * tangent / np.linalg.norm(tangent)
        path[-1] = moved * np.linalg.norm(end) / np.linalg.norm(moved)  # same spin length
        yield 'DOP853', path
        yield 'spin length drifts', np.array(out) * np.array([[1.0]] * (len(out) - 1) + [[1.0 + 1e-6]])


class ChecksRejectCorruptedOutputs(unittest.TestCase):
    def test_every_check(self):
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as outdir:
            requests = workloads.build("figures", 0, outdir, tiny=True)
            _, records = run.run_iteration(requests)
        refs = checks.References()
        kinds = set()
        for rec in records:
            self.assertIsNone(rec.error)
            checks.check(rec.op, rec.output, refs)  # the real output passes
            for reason, bad in corruptions(rec.op.kind, rec.output):
                kinds.add(rec.op.kind)
                with self.subTest(kind=rec.op.kind, reason=reason):
                    with self.assertRaisesRegex(oracles.CheckError, reason):
                        checks.check(rec.op, bad, refs)
        self.assertEqual(kinds, set(checks.CHECKS))


class Oracles(unittest.TestCase):
    def test_closed_form_is_steady_under_own_generator(self):
        for j in (1, 4, 16, 64):
            rho = oracles.steady_state_zero_temperature(j, 0.7 / j)
            self.assertLess(oracles.relative_residual(rho, j, 1.0, 0.7 / j, 0.0), 1e-12)

    def test_dense_and_closed_form_agree(self):
        dense = oracles.steady_state_dense(4, 1.0, 0.3, 0.0)
        closed = oracles.steady_state_zero_temperature(4, 0.3)
        self.assertLess(np.abs(dense - closed).max(), 1e-12)

    def test_pair_state_of_dicke_level(self):
        # |j=1, m=0> of two qubits is the symmetric Bell state: concurrence 1
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        self.assertAlmostEqual(oracles.pair_concurrence(rho, 1), 1.0, places=12)
        # W state of three qubits (one excitation): pair concurrence 2/3
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        self.assertAlmostEqual(oracles.pair_concurrence(rho, 1.5), 2.0 / 3.0, places=12)


class Tracing(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        tracer = Tracer()
        originals = {(m, f): getattr(sys.modules[f"dickesim.{m}"], f) for m, f, _, _ in TRACED}
        with tracer.installed():
            for (m, f), original in originals.items():
                for name, module in list(sys.modules.items()):
                    if name.startswith("dickesim") and module is not None:
                        self.assertIsNot(vars(module).get(f), original, f"{name}.{f} not wrapped")
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(dickesim.cli.main(["--help"]), 0)
            rho = dickesim.steady_state_numeric(dickesim.ModelParams(j=2, omega=1.0, gamma_a=0.5, nbar=0.2))
        for (m, f), original in originals.items():
            self.assertIs(getattr(sys.modules[f"dickesim.{m}"], f), original)
        self.assertIs(dickesim.entanglement.validate_density_matrix, dickesim.dynamics.validate_density_matrix)
        by_id = {s.id: s for s in tracer.spans}
        solve = [s for s in tracer.spans if s.name == "linalg.null_vector"]
        self.assertEqual(len(solve), 1)
        self.assertEqual(by_id[solve[0].parent].name, "dynamics.steady_state_numeric")
        for span in tracer.spans:
            self.assertGreaterEqual(span.self_s, 0.0)
            self.assertLessEqual(span.self_s, span.end - span.start + 1e-12)
        self.assertEqual(tracer.counts["linalg.null_vector.flops_computed"], 84 * 25 ** 3)
        self.assertEqual(tracer.counts["dynamics.build_liouvillian.bytes_computed"], 16 * 5 ** 4)
        self.assertEqual(rho.shape, (5, 5))
        self.assertIn("cli.main", {s.name for s in tracer.spans})


class TinyRuns(unittest.TestCase):
    def test_each_workload(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(end_to_end, dict(run.END_TO_END))
        self.assertEqual(per_layer, dict(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, names in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result = run.measure(workload, 7, 0, trace, tiny=True)
                    self.assertEqual(result["failed"], 0, result["failures"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)


class RefusesWithoutSources(unittest.TestCase):
    def test_exit_code(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            shutil.copy(BENCHMARK_JSON, tmp)
            for path in spec["paths"]:
                shutil.copytree(run.ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("results", "__pycache__"))
            done = subprocess.run(spec["command"] + ["--workload", "figures", "--seed", "1", "--seconds", "1",
                                                     "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                  timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    run.RESULTS.mkdir(exist_ok=True)
    unittest.main(verbosity=2)
