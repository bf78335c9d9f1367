import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dickesim
from dickesim import cli, steady_state_analytic
from dickesim.cli import UsageError, main, parse_grid
from util import closed_form_j1


def run_cli(args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [
        [None if cell == "" else float(cell) for cell in line.split(",")]
        for line in lines[1:]
    ]
    return header, rows


def steady_json(tmp_path, name, extra):
    out = tmp_path / name
    rc = run_cli(["steady", "--output", str(out), "--format", "json"] + extra)
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    return payload, np.array(payload["matrix_re"]) + 1j * np.array(payload["matrix_im"])


# ---------------------------------------------------------------- grid specs

def test_parse_grid_linear():
    assert parse_grid("0:1:3") == pytest.approx([0.0, 0.5, 1.0])


def test_parse_grid_log():
    assert parse_grid("log:0.01:100:5") == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0])


@pytest.mark.parametrize(
    "spec", ["1:2", "a:b:c", "log:0:1:5", "log:1:2", "1:2:0", "log:1:2:-3",
             "nan:1:3", "0:inf:3", "log:0.5:inf:3", "log:nan:1:3",
             "0.05:3:1", "log:1:10:1"]  # a one-point grid would drop its stop
)
def test_parse_grid_rejects_malformed(spec):
    with pytest.raises(UsageError):
        parse_grid(spec)


# ---------------------------------------------------------------- steady

def test_steady_analytic_text_output(capsys):
    rc = run_cli(["steady", "--j", "1", "--gamma", "1", "--method", "analytic"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "j = 1.0" in out
    assert "method = analytic" in out
    assert "0.0909090909" in out  # the top-left matrix entry, 1/11
    line = [l for l in out.splitlines() if l.startswith("concurrence = ")][0]
    assert float(line.split("=")[1]) == pytest.approx(1.0 / 11.0, abs=1e-8)


def test_steady_numeric_agrees_with_analytic(tmp_path):
    _, numeric = steady_json(
        tmp_path, "n.json", ["--j", "2", "--gamma", "0.7", "--method", "numeric"]
    )
    _, analytic = steady_json(
        tmp_path, "a.json", ["--j", "2", "--gamma", "0.7", "--method", "analytic"]
    )
    assert np.abs(numeric - analytic).max() < 1e-8


def test_steady_accepts_omega_gamma_a_pair(tmp_path):
    # omega = 2, gamma_a = 1.4 is the same physics as gamma = 0.7
    _, rho = steady_json(
        tmp_path,
        "pair.json",
        ["--j", "1", "--omega", "2", "--gamma-a", "1.4", "--method", "analytic"],
    )
    assert np.abs(rho - closed_form_j1(0.7)).max() < 1e-12


def test_steady_pair_concurrence_label(tmp_path):
    payload, _ = steady_json(
        tmp_path, "big.json", ["--j", "4", "--gamma", "0.5", "--method", "analytic"]
    )
    assert "pair_concurrence" in payload
    assert "concurrence" not in payload


def test_steady_small_spin_has_no_entanglement_line(capsys):
    rc = run_cli(["steady", "--j", "0.5", "--gamma", "1", "--method", "analytic"])
    assert rc == 0
    assert "concurrence" not in capsys.readouterr().out


def test_steady_output_file_matches_stdout(tmp_path, capsys):
    args = ["steady", "--j", "1", "--gamma", "0.3", "--method", "analytic"]
    assert run_cli(args) == 0
    stdout_text = capsys.readouterr().out
    out = tmp_path / "steady.txt"
    assert run_cli(args + ["--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize("j", [1, 2, 16])
def test_steady_matrix_text_is_fmt_per_entry(j, capsys):
    gamma_a = 0.5 if j < 16 else 1.0 / (0.9 * j)
    args = ["--j", str(j), "--omega", "1", "--gamma-a", repr(gamma_a), "--nbar", "0.3"]
    assert run_cli(["steady"] + args) == 0
    lines = capsys.readouterr().out.splitlines()
    rho = dickesim.steady_state_numeric(dickesim.ModelParams(j=j, omega=1.0, gamma_a=gamma_a, nbar=0.3))
    expected = ["matrix real part:"]
    expected += ["  " + " ".join(cli._fmt(v) for v in row) for row in rho.real]
    expected.append("matrix imaginary part:")
    expected += ["  " + " ".join(cli._fmt(v) for v in row) for row in rho.imag]
    start = lines.index("matrix real part:")
    assert lines[start:start + len(expected)] == expected
    assert "-0.0" in " ".join(expected).split()  # a negative zero keeps its sign


def test_steady_tolerance_flag_accepted(tmp_path):
    _, rho = steady_json(
        tmp_path,
        "tol.json",
        ["--j", "1", "--gamma", "1", "--tolerance", "1e-8"],
    )
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


_TOLERANCE_RUNS = [  # full generator (j <= 5), band LU on the block, fig1's dense stack
    ["steady", "--j", "2", "--omega", "1", "--gamma-a", "0.2", "--nbar", "0.3"],
    ["steady", "--j", "8", "--omega", "1", "--gamma-a", "0.2", "--nbar", "0.3"],
    ["fig1", "--gamma-grid", "log:0.1:10:5", "--nbar-grid", "0:1:2"],
]


@pytest.mark.parametrize("args", _TOLERANCE_RUNS, ids=["steady-j2", "steady-j8", "fig1"])
def test_tolerance_reaches_the_steady_solver(tmp_path, capsys, args):
    # a residual bound no double-precision solve meets fails the request
    out = tmp_path / "never.txt"
    assert run_cli(args + ["--tolerance", "1e-300", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "> null_rtol = 1.0e-300" in err
    assert not out.exists()
    # the default bound given explicitly changes no byte
    plain, flagged = tmp_path / "plain.txt", tmp_path / "flagged.txt"
    assert run_cli(args + ["--output", str(plain)]) == 0
    assert run_cli(args + ["--tolerance", "1e-9", "--output", str(flagged)]) == 0
    assert flagged.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["steady", "--j", "1", "--gamma", "1", "--nbar", "0.5", "--method", "analytic"],
        ["steady", "--j", "1"],
        ["steady", "--j", "1", "--gamma", "1", "--omega", "2"],
        ["steady", "--j", "1", "--gamma", "1", "--method", "magic"],
        ["steady", "--gamma", "1"],
        ["steady", "--j", "1", "--gamma", "1", "--bogus", "0"],
        ["steady", "--j", "one", "--gamma", "1"],
        ["steady", "--j", "1", "--gamma"],
        ["steady", "1.0"],
        ["bogus"],
        [],
        ["fig2"],
        ["evolve", "--j", "1", "--gamma-a", "1", "--t-max", "-2", "--output", "x.csv"],
        ["evolve", "--j", "1", "--gamma-a", "1", "--t-max", "1", "--steps", "0", "--output", "x.csv"],
        ["evolve", "--j", "1", "--gamma-a", "1", "--t-max", "1", "--initial", "sideways", "--output", "x.csv"],
        ["evolve", "--j", "1", "--gamma-a", "1", "--t-max", "nan", "--output", "x.csv"],
        ["evolve", "--j", "1", "--gamma-a", "1", "--t-max", "inf", "--output", "x.csv"],
        ["fig3", "--omega-r-grid", "0.5:inf:3", "--output", "x.csv"],
        ["fig1", "--nbar-grid", "nan:1:3", "--output", "x.csv"],
        ["semiclassical", "--omega-r-grid", "0.5:-inf:3", "--output", "x.csv"],
        ["steady", "--j", "1", "--gamma", "1", "--tolerance", "-1"],
        ["steady", "--j", "1", "--gamma", "1", "--tolerance", "0"],
        ["steady", "--j", "1", "--gamma", "1", "--tolerance", "nan"],
        ["steady", "--j", "1", "--gamma", "1", "--tolerance", "inf"],
        ["steady", "--j", "1", "--gamma", "1", "--nb", "0.3"],  # no abbreviations
        ["steady", "--j", "1", "--gamma", "-1"],
        ["steady", "--j", "1", "--gamma", "1", "--nbar", "-0.5"],
        ["evolve", "--j", "1", "--gamma-a", "1", "--omega", "-1", "--t-max", "1", "--output", "x.csv"],
    ],
)
def test_usage_errors_exit_2(args, capsys):
    assert run_cli(args) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["fig2", "--gamma-grid", "log:0.001:1000:1000000000000"],
        ["fig3", "--omega-r-grid", "0.05:3:1000000000000"],
        ["fig1", "--gamma-grid", "log:0.01:100:20000", "--nbar-grid", "0:3:20000"],
        ["fig3", "--j-list", ",".join(["1"] * 65)],
        ["evolve", "--j", "1", "--gamma-a", "1", "--t-max", "1", "--steps", "1000000000000"],
        # checked when the options are read, so also where no worker would start
        ["steady", "--j", "1", "--gamma", "1", "--method", "analytic", "--jobs", "100000"],
    ],
)
def test_work_bounds_exit_2_before_allocating(args, tmp_path, capsys):
    # a grid of 10^12 points would be an 8 TB allocation failing with
    # MemoryError (exit 1), so exit 2 shows the bound was checked first
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--output", str(out)]) == 2
    assert "over the limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["fig3", "--j-list", "100000"],
        ["fig3", "--j-list", "1,128.5"],
        ["steady", "--j", "100000", "--gamma", "1", "--method", "analytic"],
        ["steady", "--j", "128.5", "--gamma", "1"],
    ],
)
def test_spin_value_bound_exits_2_before_allocating(args, tmp_path, capsys):
    # fig3 --j-list 100000 would ask for a 200001 x 200001 complex matrix
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--output", str(out)]) == 2
    assert "over the limit of 128" in capsys.readouterr().err
    assert not out.exists()


def test_fig3_time_bound_exits_2_before_any_row(tmp_path, capsys, monkeypatch):
    # 20 000 small-drive rows at j = 128 pass the row and spin bounds but
    # would take ~28 min; the estimate stops them before any row is solved
    def solved(*args):
        raise AssertionError("a fig3 row was computed")

    monkeypatch.setattr(cli, "steady_state_analytic", solved)
    out = tmp_path / "out.csv"
    args = ["fig3", "--j-list", "128", "--omega-r-grid", "0.05:0.05:20000", "--output", str(out)]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "fig3's estimated seconds" in err and f"over the limit of {cli.FIG3_SECONDS_LIMIT}" in err
    assert not out.exists()


@pytest.mark.parametrize("j_list, grid", [
    ("1,4,16,64", "0.05:3:60"),     # the paper's grid
    ("1,4,16,64", "0.05:3:119"),    # the benchmark's
    ("1,4,16,64", "0.05:3:23"),     # CI's
    ("128", "0.05:3:1400"),
    ("16", "0.05:3:20000"),
])
def test_fig3_time_bound_admits(j_list, grid, tmp_path, monkeypatch):
    # the bound passes these requests on to the row blocks (stubbed here)
    mapped = []
    monkeypatch.setattr(cli, "_map_blocks", lambda worker, groups, *rest: mapped.append(groups) or [])
    assert run_cli(["fig3", "--j-list", j_list, "--omega-r-grid", grid,
                    "--output", str(tmp_path / "out.csv")]) == 0
    assert len(mapped) == 1


def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(params, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "steady_state_numeric", exhausted)
    out = tmp_path / "out.txt"
    assert run_cli(["steady", "--j", "128", "--gamma", "1", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not out.exists()


def test_spin_value_bound_admits_the_limit(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(["fig3", "--j-list", "128", "--omega-r-grid", "0.9:0.9:1",
                    "--output", str(out)]) == 0
    assert read_csv(out)[1][0][0] == 128.0


def test_help_paths(capsys):
    assert run_cli(["--help"]) == 0
    assert "subcommands" in capsys.readouterr().out
    assert run_cli(["steady", "--help"]) == 0
    assert "--gamma" in capsys.readouterr().out


@pytest.mark.parametrize("sub", sorted(cli.SUBCOMMANDS))
def test_every_subcommand_has_help(sub, capsys):
    assert run_cli([sub, "--help"]) == 0
    out = capsys.readouterr().out
    names = {f"--{name}" for name, *_ in cli.SUBCOMMANDS[sub]}
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == names | {"--help"}


@pytest.mark.parametrize("args", [
    ["fig2", "--gamma-grid", "1:1:1", "--tolerance", "1e-9"],
    ["fig3", "--j-list", "1", "--omega-r-grid", "1:1:1", "--tolerance", "1e-9"],
    ["evolve", "--j", "1", "--gamma-a", "1", "--t-max", "1", "--steps", "2", "--tolerance", "1e-9"],
    ["semiclassical", "--omega-r-grid", "0.05:2:40", "--tolerance", "1e-9"],
    ["steady", "--j", "1", "--gamma", "1", "--method", "analytic", "--tolerance", "1e-8"],
    # the default value, given, is given
    ["steady", "--j", "1", "--gamma", "1", "--method", "analytic", "--tolerance", "1e-9"],
    ["steady", "--j", "1", "--gamma", "1", "--gnuplot"],
], ids=["fig2-tolerance", "fig3-tolerance", "evolve-tolerance", "semiclassical-tolerance",
        "steady-analytic-tolerance", "steady-analytic-default-tolerance", "steady-gnuplot"])
def test_options_that_do_not_act_are_refused(args, tmp_path, capsys):
    out = tmp_path / "never.txt"
    assert run_cli(args + ["--output", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


# the argv shapes of the benchmark's CLI requests, on tiny grids
_BENCHMARK_ARGV = [
    ["fig1", "--gamma-grid", "log:0.01:100:3", "--nbar-grid", "0:3:2", "--gnuplot"],
    ["fig2", "--gamma-grid", "log:0.001:1000:3", "--gnuplot"],
    ["fig3", "--j-list", "1,4", "--omega-r-grid", "0.05:3:3", "--gnuplot"],
    ["semiclassical", "--omega-r-grid", "0.05:2:40", "--gnuplot"],
    ["steady", "--j", "8", "--omega", "1.0", "--gamma-a", "0.8", "--nbar", "0.3"],
]


@pytest.mark.parametrize("args", _BENCHMARK_ARGV, ids=[a[0] for a in _BENCHMARK_ARGV])
def test_benchmark_requests_parse(args, tmp_path):
    out = tmp_path / "out.txt"
    assert run_cli(args + ["--output", str(out), "--jobs", "1"]) == 0
    assert out.exists() and (tmp_path / "out.txt.gp").exists() == ("--gnuplot" in args)


# ---------------------------------------------------------------- evolve

def test_evolve_pure_decay_csv(tmp_path):
    out = tmp_path / "decay.csv"
    rc = run_cli(
        [
            "evolve", "--j", "1", "--gamma-a", "1", "--t-max", "2",
            "--steps", "20", "--output", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t", "jz_expect", "p_top", "p_bottom", "concurrence_if_j1"]
    assert len(rows) == 21
    for t, _jz, p_top, _p_bot, c in rows:
        assert p_top == pytest.approx(np.exp(-2.0 * t), abs=1e-6)
        assert c is not None
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)  # starts fully excited


def test_evolve_spin1_csv_equals_per_state_computation(tmp_path):
    out = tmp_path / "j1.csv"
    args = ["--j", "1", "--omega", "1", "--gamma-a", "0.7", "--nbar", "0.3", "--t-max", "3", "--steps", "30"]
    assert run_cli(["evolve"] + args + ["--output", str(out)]) == 0
    from dickesim import ModelParams, build_jz, concurrence, dicke_projector, evolve, triplet_to_two_qubit

    params = ModelParams(j=1, omega=1.0, gamma_a=0.7, nbar=0.3)
    trajectory = evolve(dicke_projector(1, 1), params, np.linspace(0.0, 3.0, 31))
    jz = build_jz(1)
    expected = [
        [float(t), float(np.einsum("ij,ji->", rho, jz).real), float(rho[0, 0].real),
         float(rho[-1, -1].real), concurrence(triplet_to_two_qubit(rho))]
        for t, rho in zip(trajectory.times, trajectory.states)
    ]
    assert read_csv(out)[1] == expected


def test_evolve_non_spin1_leaves_concurrence_blank(tmp_path):
    out = tmp_path / "j32.csv"
    rc = run_cli(
        [
            "evolve", "--j", "1.5", "--gamma-a", "1", "--t-max", "1",
            "--steps", "4", "--output", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[1].endswith(",")  # empty trailing cell
    _, rows = read_csv(out)
    assert all(row[4] is None for row in rows)

    out_json = tmp_path / "j32.json"
    rc = run_cli(
        [
            "evolve", "--j", "1.5", "--gamma-a", "1", "--t-max", "1",
            "--steps", "4", "--output", str(out_json), "--format", "json",
        ]
    )
    assert rc == 0
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert all(row["concurrence_if_j1"] is None for row in payload)


def test_evolve_rejects_motionless_model(tmp_path, capsys):
    out = tmp_path / "never.csv"
    rc = run_cli(["evolve", "--j", "1", "--t-max", "1", "--output", str(out)])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- figure scans

@pytest.mark.parametrize("base, rows", [
    (["fig1", "--gamma-grid", "log:0.1:10:5", "--nbar-grid", "0:1:3"], 15),
    (["fig2", "--gamma-grid", "log:0.001:1000:1100"], 1100),  # more than one block
    # j <= 16 blocks differ between --jobs 1 and 2; j = 64 blocks are single rows
    (["fig3", "--j-list", "1,4,16,64", "--omega-r-grid", "0.5:1.5:5"], 20),
], ids=["fig1", "fig2", "fig3"])
def test_scan_deterministic_and_parallel_identical(tmp_path, base, rows):
    assert base[0] != "fig2" or rows > cli.BLOCK_ROWS
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert run_cli(base + ["--output", str(paths[0])]) == 0
    assert run_cli(base + ["--output", str(paths[1])]) == 0
    assert run_cli(base + ["--output", str(paths[2]), "--jobs", "2"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert b"\r" not in blobs[0]
    assert len(blobs[0].splitlines()) == rows + 1


@pytest.mark.parametrize("base", [
    ["fig1", "--gamma-grid", "log:0.1:10:7", "--nbar-grid", "0:1:3"],
    ["fig2", "--gamma-grid", "log:0.1:10:13"],
    ["fig3", "--j-list", "1,1.5,4", "--omega-r-grid", "0.5:1.5:7"],
], ids=["fig1", "fig2", "fig3"])
def test_row_blocks_do_not_change_the_rows(tmp_path, monkeypatch, base):
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert run_cli(base + ["--output", str(whole)]) == 0
    monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
    assert run_cli(base + ["--output", str(blocked)]) == 0
    assert whole.read_bytes() == blocked.read_bytes()


@pytest.fixture
def fake_pool(monkeypatch):
    """Records each process pool's size and runs its tasks in process."""
    import concurrent.futures

    made = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks, chunksize=1):
            return map(worker, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return made


def test_row_blocks_are_bounded_and_spread_over_jobs(fake_pool):
    def sizes(count, jobs, d=3):  # each block comes back as one row
        blocks = cli._map_blocks(lambda task: [task[0]], [(d, (np.arange(count),))], jobs)
        assert np.array_equal(np.concatenate(blocks), np.arange(count))
        return [len(block) for block in blocks]

    # at most 9 BLOCK_ROWS state entries a block: 1024 rows of 3 x 3 states,
    # 113 at j = 4, 8 at j = 16, 2 at j = 32 and 1 from j = 33.5 up
    for two_j, rows in [(2, 1024), (8, 113), (32, 8), (64, 2), (67, 1), (128, 1)]:
        assert sizes(2000, 1, two_j + 1)[0] == rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BLOCK_ROWS", 4)
        assert sizes(10, 1) == [4, 4, 2]
        assert sizes(10, 5) == [2] * 5
        assert sizes(3, 8) == [1] * 3
        assert sizes(5, 1, 4) == [2, 2, 1]
        assert sizes(3, 1, 7) == [1] * 3


def test_process_pool_has_at_most_one_worker_per_task(fake_pool):
    def first(task):
        return [int(task[0][0])]

    assert cli._map_blocks(first, [(3, (np.arange(2),))], 64) == [0, 1] and fake_pool == [2]
    assert cli._map_blocks(first, [(3, (np.arange(3),))], 2) == [0, 2] and fake_pool == [2, 2]
    # every group's blocks share one pool
    groups = [(3, (np.arange(3),)), (129, (np.arange(10, 12),))]
    assert cli._map_blocks(first, groups, 8) == [0, 1, 2, 10, 11] and fake_pool == [2, 2, 5]
    assert cli._map_blocks(first, [(3, (np.arange(1),))], 64) == [0]
    assert fake_pool == [2, 2, 5]  # one task runs in process


def test_fig1_stacked_route_matches_single_solves_on_the_paper_grid(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = run_cli(["fig1", "--gamma-grid", "log:0.01:100:41", "--nbar-grid", "0:3:4", "--output", str(out)])
    assert rc == 0
    from dickesim import ModelParams, concurrence, steady_state_numeric, triplet_to_two_qubit

    _, rows = read_csv(out)
    grid = [[g, n] for g in parse_grid("log:0.01:100:41").tolist() for n in parse_grid("0:3:4").tolist()]
    assert [row[:2] for row in rows] == grid  # gamma-major, as the rows were before stacking
    for gamma, nbar, value in rows:
        rho = steady_state_numeric(ModelParams(j=1, omega=1.0, gamma_a=gamma, nbar=nbar))
        assert abs(value - concurrence(triplet_to_two_qubit(rho))) <= 1e-14


def test_fig2_values_match_library(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run_cli(["fig2", "--gamma-grid", "log:0.5:2:3", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["gamma", "abs_g", "concurrence"]
    from dickesim import concurrence, triplet_to_two_qubit

    for gamma, abs_g, value in rows:
        assert abs_g == pytest.approx(1.0 / gamma, rel=1e-12)
        expected = concurrence(triplet_to_two_qubit(closed_form_j1(gamma)))
        assert value == pytest.approx(expected, abs=1e-12)


def test_fig2_equals_steady_analytic_on_the_paper_grid(tmp_path, capsys):
    # one construction of the zero-temperature state serves both subcommands
    out = tmp_path / "fig2.csv"
    assert run_cli(["fig2", "--gamma-grid", "log:0.001:1000:121", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 121
    for gamma, _, value in rows:
        assert run_cli(["steady", "--j", "1", "--gamma", repr(gamma), "--method", "analytic"]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = [l for l in lines if l.startswith("concurrence = ")][0]
        assert float(line.split("=")[1]) == value


def test_fig1_zero_temperature_rows_match_closed_form(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = run_cli(
        [
            "fig1", "--gamma-grid", "log:0.5:2:3", "--nbar-grid", "0:1:3",
            "--output", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["gamma", "nbar", "concurrence"]
    assert len(rows) == 9
    from dickesim import concurrence, triplet_to_two_qubit

    by_gamma = {}
    for gamma, nbar, value in rows:
        by_gamma.setdefault(gamma, []).append((nbar, value))
        if nbar == 0.0:
            expected = concurrence(triplet_to_two_qubit(closed_form_j1(gamma)))
            assert value == pytest.approx(expected, abs=1e-8)
    # thermal photons erode entanglement; check at gamma = 1 where the
    # zero-temperature value is comfortably positive
    near_unit = min(by_gamma, key=lambda g: abs(g - 1.0))
    values = [v for _, v in sorted(by_gamma[near_unit])]
    assert values[0] > 0.05
    assert values[0] > values[-1]


def test_fig3_spin1_reduces_to_fig2_parameterization(tmp_path):
    out = tmp_path / "fig3.csv"
    rc = run_cli(
        [
            "fig3", "--j-list", "1,2", "--omega-r-grid", "0.5:1.5:3",
            "--output", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["j", "omega_r", "pair_concurrence"]
    assert len(rows) == 6
    from dickesim import concurrence, pair_reduced_state, triplet_to_two_qubit

    for j, omega_r, value in rows:
        gamma = 1.0 / (j * omega_r)
        rho = steady_state_analytic(j, gamma)
        assert value == pytest.approx(
            concurrence(pair_reduced_state(rho, j)), abs=1e-12
        )
        if j == 1.0:
            # the N = 2 pair state is the triplet embedding itself
            embed = concurrence(triplet_to_two_qubit(rho))
            assert value == pytest.approx(embed, abs=1e-8)


def test_fig3_rejects_small_spin(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    rc = run_cli(["fig3", "--j-list", "0.5", "--output", str(out)])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_scan_json_mirrors_csv(tmp_path):
    csv_path = tmp_path / "scan.csv"
    json_path = tmp_path / "scan.json"
    base = ["fig2", "--gamma-grid", "log:0.5:2:3"]
    assert run_cli(base + ["--output", str(csv_path)]) == 0
    assert run_cli(base + ["--output", str(json_path), "--format", "json"]) == 0
    _, rows = read_csv(csv_path)
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert len(payload) == len(rows)
    for row, entry in zip(rows, payload):
        assert entry["gamma"] == row[0]
        assert entry["concurrence"] == row[2]


def test_gnuplot_companion_script(tmp_path):
    out = tmp_path / "fig2.csv"
    rc = run_cli(
        ["fig2", "--gamma-grid", "log:0.5:2:3", "--output", str(out), "--gnuplot"]
    )
    assert rc == 0
    script = (tmp_path / "fig2.csv.gp").read_text(encoding="utf-8")
    assert str(out) in script and "using 1:3" in script


def test_gnuplot_requires_csv(tmp_path, capsys):
    out = tmp_path / "fig2.json"
    rc = run_cli(
        [
            "fig2", "--gamma-grid", "log:0.5:2:3", "--output", str(out),
            "--format", "json", "--gnuplot",
        ]
    )
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


# ---------------------------------------------------------------- semiclassical

def test_semiclassical_scan(tmp_path, capsys):
    out = tmp_path / "mf.csv"
    rc = run_cli(
        ["semiclassical", "--omega-r-grid", "0.1:2:20", "--output", str(out)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("critical omega_r = ")
    assert abs(float(stdout.split("=")[1]) - 1.0) <= 1e-6
    header, rows = read_csv(out)
    assert header == ["omega_r", "sz_stable", "leading_eigenvalue_real"]
    assert len(rows) == 20
    at_06 = min(rows, key=lambda row: abs(row[0] - 0.6))
    assert at_06[1] == pytest.approx(-np.sqrt(1.0 - at_06[0] ** 2), abs=1e-10)
    assert at_06[2] == pytest.approx(at_06[1], abs=1e-10)


def test_semiclassical_grid_missing_transition(tmp_path, capsys):
    out = tmp_path / "mf.csv"
    rc = run_cli(
        ["semiclassical", "--omega-r-grid", "0.1:0.5:5", "--output", str(out)]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- config files

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# analytic spin-1 run\ngamma = 2.0\nmethod = analytic  # trailing note\n",
        encoding="utf-8",
    )
    _, rho = steady_json(
        tmp_path, "cfg.json", ["--j", "1", "--config", str(cfg)]
    )
    assert np.abs(rho - closed_form_j1(2.0)).max() < 1e-12


def test_flags_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 2.0\nmethod = analytic\n", encoding="utf-8")
    _, rho = steady_json(
        tmp_path, "over.json", ["--j", "1", "--config", str(cfg), "--gamma", "1"]
    )
    assert np.abs(rho - closed_form_j1(1.0)).max() < 1e-12


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 2.0\nwibble = 3\n", encoding="utf-8")
    rc = run_cli(["steady", "--j", "1", "--config", str(cfg)])
    assert rc == 2
    assert "wibble" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["method = magic", "tolerance = -1"])
def test_config_values_get_the_flag_checks(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "never.txt"
    rc = run_cli(["steady", "--j", "1", "--gamma", "1", "--config", str(cfg), "--output", str(out)])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_config_does_not_outlive_its_call(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = analytic\n", encoding="utf-8")
    with_config, _ = steady_json(tmp_path, "cfg.json", ["--j", "1", "--gamma", "1", "--config", str(cfg)])
    without, _ = steady_json(tmp_path, "plain.json", ["--j", "1", "--gamma", "1"])
    assert with_config["method"] == "analytic"
    assert without["method"] == "numeric"  # the table default


@pytest.mark.parametrize("flags, config, written", [
    (["--gnuplot=no"], "", False),
    ([], "gnuplot = no\n", False),
    ([], "gnuplot = yes\n", True),
    (["--gnuplot=no"], "gnuplot = yes\n", False),  # a flag after the file wins
])
def test_gnuplot_value_forms(tmp_path, flags, config, written):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "fig2.csv"
    args = ["fig2", "--gamma-grid", "log:0.5:2:3", "--output", str(out), "--config", str(cfg)]
    assert run_cli(args + flags) == 0
    assert (tmp_path / "fig2.csv.gp").exists() == written


@pytest.mark.parametrize("sub, given, rest", [
    ("steady", [("j", "1"), ("gamma", "1")], ["--output", "OUT"]),
    ("evolve", [("t-max", "1")], ["--j", "1", "--gamma-a", "1", "--steps", "2", "--output", "OUT"]),
    ("fig2", [("output", "OUT")], ["--gamma-grid", "1:1:1"]),
], ids=["steady-j", "evolve-t-max", "fig2-output"])
def test_config_supplies_required_options(tmp_path, sub, given, rest):
    # each required option comes from the file alone, and acts as its flag does
    outputs = []
    for name in ("flags.txt", "config.txt"):
        out = str(tmp_path / name)
        pairs = [(key, value.replace("OUT", out)) for key, value in given]
        args = [sub] + [arg.replace("OUT", out) for arg in rest]
        if name == "flags.txt":
            args += [text for key, value in pairs for text in (f"--{key}", value)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in pairs), encoding="utf-8")
            args += ["--config", str(cfg)]
        assert run_cli(args) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_config_key_that_does_not_act_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-9\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert run_cli(["fig2", "--gamma-grid", "1:1:1", "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "--tolerance=1e-9" in err
    assert not out.exists()


def test_config_tolerance_refused_by_the_analytic_method(tmp_path, capsys):
    # the default bound from a file is given as much as any other value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-9\n", encoding="utf-8")
    out = tmp_path / "never.txt"
    args = ["steady", "--j", "1", "--gamma", "1", "--method", "analytic", "--config", str(cfg)]
    assert run_cli(args + ["--output", str(out)]) == 2
    assert "analytic method takes no --tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_bad_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma 2.0\n", encoding="utf-8")
    assert run_cli(["steady", "--j", "1", "--config", str(cfg)]) == 2
    assert "key = value" in capsys.readouterr().err


# ---------------------------------------------------------------- failures

def test_unwritable_output_is_io_error(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    rc = run_cli(
        ["fig2", "--gamma-grid", "log:0.5:2:3", "--output", str(missing_dir)]
    )
    assert rc == 1
    assert "I/O error" in capsys.readouterr().err


# ---------------------------------------------------------------- module entry points

def run_python(args):
    """A fresh interpreter that imports this checkout's dickesim."""
    env = dict(os.environ)
    src = str(Path(dickesim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable] + list(args), env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", ["dickesim", "dickesim.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    out = tmp_path / "fig2.csv"
    done = run_python(
        ["-m", module, "fig2", "--gamma-grid", "log:0.5:2:3", "--output", str(out)]
    )
    assert done.returncode == 0, done.stderr
    header, rows = read_csv(out)
    assert header == ["gamma", "abs_g", "concurrence"]
    assert len(rows) == 3


def test_fig2_beyond_quartic_overflow(tmp_path):
    # gamma^4 overflows double precision past gamma ~ 1e77
    out = tmp_path / "fig2.csv"
    done = run_python(
        ["-m", "dickesim", "fig2", "--gamma-grid", "log:1e70:1e80:3", "--output", str(out)]
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    _, rows = read_csv(out)
    values = np.array([row[2] for row in rows])
    assert len(values) == 3
    assert np.all(np.isfinite(values) & (values >= 0.0) & (values <= 1.0))


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # the package import is what every CLI run pays before any work
    done = run_python(["-c", "import sys, dickesim; print('scipy.integrate' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    # nor do the CLI import and the figure and mean-field scans load any of scipy
    script = f"""
import sys
import dickesim.cli
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
for argv in (
    ["fig1", "--gamma-grid", "log:0.1:10:3", "--nbar-grid", "0:1:2"],
    ["fig2", "--gamma-grid", "log:0.1:10:3"],
    ["fig3", "--j-list", "1,4", "--omega-r-grid", "0.5:1.5:3"],
    ["semiclassical", "--omega-r-grid", "0.05:2:40"],
):
    assert dickesim.cli.main(argv + ["--output", {str(tmp_path / "scan.csv")!r}]) == 0
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(loaded)
"""
    done = run_python(["-c", script])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([[]] * 5)
