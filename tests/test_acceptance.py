"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single "[criterion NN] PASS/FAIL label: detail" line
(visible under pytest -s) and then asserts, so the suite doubles as a
human-readable scorecard.  Tolerances are stated inline and are the
contract; regression constants were frozen from this implementation and
guard against silent drift.
"""

import time

import numpy as np

from dickesim import (
    ModelParams,
    bifurcation_scan,
    concurrence,
    dicke_projector,
    evolve,
    find_fixed_points,
    integrate_meanfield,
    normalization_D,
    pair_reduced_state,
    steady_state_analytic,
    steady_state_numeric,
    triplet_to_two_qubit,
)
from util import closed_form_j1, pair_reduced_brute_force, random_density, trace_distance


def _report(num, label, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def test_criterion_01_known_spin1_matrix():
    r2 = np.sqrt(2.0)
    expected = np.array(
        [
            [1.0, -1j * r2, -2.0],
            [1j * r2, 3.0, -3j * r2],
            [-2.0, 3j * r2, 7.0],
        ]
    ) / 11.0
    steady_state_analytic(1, 1.0)  # warm up before timing
    best = np.inf
    for _ in range(20):
        t0 = time.perf_counter()
        rho = steady_state_analytic(1, 1.0)
        best = min(best, time.perf_counter() - t0)
    gap = float(np.abs(rho - expected).max())
    ok = gap < 1e-12 and best < 1e-3
    _report(
        1,
        "closed-form spin-1 matrix",
        ok,
        f"max entry gap {gap:.2e} (tol 1e-12), best runtime {best * 1e6:.0f} us (< 1 ms)",
    )


def test_criterion_02_normalization_quartic():
    worst = 0.0
    for gamma in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0):
        expected = 3.0 + 4.0 * gamma ** 2 + 4.0 * gamma ** 4
        worst = max(worst, abs(normalization_D(1, gamma) - expected) / expected)
    _report(
        2,
        "spin-1 normalization quartic",
        worst < 1e-12,
        f"worst relative gap {worst:.2e} (tol 1e-12) over six gamma values",
    )


def test_criterion_03_dual_route_steady_states():
    t0 = time.perf_counter()
    worst = 0.0
    for j in (1, 2, 4, 8, 16):
        for gamma in (0.1, 0.5, 1.0, 2.0):
            analytic = steady_state_analytic(j, gamma)
            numeric = steady_state_numeric(
                ModelParams(j=j, omega=1.0, gamma_a=gamma, nbar=0.0)
            )
            worst = max(worst, trace_distance(analytic, numeric))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    _report(
        3,
        "numeric vs analytic steady states",
        ok,
        f"worst trace distance {worst:.2e} (tol 1e-8) over 20 cases in {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_04_concurrence_unit_suite():
    def pure(vec):
        vec = np.asarray(vec, dtype=complex)
        vec = vec / np.linalg.norm(vec)
        return np.outer(vec, vec.conj())

    worst_bell = max(
        abs(concurrence(pure(v)) - 1.0)
        for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])
    )
    worst_product = max(
        concurrence(pure(v))
        for v in ([1, 0, 0, 0], [0, 0, 0, 1], np.kron([1, 1j], [3, 1 - 2j]))
    )
    worst_werner = 0.0
    for p in (0.2, 0.5, 0.9):
        rho = p * pure([0, 1, -1, 0]) + (1.0 - p) * np.eye(4) / 4.0
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        worst_werner = max(worst_werner, abs(concurrence(rho) - expected))
    ok = worst_bell < 1e-12 and worst_product < 1e-12 and worst_werner < 1e-10
    _report(
        4,
        "concurrence unit suite",
        ok,
        f"Bell gap {worst_bell:.2e} (tol 1e-12), product gap {worst_product:.2e} "
        f"(tol 1e-12), Werner gap {worst_werner:.2e} (tol 1e-10)",
    )


def test_criterion_05_pair_reduction_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260826)
    worst = 0.0
    cases = 0
    for n in (2, 4, 6):
        j = n / 2.0
        dim = n + 1
        for level in range(dim):
            rho = np.zeros((dim, dim), dtype=complex)
            rho[level, level] = 1.0
            gap = np.abs(
                pair_reduced_state(rho, j) - pair_reduced_brute_force(rho, j)
            ).max()
            worst = max(worst, float(gap))
            cases += 1
        for _ in range(20):
            rho = random_density(rng, dim)
            gap = np.abs(
                pair_reduced_state(rho, j) - pair_reduced_brute_force(rho, j)
            ).max()
            worst = max(worst, float(gap))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(
        5,
        "pair-reduction oracle agreement",
        ok,
        f"worst entry gap {worst:.2e} (tol 1e-10) over {cases} states in {elapsed:.1f} s (< 10 s)",
    )


def test_criterion_06_two_ion_concurrence_curve():
    grid = np.logspace(-3.0, 3.0, 121)
    curve = np.array(
        [concurrence(triplet_to_two_qubit(closed_form_j1(g))) for g in grid]
    )
    peak = float(curve.max())
    peak_gamma = float(grid[curve.argmax()])
    endpoints_small = curve[0] < 1e-3 and curve[-1] < 1e-3
    interior = peak >= curve[0] + 1e-2 and peak >= curve[-1] + 1e-2
    # frozen regression values from this implementation; the gate is the
    # sqrt(eps)-scale concurrence floor, generous against eigensolver
    # jitter yet far below any real change in the curve
    recorded_peak = 0.11191897201733743
    recorded_gamma = 1.2589254117941675
    regression = (
        abs(peak - recorded_peak) < 1e-8 and abs(peak_gamma - recorded_gamma) < 1e-12
    )
    ok = endpoints_small and interior and regression
    _report(
        6,
        "two-ion concurrence curve shape",
        ok,
        f"endpoints ({curve[0]:.2e}, {curve[-1]:.2e}) < 1e-3, "
        f"peak {peak:.17g} at gamma {peak_gamma:.17g} "
        f"(recorded {recorded_peak:.17g} at {recorded_gamma:.17g})",
    )


def test_criterion_07_pair_concurrence_drive_scans():
    t0 = time.perf_counter()
    grid = np.linspace(0.05, 3.0, 119)
    argmax = {}
    peak = {}
    for j in (1, 4, 16, 64):
        values = []
        for omega_r in grid:
            rho = steady_state_analytic(j, 1.0 / (j * omega_r))
            values.append(concurrence(pair_reduced_state(rho, j)))
        values = np.array(values)
        argmax[j] = float(grid[values.argmax()])
        peak[j] = float(values.max())
    elapsed = time.perf_counter() - t0
    gaps = [abs(argmax[j] - 1.0) for j in (1, 4, 16)]
    toward_unit = gaps[0] > gaps[1] > gaps[2]
    decreasing = peak[1] > peak[4] > peak[16] > peak[64]
    ok = toward_unit and decreasing and elapsed < 300.0
    _report(
        7,
        "pair concurrence vs scaled drive",
        ok,
        f"argmax {argmax} approaches 1, peaks {({j: round(p, 5) for j, p in peak.items()})} "
        f"decrease with j, {elapsed:.1f} s (< 300 s)",
    )


def test_criterion_08_meanfield_bifurcation():
    critical = bifurcation_scan(np.linspace(0.1, 2.0, 20))
    point = find_fixed_points(0.6)[0].point
    point_gap = float(np.abs(point - np.array([0.0, 0.6, -0.8])).max())
    s0 = np.array([0.3, 0.4, np.sqrt(1.0 - 0.25)])
    path = integrate_meanfield(s0, 1.3, np.linspace(0.0, 100.0, 201))
    drift = float(np.abs(np.einsum("ij,ij->i", path, path) - 1.0).max())
    ok = abs(critical - 1.0) <= 1e-6 and point_gap <= 1e-10 and drift <= 1e-8
    _report(
        8,
        "mean-field bifurcation and conservation",
        ok,
        f"critical drive {critical:.8f} (tol 1e-6), stable point gap {point_gap:.2e} "
        f"(tol 1e-10), length drift {drift:.2e} over tau in [0, 100] (tol 1e-8)",
    )


def test_criterion_09_trajectory_invariants_and_decay_ladder():
    times = np.linspace(0.0, 10.0, 101)
    top = dicke_projector(1, 1)
    worst_trace = worst_herm = 0.0
    worst_eig = np.inf
    for nbar in (0.0, 1.0):
        params = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=nbar)
        trajectory = evolve(top, params, times)
        for rho in trajectory.states:
            worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
            worst_herm = max(worst_herm, float(np.abs(rho - rho.conj().T).max()))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho).min()))

    # undriven collective decay has a closed-form population ladder
    decay = evolve(top, ModelParams(j=1, omega=0.0, gamma_a=1.0, nbar=0.0), times)
    worst_ladder = 0.0
    max_decay_concurrence = 0.0
    for t, rho in zip(decay.times, decay.states):
        p_top = np.exp(-2.0 * t)
        p_mid = 2.0 * t * np.exp(-2.0 * t)
        expected = np.array([p_top, p_mid, 1.0 - p_top - p_mid])
        worst_ladder = max(
            worst_ladder, float(np.abs(np.diag(rho).real - expected).max())
        )
        max_decay_concurrence = max(
            max_decay_concurrence, concurrence(triplet_to_two_qubit(rho))
        )
    ok = (
        worst_trace <= 1e-9
        and worst_herm <= 1e-9
        and worst_eig >= -1e-8
        and worst_ladder < 1e-6
    )
    _report(
        9,
        "trajectory invariants and decay ladder",
        ok,
        f"trace drift {worst_trace:.2e} (tol 1e-9), hermiticity drift {worst_herm:.2e} "
        f"(tol 1e-9), min eigenvalue {worst_eig:.2e} (floor -1e-8), ladder gap "
        f"{worst_ladder:.2e} (tol 1e-6); info: max concurrence during undriven decay "
        f"{max_decay_concurrence:.3e}",
    )


def test_criterion_10_steady_state_attracts():
    params = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.5)
    target = steady_state_numeric(params)
    times = np.linspace(0.0, 50.0, 26)
    gaps = {}
    for name, m in (("all-excited", 1), ("all-ground", -1)):
        trajectory = evolve(dicke_projector(1, m), params, times)
        gaps[name] = trace_distance(trajectory.states[-1], target)
    worst = max(gaps.values())
    _report(
        10,
        "steady state attracts both poles",
        worst <= 1e-6,
        f"trace distance at t = 50: excited {gaps['all-excited']:.2e}, "
        f"ground {gaps['all-ground']:.2e} (tol 1e-6)",
    )
