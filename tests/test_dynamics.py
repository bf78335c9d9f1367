import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import example, given, settings as hsettings, strategies as st

from dickesim import (
    CapacityError,
    DegenerateKernelError,
    ModelParams,
    SpinQuantum,
    ValidationError,
    build_jminus,
    build_jz,
    build_liouvillian,
    closed_form_j1,
    dicke_projector,
    evolve,
    steady_state_analytic,
    steady_state_numeric,
    steady_states_numeric,
    validate_density_matrix,
)
from dickesim import dynamics, linalg
from dickesim.settings import DEFAULT
from util import (
    build_jplus,
    corrupt_state,
    gauge_entry_phase,
    gauge_phase,
    liouvillian_kron,
    master_equation_rhs,
    random_density,
    steady_state_full_generator,
    steady_state_svd,
    trace_distance,
    unvec,
    vec,
)


# ---------------------------------------------------------------- ModelParams

def test_params_coerce_j():
    p = ModelParams(j=1.5, omega=1.0, gamma_a=0.5)
    assert p.j == SpinQuantum(3)


def test_params_reject_no_dynamics():
    with pytest.raises(ValidationError):
        ModelParams(j=1, omega=0.0, gamma_a=0.0)


@pytest.mark.parametrize("kw", [
    {"omega": -1.0, "gamma_a": 1.0},
    {"omega": 1.0, "gamma_a": -0.1},
    {"omega": 1.0, "gamma_a": 1.0, "nbar": -0.5},
    {"omega": float("nan"), "gamma_a": 1.0},
])
def test_params_reject_bad_values(kw):
    with pytest.raises(ValidationError):
        ModelParams(j=1, **kw)


def test_derived_ratios():
    p = ModelParams(j=2, omega=0.5, gamma_a=2.0)
    assert p.gamma == pytest.approx(4.0)
    assert p.omega_r == pytest.approx(0.5 / (2.0 * 2.0))


def test_derived_ratios_undefined():
    with pytest.raises(ValidationError):
        _ = ModelParams(j=1, omega=0.0, gamma_a=1.0).gamma
    with pytest.raises(ValidationError):
        _ = ModelParams(j=1, omega=1.0, gamma_a=0.0).omega_r


def test_omega_r_scale_invariant():
    a = ModelParams(j=2, omega=3.0, gamma_a=1.5).omega_r
    b = ModelParams(j=2, omega=6.0, gamma_a=3.0).omega_r
    assert a == b


# ---------------------------------------------------------------- Liouvillian

def params_strategy():
    pos = st.floats(min_value=0.01, max_value=5, allow_nan=False)
    return st.builds(
        ModelParams,
        j=st.sampled_from([SpinQuantum(1), SpinQuantum(2), SpinQuantum(4)]),
        omega=pos,
        gamma_a=pos,
        nbar=st.floats(min_value=0, max_value=3, allow_nan=False),
    )


@given(params_strategy())
@hsettings(max_examples=30, deadline=None)
def test_liouvillian_annihilates_trace(p):
    lio = build_liouvillian(p)
    d = p.j.dim
    left = vec(np.eye(d)).conj() @ lio
    assert np.abs(left).max() < 1e-12


@given(params_strategy(), st.integers(0, 2 ** 31 - 1))
@hsettings(max_examples=30, deadline=None)
def test_liouvillian_preserves_hermiticity(p, seed):
    rng = np.random.default_rng(seed)
    d = p.j.dim
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    out = unvec(build_liouvillian(p) @ vec(h), d)
    assert np.abs(out - out.conj().T).max() < 1e-10


@given(params_strategy(), st.integers(0, 2 ** 31 - 1))
@example(ModelParams(j=1.5, omega=0.9, gamma_a=0.6, nbar=1.7), 11)
@hsettings(max_examples=40, deadline=None)
def test_liouvillian_matches_matrix_form(p, seed):
    rng = np.random.default_rng(seed)
    d = p.j.dim
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    out = unvec(build_liouvillian(p) @ vec(rho), d)
    expected = master_equation_rhs(rho, p)
    assert np.abs(out - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_liouvillian_two_level_decay():
    p = ModelParams(j=0.5, omega=0.0, gamma_a=0.7)
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = unvec(build_liouvillian(p) @ vec(rho), 2)
    # excited population decays at gamma_a, nothing else moves it
    assert drho[0, 0] == pytest.approx(-0.7)
    assert drho[1, 1] == pytest.approx(0.7)


def test_liouvillian_annihilates_known_steady_state():
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0)
    lio = build_liouvillian(p)
    resid = np.linalg.norm(lio @ vec(closed_form_j1(1.0)))
    assert resid < 1e-12


def test_zero_temperature_reduces_to_plain_decay():
    # nbar = 0 must kill the raising dissipator entirely
    p = ModelParams(j=1.5, omega=0.8, gamma_a=0.3, nbar=0.0)
    jm, jp = build_jminus(1.5), build_jplus(1.5)
    eye = np.eye(4)
    ham = 0.5 * 0.8 * (jp + jm)
    jpjm = jp @ jm
    manual = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye))
    manual += 0.3 / 2.0 * (
        2.0 * np.kron(jp.T, jm) - np.kron(eye, jpjm) - np.kron(jpjm.T, eye)
    )
    assert np.abs(build_liouvillian(p) - manual).max() == 0.0


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 7, 8, 15, 16, 24, 32])
def test_liouvillian_equals_kronecker_sum(two_j):
    for omega, gamma_a, nbar in ((0.8, 0.3, 0.0), (1.3, 0.7, 1.7), (0.0, 2.0, 0.0)):
        p = ModelParams(j=two_j / 2.0, omega=omega, gamma_a=gamma_a, nbar=nbar)
        lio = build_liouvillian(p)
        assert sp.issparse(lio) and lio.format == "csc"
        assert lio.nnz <= 7 * p.j.dim ** 2
        assert np.array_equal(lio.toarray(), liouvillian_kron(p))


@pytest.mark.parametrize("two_j", [0, 1, 2, 8, 32])
def test_generator_values_are_the_liouvillian_entries(two_j):
    # the one rate formula, on the real unit values in the CSC order of
    # build_liouvillian, times each entry's phase
    p = ModelParams(j=two_j / 2.0, omega=1.3, gamma_a=0.7, nbar=0.4)
    units, phase = dynamics._generator_pattern(two_j)[2:]
    values = dynamics._generator_values(units, p.omega, p.gamma_a, p.nbar)
    assert np.array_equal(phase * values, build_liouvillian(p).data)


# ---------------------------------------------------------------- validate_density_matrix

def test_validate_density_matrix_passes(rng=np.random.default_rng(3)):
    rho = random_density(rng, 4)
    validate_density_matrix(rho)


def test_validate_rejects_trace():
    with pytest.raises(ValidationError, match="trace"):
        validate_density_matrix(np.eye(2))


def test_validate_rejects_nonhermitian():
    bad = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="Hermitian"):
        validate_density_matrix(bad)


def test_validate_rejects_negative_state():
    with pytest.raises(ValidationError, match="positive"):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize("kind", ["trace", "Hermitian", "positive", "non-finite"])
@pytest.mark.parametrize("chunk_entries", [dynamics.CHECK_CHUNK_ENTRIES, 9])
def test_validate_stack_names_the_first_bad_state(monkeypatch, kind, chunk_entries):
    # with chunks of one state the bad states sit in later chunks
    monkeypatch.setattr(dynamics, "CHECK_CHUNK_ENTRIES", chunk_entries)
    rng = np.random.default_rng(11)
    stack = np.array([random_density(rng, 3) for _ in range(6)])
    assert validate_density_matrix(stack) is not None
    stack[3] = corrupt_state(kind, stack[3])
    stack[5] = corrupt_state("positive", stack[5])
    with pytest.raises(ValidationError, match=rf"rho\[3\] .*{kind}"):
        validate_density_matrix(stack)
    with pytest.raises(ValidationError, match=rf"rho\[1, 0\] .*{kind}"):
        validate_density_matrix(stack.reshape(2, 3, 3, 3))
    with pytest.raises(ValidationError, match=rf"state 3 .*{kind}"):
        validate_density_matrix(stack, name=lambda k: f"state {k}")


def test_validate_stack_matches_single_state_checks():
    rng = np.random.default_rng(12)
    stack = np.array([random_density(rng, 4) for _ in range(5)])
    assert np.array_equal(validate_density_matrix(stack), stack)
    for bad in (corrupt_state(kind, stack[0][:3, :3] / np.trace(stack[0][:3, :3]))
                for kind in ("trace", "Hermitian", "positive", "non-finite")):
        with pytest.raises(ValidationError) as single:
            validate_density_matrix(bad)
        with pytest.raises(ValidationError) as stacked:
            validate_density_matrix(bad[None])
        assert str(stacked.value) == str(single.value).replace("rho ", "rho[0] ", 1)
    with pytest.raises(ValidationError, match="square"):
        validate_density_matrix(np.ones((2, 3, 4)) / 3.0)


# ---------------------------------------------------------------- evolve

def test_evolve_dark_state_constant():
    p = ModelParams(j=1.5, omega=0.0, gamma_a=1.0)
    rho0 = dicke_projector(1.5, -1.5)
    traj = evolve(rho0, p, np.linspace(0.0, 3.0, 7))
    for state in traj.states:
        assert np.abs(state - rho0).max() < 1e-12


def test_evolve_rabi_rotation():
    # no damping: the drive rotates <Jz> as -cos(omega t) from the bottom level
    p = ModelParams(j=1, omega=1.3, gamma_a=0.0)
    times = np.linspace(0.0, 2.0 * np.pi / 1.3, 40)
    traj = evolve(dicke_projector(1, -1), p, times)
    jz_t = np.einsum("tij,ji->t", traj.states, build_jz(1)).real
    assert np.abs(jz_t - (-np.cos(1.3 * times))).max() < 1e-6


def test_evolve_rate_ladder():
    p = ModelParams(j=1, omega=0.0, gamma_a=1.0)
    times = np.linspace(0.0, 5.0, 26)
    traj = evolve(dicke_projector(1, 1), p, times)
    p_top = np.array([s[0, 0].real for s in traj.states])
    p_mid = np.array([s[1, 1].real for s in traj.states])
    p_bot = np.array([s[2, 2].real for s in traj.states])
    assert np.abs(p_top - np.exp(-2.0 * times)).max() < 1e-8
    assert np.abs(p_mid - 2.0 * times * np.exp(-2.0 * times)).max() < 1e-8
    assert np.abs(p_bot - (1.0 - p_top - p_mid)).max() < 1e-9


def test_evolve_invariants_along_driven_run():
    for nbar in (0.0, 1.0):
        p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=nbar)
        traj = evolve(dicke_projector(1, 1), p, np.linspace(0.0, 10.0, 51))
        for state in traj.states:
            assert abs(np.trace(state).real - 1.0) < 1e-9
            assert np.abs(state - state.conj().T).max() < 1e-9
            assert np.linalg.eigvalsh(state)[0] > -1e-8


def test_evolve_grid_validation():
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0)
    rho0 = dicke_projector(1, 1)
    with pytest.raises(ValidationError):
        evolve(rho0, p, [1.0, 2.0])  # must start at 0
    with pytest.raises(ValidationError):
        evolve(rho0, p, [0.0, 2.0, 1.0])  # must ascend
    # wrong dimension for j
    with pytest.raises(ValidationError):
        evolve(np.eye(2, dtype=complex) / 2.0, p, [0.0, 1.0])


def test_evolve_rejects_a_stack_as_rho0():
    # a (3, 3, 3) stack of valid j = 1 states passes the state check and its
    # leading axis matches d, so only the full shape tells it from one state
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0)
    with pytest.raises(ValidationError, match=r"rho0 shape \(3, 3, 3\)"):
        evolve(np.stack([np.eye(3) / 3.0] * 3), p, [0.0, 1.0])


def test_evolve_single_point_grid():
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0)
    traj = evolve(dicke_projector(1, 1), p, [0.0])
    assert len(traj.states) == 1


def _propagator_states(rho0, p, times):
    lio = build_liouvillian(p).toarray()
    d = p.j.dim
    return [unvec(scipy.linalg.expm(lio * t) @ vec(rho0), d) for t in times]


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 5.0, 41),
    np.concatenate([[0.0], np.logspace(-3.0, 1.0, 20)]),
])
def test_evolve_matches_propagator_from_zero(times):
    p = ModelParams(j=2, omega=1.0, gamma_a=0.7, nbar=0.4)
    rho0 = dicke_projector(2, 1)
    traj = evolve(rho0, p, times)
    for state, exact in zip(traj.states, _propagator_states(rho0, p, times)):
        assert np.abs(state - exact).max() < 1e-12


def test_evolve_uniform_grid_builds_one_propagator(monkeypatch):
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return real_expm(a)

    real_expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.5)
    rho0 = dicke_projector(1, 1)
    for t_max in (0.05, 2.0 * np.pi / 1.3, 10.0, 1234.5):
        for n in (2, 7, 101, 1001):
            calls.clear()
            evolve(rho0, p, np.linspace(0.0, t_max, n))
            assert len(calls) == 1, (t_max, n)
    calls.clear()
    evolve(rho0, p, np.concatenate([[0.0], np.logspace(-2.0, 1.0, 6)]))
    assert len(calls) == 6


@pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 4, 8])
@pytest.mark.parametrize("times", [
    np.linspace(0.0, 3.0, 11),
    np.concatenate([[0.0], np.logspace(-3.0, 1.0, 9)]),
])
def test_evolve_complex_states_match_propagator(j, times):
    # random complex states have an antisymmetric part in the real gauge
    # (none at j = 0), so both real blocks are propagated
    d = int(2 * j) + 1
    p = ModelParams(j=j, omega=1.3, gamma_a=0.6, nbar=0.7)
    rho0 = random_density(np.random.default_rng(d), d)
    traj = evolve(rho0, p, times)
    for state, exact in zip(traj.states, _propagator_states(rho0, p, times)):
        assert np.array_equal(state, state.conj().T)
        assert np.abs(state - exact).max() < 1e-12


@pytest.mark.parametrize("j", [0.5, 1, 4, 16])
def test_generator_is_real_in_the_gauge(j):
    # rho[a, b] = i^(b - a) Y[a, b] turns every entry of the generator real
    p = ModelParams(j=j, omega=0.9, gamma_a=1.7, nbar=0.4)
    d = p.j.dim
    a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    ph = vec(np.array([1, 1j, -1, -1j])[(b - a) % 4])
    gauged = ph.conj()[:, None] * build_liouvillian(p).toarray() * ph[None, :]
    assert np.abs(gauged.imag).max() == 0.0


@pytest.mark.parametrize("two_j", [1, 2, 7, 32])
def test_generator_rows_above_diagonal_read_no_entry_below(two_j):
    # evolve's antisymmetric block relies on this: it folds no column
    # onto the strict upper triangle with the sign K[c, e] = -K[e, c]
    lio = build_liouvillian(ModelParams(j=two_j / 2.0, omega=1.0, gamma_a=1.0, nbar=0.5))
    d = two_j + 1
    rows, cols = lio.nonzero()
    above = rows % d < rows // d
    assert np.all(cols[above] % d <= cols[above] // d)


@pytest.mark.parametrize("corrupt, message", [
    (lambda expm, a: 2.0 * expm(a), r"state at t=0\.5 trace"),
    # backward in time: trace and Hermiticity survive, positivity does not
    (lambda expm, a: expm(-a), r"state at t=0\.5 not positive"),
    (lambda expm, a: np.full_like(a, np.nan), r"state at t=0\.5 contains non-finite"),
])
def test_evolve_corrupted_propagator_fails_the_state_check(monkeypatch, corrupt, message):
    real_expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: corrupt(real_expm, a))
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.5)
    with pytest.raises(ValidationError, match=message):
        evolve(dicke_projector(1, -1), p, np.linspace(0.0, 1.0, 3))


def test_evolve_work_bound_raises_before_any_propagator(monkeypatch):
    def no_expm(a):
        raise AssertionError("expm called")

    monkeypatch.setattr(scipy.linalg, "expm", no_expm)
    p = ModelParams(j=16, omega=1.0, gamma_a=1.0, nbar=0.3)
    rho0 = dicke_projector(16, 16)
    with pytest.raises(CapacityError, match="distinct time steps"):
        evolve(rho0, p, np.concatenate([[0.0], np.logspace(-2.0, 1.0, 100)]))
    with pytest.raises(CapacityError, match="state entries"):
        evolve(rho0, p, np.linspace(0.0, 1.0, 10_000))


def test_evolve_rejects_non_finite_grid_before_any_propagator(monkeypatch):
    def no_expm(a):
        raise AssertionError("expm called")

    monkeypatch.setattr(scipy.linalg, "expm", no_expm)
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.3)
    for grid in ([0.0, np.inf], [0.0, 1.0, np.nan], [0.0, 1.0, np.inf]):
        with pytest.raises(ValidationError, match="finite"):
            evolve(dicke_projector(1, 1), p, grid)


def test_evolve_tight_working_tolerance_returns():
    # a tolerance below double-precision reach must not stall evolution
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.5)
    times = np.linspace(0.0, 10.0, 101)
    traj = evolve(dicke_projector(1, 1), p, times, DEFAULT.with_working_tolerance(1e-14))
    assert len(traj.states) == 101
    exact = _propagator_states(dicke_projector(1, 1), p, times[-1:])[0]
    assert np.abs(traj.states[-1] - exact).max() < 1e-12


def test_evolve_peak_memory_stays_near_its_output():
    # the state check runs over chunks of states, so its temporaries do not
    # scale with the number of times; a whole-stack check peaks at 3.3x
    p = ModelParams(j=8, omega=1.0, gamma_a=1.0, nbar=0.3)
    rho0 = random_density(np.random.default_rng(8), p.j.dim)
    times = np.linspace(0.0, 5.0, 2000)
    evolve(rho0, p, times[:3])  # fill the caches outside the measurement
    tracemalloc.start()
    try:
        traj = evolve(rho0, p, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * np.asarray(traj.states).nbytes


@pytest.mark.parametrize("corrupt, message", [
    (lambda expm, a: 2.0 * expm(a), r"state at t=0\.5 trace"),
    (lambda expm, a: expm(-a), r"state at t=0\.5 not positive"),
])
def test_evolve_chunked_check_names_the_first_bad_state(monkeypatch, corrupt, message):
    # chunks of one state: the first corrupted state, at t = 0.5, opens the
    # second chunk, and the check still names it
    monkeypatch.setattr(dynamics, "CHECK_CHUNK_ENTRIES", 9)
    real_expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: corrupt(real_expm, a))
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.5)
    with pytest.raises(ValidationError, match=message):
        evolve(dicke_projector(1, -1), p, np.linspace(0.0, 1.0, 3))


def test_evolve_capacity_limit():
    with pytest.raises(CapacityError):
        evolve(dicke_projector(16.5, 16.5), ModelParams(j=16.5, omega=1.0, gamma_a=1.0), [0.0, 0.1])


# ---------------------------------------------------------------- steady_state_numeric

@pytest.mark.parametrize("j", [0.5, 2])
def test_steady_pure_decay_reaches_ground(j):
    p = ModelParams(j=j, omega=0.0, gamma_a=1.3)
    rho = steady_state_numeric(p)
    assert np.abs(rho - dicke_projector(j, -j)).max() < 1e-10


def test_steady_matches_closed_form():
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0)
    assert trace_distance(steady_state_numeric(p), closed_form_j1(1.0)) < 1e-12


def test_steady_rejects_undriven_thermal():
    with pytest.raises(ValidationError):
        steady_state_numeric(ModelParams(j=1, omega=0.0, gamma_a=1.0, nbar=0.5))


def test_steady_rejects_no_damping():
    with pytest.raises(ValidationError):
        steady_state_numeric(ModelParams(j=1, omega=1.0, gamma_a=0.0))


def test_steady_capacity_limit():
    with pytest.raises(CapacityError, match="analytic"):
        steady_state_numeric(ModelParams(j=128.5, omega=1.0, gamma_a=1.0))


@given(
    st.sampled_from([0.5, 1, 1.5, 2, 3, 4]),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.0, max_value=3.0),
)
@example(4, 1.0, 0.01, 0.0)
@hsettings(max_examples=40, deadline=None)
def test_steady_matches_svd_oracle(j, omega, gamma_a, nbar):
    p = ModelParams(j=j, omega=omega, gamma_a=gamma_a, nbar=nbar)
    assert trace_distance(steady_state_numeric(p), steady_state_svd(p)) <= 1e-10


@pytest.mark.parametrize("j", [8, 16])
@pytest.mark.parametrize("gamma_a", [0.0794, 0.5, 3.0])
def test_steady_matches_analytic_at_zero_temperature(j, gamma_a):
    numeric = steady_state_numeric(ModelParams(j=j, omega=1.0, gamma_a=gamma_a))
    assert trace_distance(numeric, steady_state_analytic(j, gamma_a)) < 1e-12


@pytest.mark.parametrize("j", [32, 64, 96, 128])
def test_steady_matches_analytic_beyond_evolve_limit(j):
    gamma_a = 1.0 / (0.9 * j)  # omega_r = 0.9, just below the bifurcation
    numeric = steady_state_numeric(ModelParams(j=j, omega=1.0, gamma_a=gamma_a))
    assert trace_distance(numeric, steady_state_analytic(j, gamma_a)) < 1e-12


def test_steady_near_pure_state_one_bordered_solve(monkeypatch):
    # at j = 16, gamma_a = 0.0794 the state is nearly pure, and its
    # coherences cancel in the sum of all entries; the trace border does not
    # see that cancellation, so one well-conditioned solve suffices
    kappas = []
    real = linalg._bordered_solve

    def recording(A, border):
        x, kappa = real(A, border)
        kappas.append(kappa)
        return x, kappa

    monkeypatch.setattr(linalg, "_bordered_solve", recording)
    steady_state_numeric(ModelParams(j=16, omega=1.0, gamma_a=0.0794))
    assert len(kappas) == 1 and kappas[0] * DEFAULT.null_gap_rtol <= 1.0


@pytest.mark.parametrize("j", [1, 5, 5.5, 6.5, 7, 16])  # dense inverse and SuperLU
def test_steady_factors_once(monkeypatch, j):
    factored = []
    real_splu = scipy.sparse.linalg.splu
    real_inv = np.linalg.inv

    def splu(a, *args, **kwargs):
        factored.append(("splu", a.shape[0]))
        return real_splu(a, *args, **kwargs)

    def inv(a):
        factored.append(("inv", a.shape))
        return real_inv(a)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    monkeypatch.setattr(np.linalg, "inv", inv)
    steady_state_numeric(ModelParams(j=j, omega=1.0, gamma_a=0.5, nbar=0.3))
    d = int(2 * j + 1)
    # up to j = 5 all d^2 unknowns, above the d(d+1)/2 of the symmetric block
    n = d * d if j <= 5 else d * (d + 1) // 2
    assert (n <= linalg._DENSE_LU_MAX) == (j <= 7)
    assert factored == [("inv", (1, n + 1, n + 1)) if j <= 7 else ("splu", n + 1)]


@pytest.mark.parametrize("two_j", [1, 4, 11, 12, 32])
def test_symmetric_block_is_the_folded_generator(two_j):
    # column c of a block is the gauged generator applied to the symmetric
    # (offset 0) or antisymmetric (offset 1) basis matrix of coordinate c,
    # read on the block's triangle; the trace functional is the symmetric
    # block's left kernel
    p = ModelParams(j=two_j / 2.0, omega=0.9, gamma_a=1.7, nbar=0.4)
    d = p.j.dim
    ph = dynamics._gauge(two_j)
    gauged = vec(ph).conj()[:, None] * build_liouvillian(p).toarray() * vec(ph)[None, :]
    for offset, sign in ((0, 1.0), (1, -1.0)):
        triangle, indptr, indices, cols, units = dynamics._gauged_block(two_j, offset)
        n = len(triangle[0])
        assert len(indptr) == n + 1 and units.shape == (3, len(indices))
        assert np.array_equal(cols, np.repeat(np.arange(n), np.diff(indptr)))
        data = dynamics._generator_values(units, p.omega, p.gamma_a, p.nbar)
        block = sp.csc_array((data, indices, indptr), shape=(n, n))
        assert block.has_canonical_format
        basis = np.zeros((d * d, n))
        basis[triangle[0] + d * triangle[1], np.arange(n)] = 1.0
        basis[triangle[1] + d * triangle[0], np.arange(n)] = sign
        expected = (gauged @ basis)[triangle[0] + d * triangle[1]]
        assert np.abs(expected.imag).max() == 0.0
        assert np.abs(block.toarray() - expected).max() <= 1e-14 * np.abs(expected).max()
        if offset == 0:
            trace = (triangle[0] == triangle[1]).astype(float)
            assert np.abs(trace @ block.toarray()).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("j", [5.5, 7, 8, 16, 32])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
@pytest.mark.parametrize("gamma_a", ["0.0174", "1/(0.9 j)", "1"])
def test_steady_block_matches_full_generator(j, nbar, gamma_a):
    gamma_a = 1.0 / (0.9 * j) if gamma_a == "1/(0.9 j)" else float(gamma_a)
    p = ModelParams(j=j, omega=1.0, gamma_a=gamma_a, nbar=nbar)
    assert trace_distance(steady_state_numeric(p), steady_state_full_generator(p)) <= 1e-13


@pytest.mark.parametrize("j", [6, 8, 16, 32])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_steady_block_rejects_near_unitary_dynamics(j, nbar):
    # at gamma_a = 1e-7 the kernel is numerically two-dimensional in the
    # symmetric block itself, and its kappa_1 check raises as the full
    # generator's does (checked up to j = 16: the full generator's SuperLU
    # fill at j = 32 takes ~3 s on one core)
    p = ModelParams(j=j, omega=1.0, gamma_a=1e-7, nbar=nbar)
    with pytest.raises(DegenerateKernelError, match="not one-dimensional"):
        steady_state_numeric(p)
    if j <= 16:
        with pytest.raises(DegenerateKernelError, match="not one-dimensional"):
            steady_state_full_generator(p)


def test_steady_block_solves_past_an_antisymmetric_near_singularity():
    # at j = 16, gamma_a = 1e-6 the full generator's bordered matrix has a
    # condition estimate just over 1 / null_gap_rtol, from a near-singular
    # direction of the antisymmetric block; the symmetric block does not
    # hold that direction and returns the exact state
    p = ModelParams(j=16, omega=1.0, gamma_a=1e-6)
    with pytest.raises(DegenerateKernelError, match="not one-dimensional"):
        steady_state_full_generator(p)
    assert trace_distance(steady_state_numeric(p), steady_state_analytic(16, 1e-6)) < 1e-12


def test_gauge_phase_makes_generator_entries_real():
    # the stencil's per-term phase i^(da - db) undoes conj(ph_r) ph_c, the
    # gauge the steady routes and evolve share, on every entry, and there
    # the entries are the stencil's real values
    p = ModelParams(j=4, omega=0.9, gamma_a=1.7, nbar=0.4)
    d = p.j.dim
    L = build_liouvillian(p)
    ph = dynamics._gauge(p.j.two_j)
    assert np.array_equal(ph, gauge_phase(d))
    phase = gauge_entry_phase(L)
    units, term_phase = dynamics._generator_pattern(p.j.two_j)[2:]
    assert np.array_equal(term_phase, phase.conj())
    gauged = vec(ph).conj()[:, None] * L.toarray() * vec(ph)[None, :]
    entries = sp.csc_array((phase * L.data, L.indices, L.indptr), shape=L.shape)
    assert np.array_equal(entries.toarray(), gauged)
    assert np.abs(gauged.imag).max() == 0.0
    assert np.array_equal(
        (phase * L.data).real, dynamics._generator_values(units, p.omega, p.gamma_a, p.nbar)
    )
    # the trace functional vec(I) is the generator's exact left kernel there
    assert np.abs(vec(np.eye(d)).real @ gauged.real).max() < 1e-14


def test_steady_solve_above_the_pin_builds_no_generator_pattern():
    # above j = 5 a steady solve reads only the cached symmetric block
    dynamics._generator_pattern.cache_clear()
    dynamics._gauged_block.cache_clear()
    steady_state_numeric(ModelParams(j=16, omega=1.0, gamma_a=0.5, nbar=0.3))
    assert dynamics._generator_pattern.cache_info().currsize == 0


def test_steady_thermal_long_time_oracle():
    # independent check: integrate to t = 50/gamma_a and compare
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=2.0)
    target = steady_state_numeric(p)
    traj = evolve(dicke_projector(1, 1), p, np.array([0.0, 50.0]))
    assert trace_distance(traj.states[-1], target) < 1e-6


def test_steady_is_fixed_point_of_evolve():
    p = ModelParams(j=2, omega=1.0, gamma_a=0.7, nbar=0.3)
    rho = steady_state_numeric(p)
    traj = evolve(rho, p, np.array([0.0, 10.0 / p.gamma_a]))
    assert trace_distance(traj.states[-1], rho) < 1e-7


@pytest.mark.parametrize("j", [0.5, 1, 2, 5, 5.5, 7, 7.5, 8, 16])
def test_steady_states_numeric_matches_pointwise(j):
    rng = np.random.default_rng(int(2 * j))
    gamma_a = rng.uniform(0.01, 10.0, size=12)
    nbar = rng.uniform(0.0, 3.0, size=12)
    nbar[:3] = 0.0
    stack = steady_states_numeric(j, 1.0, gamma_a, nbar)
    d = int(2 * j + 1)
    assert stack.shape == (12, d, d)
    for rho, g, n in zip(stack, gamma_a, nbar):
        single = steady_state_numeric(ModelParams(j=j, omega=1.0, gamma_a=g, nbar=n))
        if j > 5:  # the same route: a grid of one point
            assert np.array_equal(rho, single)
        else:
            assert np.abs(rho - single).max() <= 1e-14


def test_steady_states_numeric_input_checks():
    with pytest.raises(CapacityError, match="analytic"):
        steady_states_numeric(128.5, 1.0, [0.5], 0.0)
    with pytest.raises(ValidationError, match="nbar"):
        steady_states_numeric(1, 1.0, [0.5, 0.6], [0.0, -0.1])
    with pytest.raises(ValidationError, match="gamma_a"):
        steady_states_numeric(1, 1.0, [0.5, np.inf], 0.0)
    with pytest.raises(ValidationError, match="1-D"):
        steady_states_numeric(1, 1.0, [[0.5]], 0.0)
    with pytest.raises(ValidationError, match="not unique"):
        steady_states_numeric(1, [1.0, 0.0], 0.5, 0.3)
    with pytest.raises(ValidationError, match="no dissipation"):
        steady_states_numeric(1, 1.0, [0.5, 0.0], 0.3)


def test_empty_grids_give_empty_results():
    assert steady_states_numeric(1, 1.0, np.array([]), 0.0).shape == (0, 3, 3)
    assert linalg.null_vector(np.zeros((0, 3, 3)), np.ones(3)).shape == (0, 3)


def test_steady_states_numeric_names_the_failing_point(monkeypatch):
    # a kernel vector that is no state: the stack check names its parameters
    real = dynamics.null_vector

    def corrupted(G, border, settings):
        x = real(G, border, settings)
        x[1] = [1.0, 0.0, 0.0, -0.5, 0.0, 0.5]  # diag(1, -0.5, 0.5) on the block
        return x

    monkeypatch.setattr(dynamics, "null_vector", corrupted)
    with pytest.raises(ValidationError, match=r"omega=1, gamma_a=0\.25, nbar=0\.5 not positive"):
        steady_states_numeric(1, 1.0, [0.5, 0.25, 0.125], 0.5)


def test_fig1_stack_is_one_inverse_of_the_symmetric_blocks(monkeypatch):
    # fig1's j = 1 stack solves the 6 coordinates of the real symmetric
    # block, bordered by the trace: one inverse of a (k, 7, 7) stack
    shapes = []
    real_inv = np.linalg.inv

    def inv(a):
        shapes.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    gammas = np.logspace(-2, 2, 9)
    steady_states_numeric(1, 1.0, gammas, 0.3)
    assert shapes == [(9, 7, 7)]


def test_steady_independent_of_initial_state():
    p = ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.5)
    t = np.array([0.0, 50.0])
    top = evolve(dicke_projector(1, 1), p, t).states[-1]
    bottom = evolve(dicke_projector(1, -1), p, t).states[-1]
    assert trace_distance(top, bottom) < 1e-6
