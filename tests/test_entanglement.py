import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from dickesim import (
    CapacityError,
    ValidationError,
    concurrence,
    pair_reduced_state,
    steady_state_analytic,
    triplet_to_two_qubit,
)
from util import pair_reduced_brute_force, random_density, random_unitary

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def pure(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


BELL_STATES = [
    [1, 0, 0, 1],
    [1, 0, 0, -1],
    [0, 1, 1, 0],
    [0, 1, -1, 0],
]


# ---------------------------------------------------------------- concurrence

@pytest.mark.parametrize("vec", BELL_STATES)
def test_bell_states_maximally_entangled(vec):
    assert concurrence(pure(vec)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "vec",
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0.6, 0.8j, 0, 0],
        np.kron([1, 1j], [2, 1 - 1j]),
    ],
)
def test_product_states_unentangled(vec):
    assert concurrence(pure(vec)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p,expected", [(0.2, 0.0), (0.5, 0.25), (0.9, 0.85)])
def test_werner_mixture_law(p, expected):
    # p * singlet + (1 - p) * I/4 has concurrence max(0, (3p - 1)/2)
    rho = p * pure([0, 1, -1, 0]) + (1.0 - p) * np.eye(4) / 4.0
    assert concurrence(rho) == pytest.approx(expected, abs=1e-10)


def test_maximally_mixed_unentangled():
    assert concurrence(np.eye(4) / 4.0) == 0.0


@given(st.integers(0, 2 ** 32 - 1))
@hyp_settings(max_examples=40, deadline=None)
def test_pure_state_determinant_formula(seed):
    # for a pure state (a, b, c, d) the concurrence is 2 |ad - bc|;
    # the factor form keeps rank-one states accurate to rounding
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    expected = 2.0 * abs(vec[0] * vec[3] - vec[1] * vec[2])
    assert concurrence(pure(vec)) == pytest.approx(expected, abs=1e-12)


def test_local_unitary_invariance_full_rank():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(
            concurrence(rho), abs=1e-10
        )


def test_local_unitary_invariance_low_rank():
    # rank-deficient states are where the eigenvalues of rho * rho_tilde
    # lose half the digits; the factor form must not
    rng = np.random.default_rng(11)
    for rank in (1, 2, 3):
        rho = random_density(rng, 4, rank=rank)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(
            concurrence(rho), abs=1e-12
        )


def test_separable_mixtures_unentangled():
    rng = np.random.default_rng(23)
    for _ in range(10):
        weights = rng.dirichlet(np.ones(4))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            rho += w * np.kron(random_density(rng, 2), random_density(rng, 2))
        assert concurrence(rho) <= 1e-10


def test_concurrence_range_on_random_states():
    rng = np.random.default_rng(31)
    for _ in range(25):
        c = concurrence(random_density(rng, 4))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_concurrence_input_validation():
    with pytest.raises(ValidationError):
        concurrence(np.eye(3) / 3.0)
    with pytest.raises(ValidationError):
        concurrence(np.diag([0.8, 0.4, -0.1, -0.1]))
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3
    with pytest.raises(ValidationError):
        concurrence(bad)


# ---------------------------------------------------------------- embedding

def test_embedding_maps_levels_to_pair_basis():
    top = triplet_to_two_qubit(np.diag([1.0, 0.0, 0.0]))
    assert top[0, 0] == pytest.approx(1.0, abs=1e-15)
    bottom = triplet_to_two_qubit(np.diag([0.0, 0.0, 1.0]))
    assert bottom[3, 3] == pytest.approx(1.0, abs=1e-15)


def test_embedding_middle_level_is_maximally_entangled():
    rho = triplet_to_two_qubit(np.diag([0.0, 1.0, 0.0]))
    expected = pure([0, 1, 1, 0])
    assert np.abs(rho - expected).max() < 1e-15
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_embedding_singlet_population_zero():
    rng = np.random.default_rng(5)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2.0)
    for _ in range(5):
        rho = triplet_to_two_qubit(random_density(rng, 3))
        # the symmetric columns cancel exactly against the singlet
        assert np.abs(rho @ singlet).max() == 0.0
        assert abs(singlet.conj() @ rho @ singlet) < 1e-30


def test_embedding_preserves_trace_and_positivity():
    rng = np.random.default_rng(13)
    rho = triplet_to_two_qubit(random_density(rng, 3))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_embedding_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        triplet_to_two_qubit(np.eye(4) / 4.0)


# ---------------------------------------------------------------- pair reduction

def test_pair_reduction_bottom_level_is_gg():
    for j in (1, 2, 4):
        spin_dim = int(round(2 * j)) + 1
        rho = np.zeros((spin_dim, spin_dim), dtype=complex)
        rho[-1, -1] = 1.0
        pair = pair_reduced_state(rho, j)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert np.abs(pair - expected).max() < 1e-12


def test_pair_reduction_matches_embedding_at_j1():
    # for N = 2 the "pair" is the whole system, so reduction must equal
    # the triplet embedding exactly
    rng = np.random.default_rng(17)
    for _ in range(8):
        rho = random_density(rng, 3)
        assert np.abs(
            pair_reduced_state(rho, 1) - triplet_to_two_qubit(rho)
        ).max() < 1e-12


@pytest.mark.parametrize("j", [2, 3])
def test_pair_reduction_matches_brute_force_on_levels(j):
    spin_dim = int(round(2 * j)) + 1
    for level in range(spin_dim):
        rho = np.zeros((spin_dim, spin_dim), dtype=complex)
        rho[level, level] = 1.0
        fast = pair_reduced_state(rho, j)
        slow = pair_reduced_brute_force(rho, j)
        assert np.abs(fast - slow).max() < 1e-10


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pair_reduction_matches_brute_force_on_random_states(n):
    rng = np.random.default_rng(100 + n)
    j = n / 2.0
    for _ in range(6):
        rho = random_density(rng, n + 1)
        fast = pair_reduced_state(rho, j)
        slow = pair_reduced_brute_force(rho, j)
        assert np.abs(fast - slow).max() < 1e-10


def test_pair_reduction_exchange_symmetric():
    rng = np.random.default_rng(41)
    for j in (1.5, 2, 4):
        rho = random_density(rng, int(round(2 * j)) + 1)
        pair = pair_reduced_state(rho, j)
        assert np.abs(SWAP @ pair @ SWAP - pair).max() < 1e-12
        assert np.trace(pair).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("j", [16, 64])
def test_pair_reduction_of_coherent_state_is_product(j):
    # a spin coherent state is the N-fold product of one qubit state, so
    # every pair is that state twice; this reaches every off-diagonal
    # moment at sizes the brute force cannot
    theta, phi = 1.1, 0.7
    psi = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    n = 2 * j
    k = np.arange(n + 1)  # level k holds k qubits in |g>
    binom = np.array([math.comb(n, i) for i in k], dtype=float)
    amps = np.sqrt(binom) * psi[0] ** (n - k) * psi[1] ** k
    one = np.outer(psi, psi.conj())
    assert np.abs(pair_reduced_state(pure(amps), j) - np.kron(one, one)).max() < 1e-12


def test_pair_reduction_large_j_smoke():
    rho = steady_state_analytic(16, 0.8)
    pair = pair_reduced_state(rho, 16)
    assert np.trace(pair).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(pair).min() > -1e-10


def test_pair_reduction_validation():
    with pytest.raises(ValidationError):
        pair_reduced_state(np.eye(2) / 2.0, 0.5)  # a single qubit has no pair
    with pytest.raises(ValidationError):
        pair_reduced_state(np.eye(3) / 3.0, 2)  # dimension mismatch
    with pytest.raises(CapacityError):
        pair_reduced_brute_force(np.eye(11) / 11.0, 5)
    with pytest.raises(ValidationError):
        pair_reduced_brute_force(np.eye(4) / 4.0, 1)


# ---------------------------------------------------------------- pinned values

def test_driven_pair_concurrence_regression():
    # exact value 1/11 at j = 1, gamma = 1; the state is rank one, which
    # the factor form resolves to rounding
    rho = triplet_to_two_qubit(steady_state_analytic(1, 1.0))
    assert concurrence(rho) == pytest.approx(1.0 / 11.0, abs=1e-12)


def test_driven_pair_concurrence_vanishes_in_both_limits():
    for gamma in (1e-3, 1e3):
        rho = triplet_to_two_qubit(steady_state_analytic(1, gamma))
        assert concurrence(rho) < 1e-3


def test_single_flip_level_pair_concurrence():
    # N qubits sharing a single flip: the pair concurrence of that
    # symmetric level is exactly 2/N; the |gg> population of the pair
    # state is zero only up to rounding, and the concurrence depends on
    # its square root, so the input carries a sqrt(eps)-scale floor
    for n in (2, 4, 6, 8):
        spin_dim = n + 1
        rho = np.zeros((spin_dim, spin_dim), dtype=complex)
        rho[1, 1] = 1.0
        pair = pair_reduced_state(rho, n / 2.0)
        assert concurrence(pair) == pytest.approx(2.0 / n, abs=1e-8)
