"""Shared helpers for the test suite."""

import math

import numpy as np

from dickesim import (
    CapacityError,
    SpinQuantum,
    ValidationError,
    build_jminus,
    meanfield_rhs,
    validate_density_matrix,
    validate_two_qubit_state,
)
from dickesim.linalg import as_complex_matrix


def trace_distance(a, b):
    """(1/2) sum |eig(a - b)| for Hermitian a, b."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum())


def random_density(rng, dim, rank=None):
    """Random density matrix, full rank unless a lower rank is requested."""
    rank = dim if rank is None else rank
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def master_equation_rhs(rho, params):
    """drho/dt in matrix form, an oracle independent of the kron generator.

    -i (omega/2) [J+ + J-, rho]
    + gamma_a nbar/2     (2 J+ rho J- - J- J+ rho - rho J- J+)
    + gamma_a (nbar+1)/2 (2 J- rho J+ - J+ J- rho - rho J+ J-)
    """
    p = params
    jm = build_jminus(p.j)
    jp = jm.conj().T
    ham = 0.5 * p.omega * (jp + jm)
    jmjp, jpjm = jm @ jp, jp @ jm
    rho = np.asarray(rho, dtype=complex)
    return (
        -1j * (ham @ rho - rho @ ham)
        + p.gamma_a * p.nbar / 2.0 * (2.0 * jp @ rho @ jm - jmjp @ rho - rho @ jmjp)
        + p.gamma_a * (p.nbar + 1.0) / 2.0 * (2.0 * jm @ rho @ jp - jpjm @ rho - rho @ jpjm)
    )


def pair_reduced_brute_force(rho, spin):
    """Oracle for pair_reduced_state via the full 2^N embedding, N <= 8.

    Each collective level with k excitations is expanded into the equal
    superposition of the C(N, k) basis strings holding k excitations,
    the state is conjugated into the 2^N space, and qubits 3..N are
    traced out exactly.
    """
    s = SpinQuantum.from_j(spin)
    if s.two_j < 2:
        raise ValidationError(f"pair reduction needs j >= 1, got j = {s.j}")
    n = s.two_j
    if n > 8:
        raise CapacityError(f"brute-force embedding capped at N = 8 qubits, got N = {n}")
    rho = as_complex_matrix(rho, "rho")
    if rho.shape[0] != s.dim:
        raise ValidationError(f"state dimension {rho.shape[0]} does not match j = {s.j}")
    validate_density_matrix(rho, name="rho")

    embed = np.zeros((2 ** n, s.dim))
    for col in range(s.dim):
        k = s.two_j - col  # excitations at this level; |e> encodes as bit 0
        norm = 1.0 / np.sqrt(math.comb(n, k))
        for string in range(2 ** n):
            if n - bin(string).count("1") == k:
                embed[string, col] = norm
    full = embed @ rho @ embed.T
    blocks = full.reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2))
    out = np.einsum("arbr->ab", blocks)
    out = 0.5 * (out + out.conj().T)
    return validate_two_qubit_state(out, name="pair-reduced state (brute force)")


def finite_difference_jacobian(s, omega_r, step=1e-6):
    """Central-difference Jacobian, the independent check on meanfield_jacobian."""
    s = np.asarray(s, dtype=float)
    out = np.zeros((3, 3))
    for k in range(3):
        bump = np.zeros(3)
        bump[k] = step
        out[:, k] = (meanfield_rhs(s + bump, omega_r) - meanfield_rhs(s - bump, omega_r)) / (
            2.0 * step
        )
    return out
