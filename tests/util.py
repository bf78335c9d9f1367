"""Shared helpers for the test suite."""

import numpy as np

from dickesim import build_jminus


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
