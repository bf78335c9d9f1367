"""Two-qubit entanglement of collective spin states.

Three pieces, each for one state or a (..., d, d) stack of them: the
Wootters concurrence of a two-qubit state, the isometric embedding of a
spin-1 state into the two-qubit triplet sector, and the reduction of a
permutation-symmetric N-qubit state (stored as a (2j+1)-dimensional
collective state, N = 2j) to any pair of its constituents.  The
reduction reads six collective moments from the main diagonal and the
first two subdiagonals, so it costs O(d) a state beyond validating its
input.  Its independent oracle, the brute-force 2^N embedding (N <= 8),
lives in the tests.  Every state they check goes through the one stacked
state check of dynamics (check_states, with its fixed limits), a single
state as a stack of one; none of the three takes a tolerance.

Two-qubit basis order is (|ee>, |eg>, |ge>, |gg>) with |e> first in each
factor.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .dynamics import check_states, stack_labels, validate_density_matrix
from .spin_ops import SpinQuantum, ladder_coefficients, m_values

_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_YY = np.kron(_SY, _SY)
# the isometry of triplet_to_two_qubit
_ISO = np.zeros((4, 3))
_ISO[0, 0] = 1.0
_ISO[1, 1] = _ISO[2, 1] = 1.0 / np.sqrt(2.0)
_ISO[3, 2] = 1.0


def concurrence(rho):
    """Wootters concurrence C(rho) of a two-qubit state, or of a stack of them.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots
    of the eigenvalues of rho @ rho_tilde, rho_tilde = (sy kron sy)
    rho* (sy kron sy).  For any factor rho = X X^dag those l_i are the
    singular values of X^T (sy kron sy) X, which stays accurate to
    rounding when rho is rank-deficient, where the eigenvalues of the
    non-Hermitian product lose half the digits.  The one eigh that
    gives the factor also gives the positivity check of the input.

    The state or stack is checked as one stack (dynamics.check_states),
    which names the first failing state as rho, or rho[index] in a
    stack, and the concurrences come from one pass over it.  One 4x4
    state gives a float, a (..., 4, 4) stack an array of the stack's
    leading shape.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ValidationError(f"rho must be 4x4 or a stack of 4x4 states, got {rho.shape}")
    w, v = check_states(rho.reshape(-1, 4, 4), stack_labels("rho", rho.shape[:-2]), np.linalg.eigh)
    x = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    lam = np.linalg.svd(x.swapaxes(1, 2) @ _YY @ x, compute_uv=False)
    c = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return float(c[0]) if rho.ndim == 2 else c.reshape(rho.shape[:-2])


def triplet_to_two_qubit(rho3) -> np.ndarray:
    """Embed a spin-1 state, or a (..., 3, 3) stack of them, into two qubits.

    Through the triplet sector, by the isometry top level -> |ee>,
    middle -> (|eg>+|ge>)/sqrt(2), bottom -> |gg>.  The singlet
    component of the output is exactly zero.
    """
    rho3 = np.asarray(rho3, dtype=complex)
    if rho3.ndim < 2 or rho3.shape[-2:] != (3, 3):
        raise ValidationError(f"spin-1 state must be 3x3, got {rho3.shape}")
    validate_density_matrix(rho3, "rho3")
    return _ISO @ rho3 @ _ISO.T


def pair_reduced_state(rho, spin) -> np.ndarray:
    """Two-qubit reduced state of a symmetric N-qubit state, N = 2j.

    Works entirely from collective moments (Wang and Molmer, Eur. Phys.
    J. D 18, 385 (2002)).  With p_k = rho[k, k], c_k = J-[k+1, k] and
    m_k = j - k, the moments <Jz>, <Jz^2>, <J+J->, <J+>, <J+^2> and
    <J+Jz> are sums over the main diagonal and the first two
    subdiagonals.  Single-site moments follow from <Jz>/N and <J+>/N;
    two-site moments from the rest after removing same-site
    contributions (sum_i s+_i s-_i = N/2 + Jz and s+ sz = -s+ on one
    site) and dividing by the N(N-1) ordered pairs.  The exchange-
    symmetric 4x4 is filled from those numbers directly.

    One (d, d) state gives (4, 4), a (..., d, d) stack (..., 4, 4).  Input
    and output are each checked as one stack (validate_density_matrix).
    The moments are summed elementwise products, not matrix products,
    so a state's result does not depend on the stack it sits in.
    """
    s = SpinQuantum.from_j(spin)
    if s.two_j < 2:
        raise ValidationError(f"pair reduction needs j >= 1, got j = {s.j}")
    rho = validate_density_matrix(rho, "rho")
    if rho.shape[-1] != s.dim:
        raise ValidationError(f"state dimension {rho.shape[-1]} does not match j = {s.j}")

    n = float(s.two_j)
    c = ladder_coefficients(s)
    m = m_values(s)
    p = np.diagonal(rho, axis1=-2, axis2=-1).real
    sub1 = np.diagonal(rho, -1, axis1=-2, axis2=-1)   # rho[k+1, k]
    sub2 = np.diagonal(rho, -2, axis1=-2, axis2=-1)   # rho[k+2, k]

    mz = (p * m).sum(axis=-1)
    mzz = (p * (m * m)).sum(axis=-1)
    mpm = (p[..., :-1] * (c * c)).sum(axis=-1)
    mp = (sub1 * c).sum(axis=-1)
    mpp = (sub2 * (c[:-1] * c[1:])).sum(axis=-1)
    mpz = (sub1 * (c * m[1:])).sum(axis=-1)

    pairs = n * (n - 1.0)
    one_z = 2.0 * mz / n                      # <sz> on one site
    one_p = mp / n                            # <s+> on one site
    pp = mpp / pairs                          # <s+ s+> across sites
    pm = (mpm - n / 2.0 - mz) / pairs         # <s+ s-> across sites
    zz = (4.0 * mzz - n) / pairs              # <sz sz> across sites
    pz = (2.0 * mpz + mp) / pairs             # <s+ sz> across sites

    a = np.conj(one_p + pz) / 2.0
    b = np.conj(one_p - pz) / 2.0
    mid = (1.0 - zz) / 4.0
    out = np.moveaxis(np.array([
        [(1.0 + 2.0 * one_z + zz) / 4.0, a, a, np.conj(pp)],
        [np.conj(a), mid, pm, b],
        [np.conj(a), pm, mid, b],
        [pp, np.conj(b), np.conj(b), (1.0 - 2.0 * one_z + zz) / 4.0],
    ], dtype=complex), (0, 1), (-2, -1))
    return validate_density_matrix(out, "pair-reduced state")
