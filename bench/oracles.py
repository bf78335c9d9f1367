"""Reference computations the benchmark checks dickesim's outputs against.

Nothing here calls dickesim.  The spin operators, the master-equation
generator, the steady states, the pair reduction and the concurrence are
written again from their definitions, with different conventions where a
choice exists (row-major vectorisation, the Hermitian form of Wootters'
matrix, the Dicke-state expansion for the pair reduction), so that a
defect in the library cannot cancel against the same defect here.

Basis order matches the library: |j, m> with m descending from +j, so
index 0 is the fully excited level.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.linalg

# Acceptance thresholds.  Each sits two or more orders of magnitude above
# the error the library reaches (NOTES.md lists them) and below the error
# of a wrong output.
STATE_TOL = 1e-9          # hermiticity, unit trace, most negative eigenvalue
RESIDUAL_TOL = 1e-9       # relative generator residual of a steady state
CONCURRENCE_TOL = 1e-6    # Wootters' square roots turn 1e-16 into ~1e-8
EVOLVE_TOL = 1e-8         # Frobenius distance to the expm reference
MEANFIELD_TOL = 1e-7      # Bloch-vector distance to a DOP853 reference
LENGTH_DRIFT_TOL = 1e-8   # the mean-field flow conserves |s| exactly
BRANCH_TOL = 1e-7         # stable-branch sz and leading rate vs closed form
CRITICAL_TOL = 1e-6       # critical scaled drive vs its exact value 1
FIG2_GAMMA1 = 1.0 / 11.0  # two-ion concurrence at gamma = 1


class CheckError(Exception):
    """An output that disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- operators

def lowering(j):
    """J- with <j, m-1| J- |j, m> = sqrt((j + m)(j - m + 1))."""
    d = int(round(2 * j)) + 1
    out = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        m = j - i
        out[i + 1, i] = math.sqrt((j + m) * (j - m + 1))
    return out


def generator_terms(rho, j, omega, gamma_a, nbar):
    """The terms of the master-equation right-hand side, in matrix form."""
    jm = lowering(j)
    jp = jm.conj().T
    h = 0.5 * omega * (jp + jm)
    terms = [-1j * (h @ rho), 1j * (rho @ h)]
    for rate, a in ((gamma_a * (nbar + 1.0), jm), (gamma_a * nbar, jp)):
        if rate == 0.0:
            continue
        ada = a.conj().T @ a
        terms += [rate * (a @ rho @ a.conj().T), -0.5 * rate * (ada @ rho), -0.5 * rate * (rho @ ada)]
    return terms


def relative_residual(rho, j, omega, gamma_a, nbar):
    """||L(rho)||_F divided by the sum of the norms of its terms.

    Zero for an exact steady state and of order one for a state the
    generator moves, whatever the scale of the parameters.
    """
    terms = generator_terms(rho, j, omega, gamma_a, nbar)
    scale = sum(float(np.linalg.norm(t)) for t in terms)
    return float(np.linalg.norm(sum(terms))) / scale


def superoperator(j, omega, gamma_a, nbar):
    """Generator on row-major vectorised states: vec(A X B) = (A kron B^T) vec X."""
    jm = lowering(j)
    jp = jm.conj().T
    d = jm.shape[0]
    eye = np.eye(d)
    h = 0.5 * omega * (jp + jm)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, a in ((gamma_a * (nbar + 1.0), jm), (gamma_a * nbar, jp)):
        ada = a.conj().T @ a
        out += rate * (np.kron(a, a.conj()) - 0.5 * np.kron(ada, eye) - 0.5 * np.kron(eye, ada.T))
    return out


def steady_state_dense(j, omega, gamma_a, nbar):
    """Kernel of the superoperator with the trace fixed to 1 (bordered least squares)."""
    sup = superoperator(j, omega, gamma_a, nbar)
    d = int(round(2 * j)) + 1
    trace_row = np.eye(d).reshape(1, -1)
    lhs = np.vstack([sup, trace_row])
    rhs = np.zeros(lhs.shape[0], dtype=complex)
    rhs[-1] = 1.0
    x = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    rho = x.reshape(d, d)
    return 0.5 * (rho + rho.conj().T)


def steady_state_zero_temperature(j, gamma):
    """rho ~ S S^dag, S = sum_l (i gamma J-)^l, built entry by entry.

    Entry (a, b) of (J-)^(a-b) is the product of the ladder coefficients
    between levels b and a; magnitudes are summed in log space and the
    largest one factored out so that j = 64 stays in double range.
    """
    coeff = np.diag(lowering(j), -1).real
    logc = np.concatenate(([0.0], np.cumsum(np.log(coeff))))
    a, b = np.tril_indices(len(logc))
    logmag = (a - b) * math.log(gamma) + logc[a] - logc[b]
    s = np.zeros((len(logc), len(logc)), dtype=complex)
    s[a, b] = np.exp(logmag - logmag.max()) * (1j) ** ((a - b) % 4)
    rho = s @ s.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------- entanglement

def triplet_embedding():
    """Columns: |ee>, (|eg> + |ge>)/sqrt(2), |gg> in the (ee, eg, ge, gg) basis."""
    iso = np.zeros((4, 3))
    iso[0, 0] = 1.0
    iso[1, 1] = iso[2, 1] = math.sqrt(0.5)
    iso[3, 2] = 1.0
    return iso


def pair_state(rho, j):
    """Two-qubit state of any pair in a symmetric N = 2j qubit state.

    Expands each Dicke level with k excitations as
    |D_N^k> = sum_a sqrt(C(2,a) C(N-2,k-a) / C(N,k)) |D_2^a> |D_{N-2}^{k-a}>
    and traces out the N - 2 other qubits.
    """
    n = int(round(2 * j))
    d = n + 1
    weight = np.zeros((d, 3))  # level index i holds k = n - i excitations
    for i in range(d):
        k = n - i
        for a in range(3):
            if 0 <= k - a <= n - 2:
                weight[i, 2 - a] = math.sqrt(math.comb(2, a) * math.comb(n - 2, k - a) / math.comb(n, k))
    trip = np.zeros((3, 3), dtype=complex)
    for t in range(3):
        for u in range(3):
            # levels i, i' contribute when both leave the same rest state: k - a = k' - a'
            for i in range(d):
                iu = i - t + u
                if 0 <= iu < d:
                    trip[t, u] += rho[i, iu] * weight[i, t] * weight[iu, u]
    iso = triplet_embedding()
    out = iso @ trip @ iso.T
    return 0.5 * (out + out.conj().T)


def concurrence(rho2):
    """Wootters concurrence from the Hermitian matrix sqrt(rho) rho~ sqrt(rho)."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    w, v = np.linalg.eigh(rho2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    tilde = yy @ rho2.conj() @ yy
    r = root @ tilde @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (r + r.conj().T)), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def pair_concurrence(rho, j):
    if int(round(2 * j)) == 2:
        iso = triplet_embedding()
        return concurrence(iso @ rho @ iso.T)
    return concurrence(pair_state(rho, j))


# ---------------------------------------------------------------- dynamics

def expm_trajectory(rho0, j, omega, gamma_a, nbar, times):
    """exp(L t_k) applied to rho0 at every output time, one expm per time."""
    sup = superoperator(j, omega, gamma_a, nbar)
    d = rho0.shape[0]
    x0 = np.asarray(rho0, dtype=complex).reshape(-1)
    return [(scipy.linalg.expm(sup * t) @ x0).reshape(d, d) for t in times]


def meanfield_reference(s0, omega_r, taus):
    """DOP853 solution of the Bloch equations at the requested times."""

    def rhs(_tau, s):
        sx, sy, sz = s
        return [sz * sx, sz * sy - omega_r * sz, omega_r * sy - sx * sx - sy * sy]

    sol = scipy.integrate.solve_ivp(
        rhs, (taus[0], taus[-1]), s0, method="DOP853", t_eval=taus, rtol=1e-12, atol=1e-13
    )
    if not sol.success:
        raise RuntimeError(f"mean-field reference failed: {sol.message}")
    return sol.y.T


def stable_branch(omega_r):
    """(sz, leading transverse rate) of the best equilibrium, in closed form.

    Below omega_r = 1 the attractor (0, omega_r, -r), r = sqrt(1 - omega_r^2),
    has transverse eigenvalues -r, -r; above it only centres with rate 0 remain.
    """
    if omega_r < 1.0:
        r = math.sqrt(1.0 - omega_r * omega_r)
        return -r, -r
    return 0.0, 0.0


# ---------------------------------------------------------------- checks

def check_state(rho, label):
    """Hermitian, unit trace and positive semidefinite within STATE_TOL."""
    rho = np.asarray(rho, dtype=complex)
    require(np.all(np.isfinite(rho)), f"{label}: non-finite entries")
    herm = float(np.abs(rho - rho.conj().T).max())
    require(herm <= STATE_TOL, f"{label}: not Hermitian (defect {herm:.2e})")
    tr = complex(np.trace(rho))
    require(abs(tr - 1.0) <= STATE_TOL, f"{label}: trace {tr!r}")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    require(low >= -STATE_TOL, f"{label}: negative eigenvalue {low:.2e}")


def check_steady(rho, j, omega, gamma_a, nbar, label):
    """Returns the relative residual after checking it and the state."""
    check_state(rho, label)
    res = relative_residual(np.asarray(rho, dtype=complex), j, omega, gamma_a, nbar)
    require(res <= RESIDUAL_TOL, f"{label}: generator residual {res:.2e} > {RESIDUAL_TOL:.0e}")
    return res


def check_close(value, expected, tol, label):
    value, expected = float(value), float(expected)
    err = abs(value - expected)
    require(math.isfinite(value) and err <= tol, f"{label}: {value!r} vs reference {expected!r}")
    return err


def check_trajectory(states, reference, label):
    """Max Frobenius distance to the reference, after checking each state."""
    require(len(states) == len(reference), f"{label}: {len(states)} states, expected {len(reference)}")
    err = 0.0
    for k, (rho, ref) in enumerate(zip(states, reference)):
        check_state(rho, f"{label} point {k}")
        err = max(err, float(np.linalg.norm(np.asarray(rho) - ref)))
    require(err <= EVOLVE_TOL, f"{label}: distance {err:.2e} to expm reference > {EVOLVE_TOL:.0e}")
    return err


def check_meanfield(path, reference, label):
    path = np.asarray(path, dtype=float)
    require(path.shape == reference.shape, f"{label}: shape {path.shape}, expected {reference.shape}")
    drift = float(np.abs(np.linalg.norm(path, axis=1) - np.linalg.norm(path[0])).max())
    require(drift <= LENGTH_DRIFT_TOL, f"{label}: spin length drifts by {drift:.2e}")
    err = float(np.abs(path - reference).max())
    require(err <= MEANFIELD_TOL, f"{label}: distance {err:.2e} to DOP853 reference")
    return err


def read_csv(text, header):
    lines = text.splitlines()
    require(bool(lines) and lines[0] == ",".join(header), f"unexpected CSV header {lines[:1]!r}")
    return np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])


def read_steady_text(text):
    """(matrix, {label: value}) from the CLI's text output of `steady`."""
    lines = text.splitlines()
    fields = {}
    real, imag, block = [], [], None
    for line in lines:
        if line == "matrix real part:":
            block = real
        elif line == "matrix imaginary part:":
            block = imag
        elif line.startswith("  ") and block is not None:
            block.append([float(v) for v in line.split()])
        else:
            block = None
            key, _, value = line.partition(" = ")
            fields[key] = value
    require(real and len(real) == len(imag), "steady output has no matrix")
    return np.array(real) + 1j * np.array(imag), fields
