"""Shared helpers for the test suite."""

import math

import numpy as np
import scipy.integrate

from dickesim import (
    DEFAULT,
    CapacityError,
    DegenerateKernelError,
    SpinQuantum,
    ValidationError,
    build_jminus,
    build_liouvillian,
    m_values,
    meanfield_rhs,
    validate_density_matrix,
)
from dickesim import linalg


def trace_distance(a, b):
    """(1/2) sum |eig(a - b)| for Hermitian a, b."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum())


def random_density(rng, dim, rank=None):
    """Random density matrix, full rank unless a lower rank is requested."""
    rank = dim if rank is None else rank
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def corrupt_state(kind, rho):
    """A copy of rho that fails one state check: trace, Hermitian, positive or non-finite."""
    bad = rho.copy()
    if kind == "trace":
        bad *= 1.01
    elif kind == "Hermitian":
        bad[0, 1] += 1e-6
    elif kind == "positive":
        bad = np.diag([1.5, -0.5] + [0.0] * (len(rho) - 2)).astype(complex)
    else:
        bad[1, 1] = np.nan
    return bad


def closed_form_j1(gamma):
    """The explicit 3x3 stationary matrix of the spin-1 (two-ion) case.

    Hand-expanded form of steady_state_analytic at j = 1, kept as an
    independent code path for cross-checks.  An array of gamma gives a
    stack of shape gamma.shape + (3, 3).
    """
    gamma = np.asarray(gamma, dtype=float)
    valid = np.isfinite(gamma) & (gamma >= 0)
    if not valid.all():
        bad = float(gamma[~valid].flat[0])
        raise ValidationError(f"gamma must be finite and >= 0, got {bad!r}")
    g2 = gamma * gamma
    r2 = np.sqrt(2.0)
    off = r2 * gamma + 2.0 * r2 * gamma * g2
    rho = np.array(
        [
            [np.ones_like(gamma), -1j * r2 * gamma, -2.0 * g2],
            [1j * r2 * gamma, 1.0 + 2.0 * g2, -1j * off],
            [-2.0 * g2, 1j * off, 1.0 + 2.0 * g2 + 4.0 * g2 * g2],
        ],
        dtype=complex,
    )
    rho = rho / (3.0 + 4.0 * g2 + 4.0 * g2 * g2)
    return np.moveaxis(rho, (0, 1), (-2, -1))  # gamma's axes first


def vec(rho):
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(x, dim):
    return np.asarray(x, dtype=complex).reshape(dim, dim, order="F")


def expectation(rho, operator):
    """tr(rho A) for matching square matrices."""
    rho = np.asarray(rho, dtype=complex)
    A = np.asarray(operator, dtype=complex)
    if rho.shape != A.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(
            f"shape mismatch in expectation: state {rho.shape}, operator {A.shape}"
        )
    return complex(np.einsum("ij,ji->", rho, A))


def build_jplus(j):
    """J+ |j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1>, one column at a time.

    Built from the textbook formula, independently of build_jminus;
    every radicand is exact in double precision, so J+ equals the
    adjoint of J- bit for bit.
    """
    m = m_values(j)
    out = np.zeros((len(m), len(m)), dtype=complex)
    for col in range(1, len(m)):
        out[col - 1, col] = np.sqrt(j * (j + 1) - m[col] * (m[col] + 1))
    return out


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


def liouvillian_kron(params):
    """The generator as the dense Kronecker sum, term by term.

    vec(A X B) = (B^T kron A) vec(X) with column stacking; the oracle
    the sparse build_liouvillian must equal entry for entry.
    """
    p = params
    jm = build_jminus(p.j)
    jp = jm.conj().T
    eye = np.eye(p.j.dim)

    def pre(a):
        return np.kron(eye, a)

    def post(a):
        return np.kron(a.T, eye)

    ham = 0.5 * p.omega * (jp + jm)
    jmjp, jpjm = jm @ jp, jp @ jm
    out = -1j * (pre(ham) - post(ham))
    out = out + p.gamma_a * p.nbar / 2.0 * (2.0 * np.kron(jm.T, jp) - pre(jmjp) - post(jmjp))
    out = out + p.gamma_a * (p.nbar + 1.0) / 2.0 * (2.0 * np.kron(jp.T, jm) - pre(jpjm) - post(jpjm))
    return out


def null_vector_svd(A, settings=DEFAULT):
    """Oracle for null_vector through the full SVD of a dense matrix.

    The smallest singular value must sit below null_rtol * ||A||_F and
    the second smallest above null_gap_rtol * ||A||_F; otherwise
    DegenerateKernelError.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.all(np.isfinite(A)):
        raise ValidationError(f"matrix must be finite and square, got shape {A.shape}")
    fnorm = float(np.linalg.norm(A, "fro"))
    if fnorm == 0.0:
        if A.shape[0] == 1:
            return np.ones(1, dtype=complex)
        raise DegenerateKernelError(
            f"zero matrix of size {A.shape[0]}: null space has dimension {A.shape[0]}"
        )
    _, s, Vh = np.linalg.svd(A)
    if s[-1] > settings.null_rtol * fnorm:
        raise DegenerateKernelError(
            f"no null vector at working precision: smallest singular values "
            f"({s[-2]:.3e}, {s[-1]:.3e}), ||A||_F = {fnorm:.3e}"
        )
    if len(s) >= 2 and s[-2] < settings.null_gap_rtol * fnorm:
        raise DegenerateKernelError(
            f"null space not one-dimensional: smallest singular values "
            f"({s[-2]:.3e}, {s[-1]:.3e}), ||A||_F = {fnorm:.3e}"
        )
    return Vh[-1].conj()


def superlu_null_vector(A, border, settings=DEFAULT, label=None):
    """linalg._sparse_null_vector of a canonical CSC matrix A: the SuperLU route.

    Borders A's own structure (linalg._border_pattern), as the steady
    states do with their cached block structure, and solves it; A's
    explicit zeros stay entries.
    """
    assert A.format == "csc" and A.has_canonical_format, "A must be canonical CSC"
    border = np.asarray(border)
    pattern = linalg._border_pattern(A.indptr, A.indices, np.flatnonzero(border))
    return linalg._sparse_null_vector(pattern, A.data, border, settings, label)


def bordered_bmat(A, border):
    """[[A, b], [b^H, 0]] as canonical CSC by scipy.sparse.bmat, b the border at null_vector's scale.

    null_vector scales b to ||A||_F / sqrt(n); A's explicit zeros are
    kept, and only b's nonzeros are stored.  The oracle for the bordered
    matrix that superlu_null_vector hands to SuperLU.
    """
    import scipy.sparse as sp

    A = sp.coo_array(A)
    n = A.shape[0]
    fnorm = np.linalg.norm(sp.csc_array(A).data)
    b = (fnorm / np.sqrt(n) / np.linalg.norm(border)) * np.asarray(border)
    M = sp.bmat([[A, sp.coo_array(b[:, None])], [sp.coo_array(b.conj()[None, :]), None]])
    return sp.csc_array(M)


def steady_state_svd(params):
    """Steady state through the dense generator and null_vector_svd."""
    d = params.j.dim
    rho = null_vector_svd(liouvillian_kron(params)).reshape(d, d, order="F")
    rho = rho / np.trace(rho)
    return validate_density_matrix(0.5 * (rho + rho.conj().T), name="steady state (SVD)")


def gauge_phase(d):
    """The (d, d) phase ph[a, b] = i^(b - a) of the real gauge rho = ph * Y."""
    k = np.arange(d)
    return np.array([1.0, 1.0j, -1.0, -1.0j])[(k[None, :] - k[:, None]) % 4]


def gauge_entry_phase(L):
    """conj(ph_r) ph_c on each stored entry (r, c) of a CSC generator of d x d states.

    Built from ph alone, independent of the per-term phase i^(da - db)
    of dynamics._stencil: phase * L.data are the entries of the generator
    in the real gauge.
    """
    d = math.isqrt(L.shape[0])
    flat = vec(gauge_phase(d))
    return flat.conj()[L.indices] * flat[np.repeat(np.arange(d * d), np.diff(L.indptr))]


def steady_state_full_generator(params, settings=DEFAULT):
    """Steady state from the whole real gauged generator, all d^2 unknowns.

    The gauged generator conj(ph_r) L[r, c] ph_c on build_liouvillian's
    structure (gauge_entry_phase; its entries must come out exactly real),
    bordered by vec(I), its exact left kernel, and solved by SuperLU on
    that structure (superlu_null_vector); the oracle for the
    symmetric-block route that steady_state_numeric takes above j = 5.
    """
    d = params.j.dim
    ph = gauge_phase(d)
    G = build_liouvillian(params)
    gauged = gauge_entry_phase(G) * G.data
    assert not gauged.imag.any(), "gauged generator entries are not real"
    G.data = gauged.real
    Y = superlu_null_vector(G, np.eye(d).ravel(), settings).reshape(d, d, order="F")
    rho = ph * (Y + Y.T) / (2.0 * np.trace(Y))
    return validate_density_matrix(rho, settings, "steady state (full generator)")


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
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (s.dim, s.dim):
        raise ValidationError(f"state shape {rho.shape} does not match j = {s.j}")
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
    return validate_density_matrix(out, name="pair-reduced state (brute force)")


def finite_difference_jacobian(s, omega_r, step=1e-6):
    """Central-difference Jacobian, the independent check on semiclassical._jacobian_kernel."""
    s = np.asarray(s, dtype=float)
    out = np.zeros((3, 3))
    for k in range(3):
        bump = np.zeros(3)
        bump[k] = step
        out[:, k] = (meanfield_rhs(s + bump, omega_r) - meanfield_rhs(s - bump, omega_r)) / (
            2.0 * step
        )
    return out


def meanfield_dop853(s0, omega_r, taus):
    """DOP853 solution of the Bloch equations, the independent check on integrate_meanfield.

    atol is far below any component, so rtol governs even a component
    that starts near 1e-45 and grows as e^(r tau).  Over r <= 4 and
    tau <= 50 that growth is at most e^200 ~ 7e86, so the absolute
    error stays below 1e-33.  At atol = 1e-200 and below, scipy's error
    norm overflows on a subnormal component.
    """

    def rhs(_tau, s):
        sx, sy, sz = s
        return [sz * sx, sz * sy - omega_r * sz, omega_r * sy - sx * sx - sy * sy]

    sol = scipy.integrate.solve_ivp(
        rhs, (taus[0], taus[-1]), np.asarray(s0, dtype=float),
        method="DOP853", t_eval=taus, rtol=1e-13, atol=1e-120,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.y.T


# ------------------------------------------------ mean-field branch oracle
# The per-drive route the stacked semiclassical pass replaced: closed-form
# points, a Newton polish, one eigvals per point and a scalar bisection.

_ZERO_MODE_TOL = 1e-9
_STABILITY_MARGIN = 1e-12


def _rhs(s, omega_r):
    sx, sy, sz = s
    return np.array([sz * sx, sz * sy - omega_r * sz, omega_r * sy - sx * sx - sy * sy])


def _jacobian(s, omega_r):
    sx, sy, sz = s
    return np.array([
        [sz, 0.0, sx],
        [0.0, sz, sy - omega_r],
        [-2.0 * sx, omega_r - 2.0 * sy, 0.0],
    ])


def _transverse(eigs):
    scale = max(1.0, float(np.abs(eigs).max()))
    return eigs[np.abs(eigs) > _ZERO_MODE_TOL * scale]


def fixed_points_per_drive(omega_r):
    """[(point, eigenvalues, stable)] for one drive, the attracting point first."""
    omega_r = float(omega_r)
    if omega_r < 1.0:
        rad = np.sqrt(1.0 - omega_r * omega_r)
        points = [np.array([0.0, omega_r, -rad]), np.array([0.0, omega_r, rad])]
    else:
        sy = 1.0 / omega_r
        sx = np.sqrt(max(0.0, 1.0 - sy * sy))
        points = [np.array([-sx, sy, 0.0]), np.array([sx, sy, 0.0])]
        if sx == 0.0:
            points = points[:1]
    out = []
    for p in points:
        for _ in range(3):  # Newton polish; the Jacobian is singular along the radius
            f = _rhs(p, omega_r)
            if np.linalg.norm(f) < 1e-14:
                break
            p = p + np.linalg.lstsq(_jacobian(p, omega_r), -f, rcond=None)[0]
        if np.linalg.norm(_rhs(p, omega_r)) > 1e-10:
            raise RuntimeError(f"oracle polish failed at omega_r = {omega_r!r}")
        eigs = np.linalg.eigvals(_jacobian(p, omega_r))
        trans = _transverse(eigs)
        out.append((p, eigs, len(trans) > 0 and bool(np.all(trans.real < -_STABILITY_MARGIN))))
    out.sort(key=lambda report: not report[2])
    return out


def branch_summary_per_drive(omega_r):
    """(sz, leading transverse rate) of the least-damped equilibrium of one drive."""

    def leading_rate(report):
        trans = _transverse(report[1])
        return float(trans.real.max()) if len(trans) else 0.0

    best = min(fixed_points_per_drive(omega_r), key=leading_rate)
    return float(best[0][2]), leading_rate(best)


def bifurcation_per_drive(grid, tol):
    """The critical drive by a scalar scan of the grid and bisection to tol.

    The bisection also stops once the midpoint is not strictly inside the
    bracket, so tol = 0 ends at adjacent doubles.
    """

    def attracting(omega_r):
        return branch_summary_per_drive(omega_r)[1] < -_STABILITY_MARGIN

    sides = [attracting(w) for w in grid]
    k = next(k for k in range(len(grid) - 1) if sides[k] and not sides[k + 1])
    lo, hi = grid[k], grid[k + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles: no finer bracket exists
            break
        if attracting(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
