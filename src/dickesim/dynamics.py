"""Time evolution and numeric steady states for the driven damped spin.

The model: a single collective spin j, resonantly driven with strength
omega through J+ + J-, damped collectively at rate gamma_a into a bath
with mean occupation nbar.  In matrix form the generator is

    drho/dt = -i (omega/2) [J+ + J-, rho]
              + gamma_a * nbar/2     * (2 J+ rho J- - J- J+ rho - rho J- J+)
              + gamma_a * (nbar+1)/2 * (2 J- rho J+ - J+ J- rho - rho J+ J-)

Superoperators use column stacking throughout: vec(A X B) = (B^T kron A) vec(X).

Time evolution works in the real gauge rho[a, b] = i^(b - a) Y[a, b].
There the generator is real and never mixes the real symmetric and the
real antisymmetric part of Y, so evolve propagates them as two real
coordinate vectors, with exact matrix exponentials of sizes d(d+1)/2
and d(d-1)/2 instead of one complex d^2 x d^2 one.  Its work and memory
are bounded up front (EXPM_WORK_LIMIT, STATE_ENTRY_LIMIT), and the
states are checked in bounded chunks.  Steady states are solved in the
same gauge, as the kernel of the real generator: one state at a time
(steady_state_numeric, on the symmetric block's d(d+1)/2 coordinates
above j = 5 and on all d^2 up to it), or a whole parameter grid of
small spins as one stack (steady_states_numeric).  scipy is imported
only by evolve (scipy.linalg, for expm), build_liouvillian and
steady_state_numeric (scipy.sparse).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapacityError, ValidationError
from .linalg import as_complex_matrix, null_vector, require_hermitian
from .settings import DEFAULT, NumericSettings
from .spin_ops import SpinQuantum, ladder_coefficients

# evolve's two real propagators have d(d+1)/2 and d(d-1)/2 rows, so their
# cost grows as d^6; a real expm of size 2145 (j = 32) takes 5.3 s
DENSE_DIM_LIMIT = 33
# steady_state_numeric factors one sparse real block of d(d+1)/2 unknowns;
# on one core a solve takes 32-65 ms at j = 64, and at j = 128 (the CLI's
# J_VALUE_LIMIT) 0.24-0.50 s at most 179 MB max RSS, nbar 0-3 and
# gamma_a 0.001-10
STEADY_DIM_LIMIT = 257
# evolve's matrix-exponential budget: distinct time steps times the cubed
# sizes of both real blocks; 30 distinct steps at j = 16, measured at 6.9 s
# on one BLAS thread (log grid to t = 10, nbar = 0.3, random mixed rho0)
EXPM_WORK_LIMIT = 1e10
# evolve's state budget, len(t_grid) * d^2 complex entries: 67 MB of
# returned states (3851 times at j = 16); with the block coordinates and
# the chunked check the peak is ~1.6 times that, measured with tracemalloc
# (at j = 16 the propagators' workspace adds a fixed ~27 MB)
STATE_ENTRY_LIMIT = 2 ** 22
# validate_density_matrix checks stacks this many entries at a time (1 MB complex)
CHECK_CHUNK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one simulation run.

    j may be given as SpinQuantum, int, or half-integer float; it is
    normalized on construction.  Frequencies are in the same units, so
    gamma = gamma_a / omega is the single dimensionless damping knob and
    omega_r = omega / (j * gamma_a) the scaled drive.
    """

    j: SpinQuantum
    omega: float
    gamma_a: float
    nbar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j", SpinQuantum.from_j(self.j))
        for name in ("omega", "gamma_a", "nbar"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)
        if self.omega == 0.0 and self.gamma_a == 0.0:
            raise ValidationError("omega and gamma_a cannot both be zero: no dynamics")

    @property
    def gamma(self) -> float:
        """Damping-to-drive ratio gamma_a / omega."""
        if self.omega <= 0:
            raise ValidationError("gamma undefined at omega = 0")
        return self.gamma_a / self.omega

    @property
    def omega_r(self) -> float:
        """Scaled drive omega / (j * gamma_a), the semiclassical control knob."""
        if self.gamma_a <= 0 or self.j.two_j == 0:
            raise ValidationError("omega_r undefined at gamma_a = 0 or j = 0")
        return self.omega / (self.j.j * self.gamma_a)


@dataclass(frozen=True)
class Trajectory:
    """Simulation output: times[k] paired with density matrix states[k].

    states is one (T, d, d) complex array.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValidationError("times and states lengths differ")


def check_hermitian_unit_trace(rho, settings: NumericSettings = DEFAULT, name="rho"):
    """The two state invariants that need no spectrum; returns the array."""
    rho = as_complex_matrix(rho, name)
    require_hermitian(rho, settings.hermiticity_tol, name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > settings.trace_tol:
        raise ValidationError(f"{name} trace deviates from 1: tr = {tr!r}")
    return rho


def require_eig_floor(lowest, settings: NumericSettings = DEFAULT, name="rho"):
    """The third invariant, given the smallest eigenvalue of the hermitized state."""
    if lowest < settings.density_eig_floor:
        raise ValidationError(
            f"{name} not positive semidefinite: min eigenvalue {lowest:.3e}"
        )


def check_states(states, settings: NumericSettings, label, spectrum=np.linalg.eigvalsh):
    """The three state invariants on a (k, d, d) stack.

    Returns spectrum(H) of the hermitized states H = (rho + rho^dag) / 2:
    spectrum maps them to their ascending eigenvalues, or to a tuple
    that starts with them (as np.linalg.eigh does).  The first failing
    state, named label(k), raises the ValidationError that the
    single-state checks raise for it.
    """
    adjoint = states.conj().swapaxes(1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf: reported as non-finite below
        defect = np.abs(states - adjoint).max(axis=(1, 2))
    trace_err = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    passed = (defect <= settings.hermiticity_tol) & (trace_err <= settings.trace_tol)
    first_bad = len(states) if passed.all() else int(np.argmin(passed))
    out = spectrum(0.5 * (states[:first_bad] + adjoint[:first_bad]))
    lowest = (out[0] if isinstance(out, tuple) else out)[:, 0]
    if first_bad and lowest.min() < settings.density_eig_floor:
        k = int(np.argmax(lowest < settings.density_eig_floor))
        require_eig_floor(float(lowest[k]), settings, label(k))
    if first_bad < len(states):
        check_hermitian_unit_trace(states[first_bad], settings, label(first_bad))
    return out


def stack_labels(name, shape):
    """label(k) for the k-th state of a stack of the given leading shape.

    A callable name is used as it is; a string becomes name[index].
    """
    if callable(name):
        return name
    return lambda k: f"{name}[{', '.join(str(i) for i in np.unravel_index(k, shape))}]"


def validate_density_matrix(rho, settings: NumericSettings = DEFAULT, name="rho"):
    """Check the three state invariants, returning the validated array.

    Hermitian within hermiticity_tol, unit trace within trace_tol, and
    smallest eigenvalue above density_eig_floor.  Raises ValidationError
    naming the violated check.  rho may be one (d, d) state or a
    (..., d, d) stack, checked in chunks of CHECK_CHUNK_ENTRIES entries;
    the error then names the first failing state, as name(k) for the
    k-th state in C order when name is callable, else as name[index].
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 2:  # one state: the same checks, without the stack's bookkeeping
        rho = check_hermitian_unit_trace(rho, settings, name)
        require_eig_floor(float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]), settings, name)
        return rho
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or rho.shape[-1] < 1:
        raise ValidationError(
            f"{name} must be a square matrix or a stack of them, got shape {rho.shape}"
        )
    d = rho.shape[-1]
    states = rho.reshape(-1, d, d)
    label = stack_labels(name, rho.shape[:-2])
    size = max(1, CHECK_CHUNK_ENTRIES // (d * d))
    for start in range(0, len(states), size):
        check_states(states[start:start + size], settings, lambda k: label(start + k))
    return rho


@functools.lru_cache(maxsize=64)
def _generator_pattern(two_j):
    """CSC structure of the generator and its three unit-rate value arrays.

    Row a + d b of L vec(X) is drho[a, b].  With c_k = J-[k+1, k], it
    reads X at (a, b) and at six neighbours:

        drive (omega = 1):  -i/2 (c_a X[a+1, b] + c_{a-1} X[a-1, b]
                                  - c_b X[a, b+1] - c_{b-1} X[a, b-1])
        heating (rate 1):   2 c_a c_b X[a+1, b+1] - (c_{a-1}^2 + c_{b-1}^2) X[a, b]
        decay (rate 1):     2 c_{a-1} c_{b-1} X[a-1, b-1] - (c_a^2 + c_b^2) X[a, b]

    where c_{-1} = c_{2j} = 0.  Each value is computed as in the
    Kronecker-sum form, so build_liouvillian reproduces it bit for bit.
    Returns (indptr, indices, drive, heating, decay), all read-only.
    """
    d = two_j + 1
    c = ladder_coefficients(SpinQuantum(two_j))
    up = np.append(c, 0.0)         # up[k] = J+[k, k+1]
    down = np.insert(c, 0, 0.0)    # down[k] = J-[k, k-1]
    b, a = np.divmod(np.arange(d * d), d)
    zero = np.zeros(d * d)
    terms = (  # (row shift, column shift, drive, heating, decay) of the source X entry
        (1, 0, -0.5j * up[a], zero, zero),
        (-1, 0, -0.5j * down[a], zero, zero),
        (0, 1, 0.5j * up[b], zero, zero),
        (0, -1, 0.5j * down[b], zero, zero),
        (1, 1, zero, 2.0 * up[a] * up[b], zero),
        (-1, -1, zero, zero, 2.0 * down[a] * down[b]),
        (0, 0, zero, -(down[a] * down[a] + down[b] * down[b]), -(up[a] * up[a] + up[b] * up[b])),
    )
    rows, cols, values = [], [], []
    for da, db, *parts in terms:
        keep = (a + da >= 0) & (a + da < d) & (b + db >= 0) & (b + db < d)
        rows.append((a + d * b)[keep])
        cols.append((a + da + d * (b + db))[keep])
        values.append([np.asarray(v, dtype=complex)[keep] for v in parts])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((rows, cols))
    indptr = np.zeros(d * d + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=d * d), out=indptr[1:])
    out = [indptr, rows[order].astype(np.int32)]
    out += [np.concatenate(part)[order] for part in zip(*values)]
    for arr in out:
        arr.flags.writeable = False
    return tuple(out)


def _generator_values(two_j, omega, gamma_a, nbar):
    """The generator's entries in _generator_pattern's order.

    The cached unit-rate values combined with omega, gamma_a nbar / 2
    and gamma_a (nbar + 1) / 2; rates of shape (k, 1) give (k, nnz).
    """
    drive, heating, decay = _generator_pattern(two_j)[2:]
    return (
        omega * drive
        + (gamma_a * nbar / 2.0) * heating
        + (gamma_a * (nbar + 1.0) / 2.0) * decay
    )


def build_liouvillian(params: ModelParams) -> "scipy.sparse.csc_array":
    """Sparse (d^2, d^2) generator acting on column-stacked states.

    At most seven nonzeros per row.  The structure and the unit-rate
    values are cached per 2j; a call only combines them with the rates
    (_generator_values).  The entries equal the dense Kronecker-sum
    form exactly.
    """
    import scipy.sparse as sp

    p = params
    indptr, indices = _generator_pattern(p.j.two_j)[:2]
    data = _generator_values(p.j.two_j, p.omega, p.gamma_a, p.nbar)
    n = len(indptr) - 1
    return sp.csc_array((data, indices, indptr), shape=(n, n))


def _require_dense(params: ModelParams):
    """evolve's size limit; steady_state_numeric has its own, STEADY_DIM_LIMIT."""
    d = params.j.dim
    if d > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"dimension {d} exceeds evolve's limit {DENSE_DIM_LIMIT} (j <= 16)"
        )


@functools.lru_cache(maxsize=64)
def _gauge_phase(two_j):
    """The gauge rho[a, b] = i^(b - a) Y[a, b] and its phase on each generator entry.

    In the gauge, entry (r, c) of L becomes conj(ph_r) L[r, c] ph_c,
    exactly real for this model: the drive entries are imaginary and
    change a - b by one, the dissipator entries are real and keep it.
    Returns (ph, phase): the (d, d) phase i^(b - a), and conj(ph_r) ph_c
    for each entry of _generator_pattern's CSC structure, in its order.
    Both are read-only.
    """
    d = two_j + 1
    ph = np.array([1.0, 1.0j, -1.0, -1.0j])[-np.subtract.outer(np.arange(d), np.arange(d)) % 4]
    indptr, indices = _generator_pattern(two_j)[:2]
    flat = ph.ravel(order="F")  # products of units are exact
    phase = flat.conj()[indices] * flat[np.repeat(np.arange(d * d), np.diff(indptr))]
    ph.flags.writeable = phase.flags.writeable = False
    return ph, phase


@functools.lru_cache(maxsize=64)
def _real_gauge(two_j):
    """The generator's two real blocks in the gauge of _gauge_phase.

    The real generator maps real symmetric Y to real symmetric and real
    antisymmetric to real antisymmetric, so Y = S + i K splits into the
    upper triangle of S (d(d+1)/2 coordinates) and the strict upper
    triangle of K (d(d-1)/2).  Row (a, b) reads X at (a, b),
    (a +- 1, b), (a, b +- 1) and (a +- 1, b +- 1).  Diagonal rows read
    just below the diagonal, which the symmetric block folds onto
    S[c, e] = S[e, c]; rows above the diagonal read nothing below it, so
    the antisymmetric block needs no fold, and its diagonal columns drop
    out, K being 0 there.

    Returns (ph, sym, anti): ph is the (d, d) phase i^(b - a), and each
    block is (n, triangle, take, flat, unit): its size, its (rows,
    columns) in Y, the generator entries it reads, where each lands in
    the flattened n x n block, and the unit it is multiplied by before
    its real part is taken.  All arrays are read-only.
    """
    d = two_j + 1
    ph, phase = _gauge_phase(two_j)
    indptr, indices = _generator_pattern(two_j)[:2]
    b_r, a_r = np.divmod(indices.astype(np.intp), d)
    b_c, a_c = np.divmod(np.repeat(np.arange(d * d), np.diff(indptr)), d)

    def block(offset):
        triangle = np.triu_indices(d, offset)
        n = len(triangle[0])
        coord = np.full((d, d), -1)
        coord[triangle] = coord[triangle[::-1]] = np.arange(n)
        cols = coord[a_c, b_c]
        take = np.flatnonzero((b_r - a_r >= offset) & (cols >= 0))
        return n, triangle, take, coord[a_r, b_r][take] * n + cols[take], phase[take]

    sym, anti = block(0), block(1)
    for arr in (*sym[1], *sym[2:], *anti[1], *anti[2:]):
        arr.flags.writeable = False
    return ph, sym, anti


@functools.lru_cache(maxsize=64)
def _symmetric_csc(two_j):
    """Canonical CSC structure of _real_gauge's symmetric block.

    Returns (indptr, indices, slot, trace): the structure, the data
    position of each generator entry the block takes (an entry folded
    onto an existing one shares its slot, so np.bincount sums them),
    and the trace functional on the block's coordinates, 1 on the
    diagonal ones.  All are read-only.
    """
    n, triangle, _, flat, _ = _real_gauge(two_j)[1]
    rows, cols = np.divmod(flat, n)
    keys, slot = np.unique(cols * n + rows, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    out = (indptr, (keys % n).astype(np.int32), slot, (triangle[0] == triangle[1]).astype(float))
    for arr in out:
        arr.flags.writeable = False
    return out


def _symmetric_block(params: ModelParams):
    """(block, trace): the real symmetric block of the gauged generator.

    The block of _real_gauge as canonical CSC on the structure of
    _symmetric_csc, for the rates of params, and the trace functional,
    its exact left kernel.
    """
    import scipy.sparse as sp

    p = params
    n, _, take, _, unit = _real_gauge(p.j.two_j)[1]
    indptr, indices, slot, trace = _symmetric_csc(p.j.two_j)
    values = _generator_values(p.j.two_j, p.omega, p.gamma_a, p.nbar)
    data = np.bincount(slot, weights=(unit * values[take]).real, minlength=len(indices))
    return sp.csc_array((data, indices, indptr), shape=(n, n)), trace


def _step_runs(steps, slack):
    """[start, stop) ranges of consecutive steps that share one propagator.

    A step joins the current run while it differs from the run's first
    step by at most slack.
    """
    runs = []
    for k, dt in enumerate(steps.tolist()):
        if runs and abs(dt - first) <= slack:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
            first = dt
    return runs


def evolve(rho0, params: ModelParams, t_grid, settings: NumericSettings = DEFAULT) -> Trajectory:
    """Propagate the master equation exactly over t_grid.

    Works in the real gauge rho = ph * (S + i K), ph[a, b] = i^(b - a),
    where the generator is real and keeps the real symmetric S and the
    real antisymmetric K apart (see _real_gauge).  So the state moves
    as two coordinate vectors, the upper triangle of S and the strict
    upper triangle of K, each stepped with the exact propagator
    expm(L_block * dt) (scaling and squaring, Al-Mohy & Higham 2009)
    of a real block of size d(d+1)/2 or d(d-1)/2.  K stays zero when it
    starts at zero, as it does for Dicke projectors, and its block is
    then skipped.  Steps that differ only by the rounding of
    np.linspace share one propagator, so a uniform grid costs one
    matrix exponential per block.  The states are rebuilt together,
    Hermitian by construction, and checked as one stack
    (validate_density_matrix).

    Raises CapacityError for dimensions above DENSE_DIM_LIMIT.  Before
    any propagator is built it also raises CapacityError when the
    distinct steps times the cubed block sizes exceed EXPM_WORK_LIMIT,
    or len(t_grid) * d^2 exceeds STATE_ENTRY_LIMIT.
    """
    import scipy.linalg

    p = params
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValidationError("t_grid must be a 1-D array of at least one time")
    if t_grid[0] != 0.0:
        raise ValidationError(f"t_grid must start at 0, got {t_grid[0]!r}")
    steps = np.diff(t_grid)
    if not np.all(steps > 0):
        raise ValidationError("t_grid must be strictly ascending")
    _require_dense(p)
    rho0 = validate_density_matrix(rho0, settings, "rho0")
    d = p.j.dim
    if rho0.shape[0] != d:
        raise ValidationError(
            f"rho0 dimension {rho0.shape[0]} does not match j = {p.j.j} (dim {d})"
        )
    n_times = len(t_grid)
    if n_times * d * d > STATE_ENTRY_LIMIT:
        raise CapacityError(
            f"{n_times} times of {d} x {d} states exceed evolve's limit of "
            f"{STATE_ENTRY_LIMIT} state entries"
        )
    # np.linspace steps differ from each other by about one ulp of the end time
    runs = _step_runs(steps, 4.0 * np.spacing(t_grid[-1]))
    ph, sym, anti = _real_gauge(p.j.two_j)
    work = len(runs) * (sym[0] ** 3 + anti[0] ** 3)
    if work > EXPM_WORK_LIMIT:
        raise CapacityError(
            f"{len(runs)} distinct time steps at j = {p.j.j} cost {work:.2e} "
            f"(distinct steps x cubed block sizes), over evolve's limit "
            f"{EXPM_WORK_LIMIT:.0e}; use a uniform grid or fewer distinct steps"
        )

    values = _generator_values(p.j.two_j, p.omega, p.gamma_a, p.nbar)
    y0 = rho0 * ph.conj()
    states = np.zeros((n_times, d, d), dtype=complex)
    for (n, triangle, take, flat, unit), part, y, sign in (
        (sym, states.real, y0.real, 1.0),
        (anti, states.imag, y0.imag, -1.0),
    ):
        x0 = y[triangle]
        if not x0.any():
            continue  # the blocks never mix, so a zero block stays zero
        x = np.empty((n_times, n))
        x[0] = x0
        gen = np.bincount(flat, weights=(unit * values[take]).real, minlength=n * n)
        gen = gen.reshape(n, n)
        for start, stop in runs:
            propagator = scipy.linalg.expm(gen * steps[start])
            for k in range(start, stop):
                np.matmul(propagator, x[k], out=x[k + 1])
        part[(slice(None), *triangle)] = x
        part[(slice(None), *triangle[::-1])] = sign * x
    states *= ph
    validate_density_matrix(states, settings, lambda k: f"state at t={t_grid[k]:g}")
    return Trajectory(times=t_grid, states=states)


def _require_unique_steady(omega, gamma_a, nbar):
    """Reject rates, scalars or arrays, whose steady state is not unique."""
    if np.any((omega == 0.0) & (nbar > 0.0)):
        raise ValidationError(
            "steady state not unique/supported at omega = 0 with nbar > 0"
        )
    if np.any(gamma_a == 0.0):
        raise ValidationError("no dissipation (gamma_a = 0): no relaxation to a steady state")


def _steady_rho(Y, ph):
    """rho = ph * sym(Y) / tr(Y) for one gauged kernel Y or a (k, d, d) stack."""
    tr = np.trace(Y, axis1=-2, axis2=-1)[..., None, None]
    return ph * ((Y + Y.swapaxes(-2, -1)) / (2.0 * tr))


def steady_state_numeric(params: ModelParams, settings: NumericSettings = DEFAULT) -> np.ndarray:
    """Steady state as the one-dimensional null space of the generator.

    Valid whenever the stationary state is unique, which for this model
    (gamma_a > 0) means omega > 0, or omega = 0 with nbar = 0 (pure
    decay funnels to the ground level).  The undriven thermal case has
    no drive to break the ladder degeneracy structure and is rejected
    up front.

    Solves in the gauge of _gauge_phase, where the generator G is real
    and keeps the real symmetric S and the real antisymmetric K of
    Y = S + i K apart (see _real_gauge).  The symmetric block is enough:
    the antisymmetric block holds only traceless Hermitian directions
    (rho = ph * i K has a zero diagonal), and a unique steady state has
    trace one, so G's one-dimensional kernel lies in the symmetric block
    and the antisymmetric block is nonsingular.  Above j = 5 the block,
    d(d+1)/2 unknowns instead of d^2, is factored once, bordered by the
    trace functional, the indicator of the diagonal coordinates
    (linalg.null_vector: a dense inverse up to j = 7, SuperLU above);
    up to j = 5 the full d^2 x d^2 G is, bordered by vec(I).  Either
    border is the exact left kernel of the trace-preserving block it
    borders, and its overlap with the kernel is the steady state's
    trace, so the bordered matrix is well conditioned whenever the
    steady state is unique.  rho = ph * S / tr(S) is Hermitian by
    construction.  Raises CapacityError above STEADY_DIM_LIMIT.
    steady_states_numeric solves a grid of small spins at once.
    """
    p = params
    _require_unique_steady(p.omega, p.gamma_a, p.nbar)
    d = p.j.dim
    if d > STEADY_DIM_LIMIT:
        raise CapacityError(
            f"dimension {d} exceeds steady_state_numeric's limit {STEADY_DIM_LIMIT} "
            "(j <= 128); zero-temperature steady states beyond it: "
            "analytic.steady_state_analytic"
        )
    if d * d <= linalg._DENSE_LU_MAX:
        # The full gauged generator, kept for j <= 5: the benchmark's
        # self-test pins this route's one build_liouvillian call and its
        # d^2-unknown null_vector at j = 2.  The symmetric block can take
        # these spins too once that pin is restated.
        ph, phase = _gauge_phase(p.j.two_j)
        G = build_liouvillian(p)
        G.data = (phase * G.data).real  # conj(ph_r) L[r, c] ph_c, on L's own structure
        # bordered by vec(I), d ones on the diagonal coordinates
        Y = null_vector(G, np.eye(d).ravel(), settings).reshape(d, d, order="F")
        return validate_density_matrix(_steady_rho(Y, ph), settings, "steady state")
    ph, (_, triangle, *_), _ = _real_gauge(p.j.two_j)
    block, trace = _symmetric_block(p)
    x = null_vector(block, trace, settings)
    S = np.empty((d, d))
    S[triangle] = S[triangle[::-1]] = x
    return validate_density_matrix(ph * (S / np.trace(S)), settings, "steady state")


def steady_states_numeric(spin, omega, gamma_a, nbar, settings: NumericSettings = DEFAULT) -> np.ndarray:
    """Steady states of one spin on a parameter grid, as a (k, d, d) stack.

    omega, gamma_a and nbar broadcast to one 1-D grid of k points, each
    finite and >= 0 with a unique steady state (see
    steady_state_numeric).  The route is steady_state_numeric's for all
    points at once: the k real gauged generators are assembled dense,
    straight from the cached pattern and gauge phase, one null_vector
    call solves the stack, and one validate_density_matrix call checks
    it, naming a failing state by its parameters.  Only spins whose d^2
    unknowns are within linalg's dense limit (j <= 5) are covered;
    larger ones raise CapacityError.
    """
    s = SpinQuantum.from_j(spin)
    rates = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (omega, gamma_a, nbar)))
    for name, v in zip(("omega", "gamma_a", "nbar"), rates):
        if v.ndim != 1:
            raise ValidationError(f"{name} must broadcast to a 1-D grid, got shape {v.shape}")
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ValidationError(f"{name} must be finite and >= 0 everywhere")
    omega, gamma_a, nbar = rates
    _require_unique_steady(omega, gamma_a, nbar)
    d, n = s.dim, s.dim * s.dim
    if n > linalg._DENSE_LU_MAX:
        raise CapacityError(
            f"steady_states_numeric covers d^2 <= {linalg._DENSE_LU_MAX} unknowns, "
            f"got {n} at j = {s.j}; use steady_state_numeric"
        )
    indptr, indices = _generator_pattern(s.two_j)[:2]
    ph, phase = _gauge_phase(s.two_j)
    values = _generator_values(s.two_j, omega[:, None], gamma_a[:, None], nbar[:, None])
    G = np.zeros((len(omega), n, n))
    G[:, indices, np.repeat(np.arange(n), np.diff(indptr))] = (phase * values).real
    x = null_vector(G, np.eye(d).ravel(), settings)
    # each C-order block is Y^T of the column-stacked Y, and sym(Y^T) = sym(Y)
    rho = _steady_rho(x.reshape(-1, d, d), ph)
    return validate_density_matrix(
        rho, settings,
        lambda k: f"steady state at omega={omega[k]:g}, gamma_a={gamma_a[k]:g}, nbar={nbar[k]:g}",
    )
