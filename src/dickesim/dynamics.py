"""Time evolution and numeric steady states for the driven damped spin.

The model: a single collective spin j, resonantly driven with strength
omega through J+ + J-, damped collectively at rate gamma_a into a bath
with mean occupation nbar.  In matrix form the generator is

    drho/dt = -i (omega/2) [J+ + J-, rho]
              + gamma_a * nbar/2     * (2 J+ rho J- - J- J+ rho - rho J- J+)
              + gamma_a * (nbar+1)/2 * (2 J- rho J+ - J+ J- rho - rho J+ J-)

Superoperators use column stacking throughout: vec(A X B) = (B^T kron A) vec(X).

The generator is written once, as a seven-term stencil (_stencil) in the
real gauge rho[a, b] = i^(b - a) Y[a, b], where every coefficient is
real; one formula combines its unit-rate values with the rates
(_generator_values).  build_liouvillian runs it on all d^2 rows
(_generator_pattern, cached per 2j) and multiplies each entry by its
phase i^(da - db) to act on rho.  The gauged generator never mixes the
real symmetric and the real antisymmetric part of Y, and _gauged_block
runs the stencil straight on the rows of each part, giving two real
blocks of d(d+1)/2 and d(d-1)/2 coordinates.  evolve propagates the two
parts as coordinate vectors, with exact matrix exponentials of the dense
blocks instead of one complex d^2 x d^2 one.  Its work and memory are
bounded up front (EXPM_WORK_LIMIT, STATE_ENTRY_LIMIT), and the states
are checked in bounded chunks.  Steady states are the kernel of the
symmetric block, solved for a whole parameter grid at once
(steady_states_numeric: one dense stack up to j = 7, then a point at a
time, by a LAPACK band LU up to j = 32 and by SuperLU above, on a
layout of the trace-bordered block built once per spin,
_bordered_block, that each point fills with only its data);
steady_state_numeric solves one point, up to j = 5 on the full d^2
gauged generator made dense (null_vector takes dense input only).
Every state passes one check, check_states, against three fixed limits
(HERMITICITY_TOL, TRACE_TOL, DENSITY_EIG_FLOOR); the steady states take
null_rtol, the kernel residual bound and the one tolerance a caller
sets, and hand it to linalg.  scipy is imported only by evolve
(scipy.linalg, for expm), build_liouvillian and the steady states
(scipy.linalg.lapack or scipy.sparse).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapacityError, ValidationError
from .linalg import NULL_RTOL, null_vector
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
# check_states' limits; double precision leaves each at least two orders
# of magnitude of headroom
HERMITICITY_TOL = 1e-10     # max entrywise |rho - rho^dag|
TRACE_TOL = 1e-10           # max |tr(rho) - 1|
DENSITY_EIG_FLOOR = -1e-9   # most negative eigenvalue of (rho + rho^dag) / 2


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


def check_states(states, label, spectrum=np.linalg.eigvalsh):
    """The three state invariants on a (k, d, d) stack, the one state check.

    Hermitian within HERMITICITY_TOL, unit trace within TRACE_TOL, and
    smallest eigenvalue of the hermitized state H = (rho + rho^dag) / 2
    above DENSITY_EIG_FLOOR.  Returns spectrum(H) of the states: spectrum
    maps them to their ascending eigenvalues, or to a tuple that starts
    with them (as np.linalg.eigh does).  The first failing state, named
    label(k), raises a ValidationError naming the violated check:
    non-finite entries, then Hermiticity, then trace, then positivity.
    """
    adjoint = states.conj().swapaxes(1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf: reported as non-finite below
        defect = np.abs(states - adjoint).max(axis=(1, 2))
    trace_err = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    passed = (defect <= HERMITICITY_TOL) & (trace_err <= TRACE_TOL)
    first_bad = len(states) if passed.all() else int(np.argmin(passed))
    out = spectrum(0.5 * (states[:first_bad] + adjoint[:first_bad]))
    lowest = (out[0] if isinstance(out, tuple) else out)[:, 0]
    if first_bad and lowest.min() < DENSITY_EIG_FLOOR:
        k = int(np.argmax(lowest < DENSITY_EIG_FLOOR))
        raise ValidationError(
            f"{label(k)} not positive semidefinite: min eigenvalue {lowest[k]:.3e}"
        )
    if first_bad < len(states):
        bad, name = states[first_bad], label(first_bad)
        if not np.all(np.isfinite(bad)):
            raise ValidationError(f"{name} contains non-finite entries")
        if defect[first_bad] > HERMITICITY_TOL:
            raise ValidationError(
                f"{name} is not Hermitian: max |A - A^dag| = {defect[first_bad]:.3e} "
                f"> {HERMITICITY_TOL:.1e}"
            )
        raise ValidationError(f"{name} trace deviates from 1: tr = {complex(np.trace(bad))!r}")
    return out


def stack_labels(name, shape):
    """label(k) for the k-th state of a stack of the given leading shape.

    A callable name is used as it is; a string becomes name[index], or
    name itself for a single state (shape ()).
    """
    if callable(name):
        return name
    if not shape:
        return lambda k: name
    return lambda k: f"{name}[{', '.join(str(i) for i in np.unravel_index(k, shape))}]"


def validate_density_matrix(rho, name="rho"):
    """Check the three state invariants (check_states), returning the validated array.

    rho may be one (d, d) state, checked as a stack of one and named
    name, or a (..., d, d) stack, checked in chunks of
    CHECK_CHUNK_ENTRIES entries; the error then names the first failing
    state, as name(k) for the k-th state in C order when name is
    callable, else as name[index].
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or rho.shape[-1] < 1:
        raise ValidationError(
            f"{name} must be a square matrix or a stack of them, got shape {rho.shape}"
        )
    d = rho.shape[-1]
    states = rho.reshape(-1, d, d)
    label = stack_labels(name, rho.shape[:-2])
    size = max(1, CHECK_CHUNK_ENTRIES // (d * d))
    for start in range(0, len(states), size):
        check_states(states[start:start + size], lambda k: label(start + k))
    return rho


def _stencil(two_j, a, b):
    """The generator's seven-term stencil on rows (a, b), in the real gauge.

    In the gauge rho[a, b] = i^(b - a) Y[a, b] every coefficient is
    real.  With c_k = J-[k+1, k], row (a, b) reads dY[a, b] from Y at
    (a, b) and at six neighbours:

        drive (omega = 1):  -1/2 (c_a Y[a+1, b] - c_{a-1} Y[a-1, b]
                                  + c_b Y[a, b+1] - c_{b-1} Y[a, b-1])
        heating (rate 1):   2 c_a c_b Y[a+1, b+1] - (c_{a-1}^2 + c_{b-1}^2) Y[a, b]
        decay (rate 1):     2 c_{a-1} c_{b-1} Y[a-1, b-1] - (c_a^2 + c_b^2) Y[a, b]

    where c_{-1} = c_{2j} = 0; sources outside the d x d square are
    dropped.  The entry of a source offset (da, db) in the ungauged
    generator, which acts on rho, is i^(da - db) times its gauged value.
    Returns (row, source_a, source_b, units, phase): for each entry, the
    index of its row in a and b, its source, its (3,) real unit-rate
    drive, heating and decay values as one (3, m) array, and its phase
    i^(da - db).  Entries come term by term, in the order above.
    """
    d = two_j + 1
    c = ladder_coefficients(SpinQuantum(two_j))
    up = np.append(c, 0.0)         # up[k] = J+[k, k+1]
    down = np.insert(c, 0, 0.0)    # down[k] = J-[k, k-1]
    zero = np.zeros(len(a))
    terms = (  # (row shift, column shift, drive, heating, decay) of the source Y entry
        (1, 0, -0.5 * up[a], zero, zero),
        (-1, 0, 0.5 * down[a], zero, zero),
        (0, 1, -0.5 * up[b], zero, zero),
        (0, -1, 0.5 * down[b], zero, zero),
        (1, 1, zero, 2.0 * up[a] * up[b], zero),
        (-1, -1, zero, zero, 2.0 * down[a] * down[b]),
        (0, 0, zero, -(down[a] * down[a] + down[b] * down[b]), -(up[a] * up[a] + up[b] * up[b])),
    )
    entries = []
    for da, db, *parts in terms:
        keep = np.flatnonzero((a + da >= 0) & (a + da < d) & (b + db >= 0) & (b + db < d))
        phase = np.full(len(keep), (1.0, 1.0j, -1.0, -1.0j)[(da - db) % 4])
        entries.append((keep, a[keep] + da, b[keep] + db, np.stack(parts)[:, keep], phase))
    return [np.concatenate(part, axis=-1) for part in zip(*entries)]


# A benchmark run reads at most 3 spins' patterns and 8 blocks, so 16
# slots rebuild nothing; at j = 128 a pattern holds ~20 MB, a block 9 MB
# and its bordered structure (_bordered_block) 2.9 MB
@functools.lru_cache(maxsize=16)
def _generator_pattern(two_j):
    """CSC structure of the generator, its real unit-rate values and their phases.

    Row a + d b of L vec(X) is drho[a, b], from _stencil on all d^2
    rows.  Returns (indptr, indices, units, phase): units is the (3, nnz)
    real array of drive, heating and decay values in the real gauge and
    phase the entries' i^(da - db), so that phase * _generator_values
    gives L's entries, equal to the Kronecker-sum form.  All are
    read-only.
    """
    d = two_j + 1
    b, a = np.divmod(np.arange(d * d), d)
    rows, source_a, source_b, units, phase = _stencil(two_j, a, b)
    cols = source_a + d * source_b
    order = np.lexsort((rows, cols))
    indptr = np.zeros(d * d + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=d * d), out=indptr[1:])
    out = (indptr, rows[order].astype(np.int32), units[:, order], phase[order])
    for arr in out:
        arr.flags.writeable = False
    return out


def _generator_values(units, omega, gamma_a, nbar):
    """Generator entries from their (3, nnz) unit-rate drive, heating and decay values.

    The one rate formula: omega, gamma_a nbar / 2 and gamma_a (nbar + 1) / 2
    times the three rows, for the units of _generator_pattern or of a
    _gauged_block; rates of shape (k, 1) give (k, nnz).
    """
    drive, heating, decay = units
    return (
        omega * drive
        + (gamma_a * nbar / 2.0) * heating
        + (gamma_a * (nbar + 1.0) / 2.0) * decay
    )


def build_liouvillian(params: ModelParams) -> "scipy.sparse.csc_array":
    """Sparse (d^2, d^2) generator acting on column-stacked states.

    At most seven nonzeros per row.  The structure, the real unit-rate
    values and their phases are cached per 2j; a call only combines them
    with the rates (_generator_values) and the phases.  The entries equal
    the dense Kronecker-sum form exactly.
    """
    import scipy.sparse as sp

    p = params
    indptr, indices, units, phase = _generator_pattern(p.j.two_j)
    data = phase * _generator_values(units, p.omega, p.gamma_a, p.nbar)
    n = len(indptr) - 1
    return sp.csc_array((data, indices, indptr), shape=(n, n))


def _gauge(two_j):
    """The (d, d) phase ph[a, b] = i^(b - a) of the real gauge rho = ph * Y."""
    d = two_j + 1
    return np.array([1.0, 1.0j, -1.0, -1.0j])[-np.subtract.outer(np.arange(d), np.arange(d)) % 4]


@functools.lru_cache(maxsize=16)
def _gauged_block(two_j, offset):
    """One real block of the generator in the real gauge, as canonical CSC.

    The gauged generator (_stencil) maps real symmetric Y to real
    symmetric and real antisymmetric to real antisymmetric, so
    Y = S + i K splits into the upper triangle of S (offset 0,
    d(d+1)/2 coordinates) and the strict upper triangle of K (offset 1,
    d(d-1)/2).  The stencil runs on the triangle's rows.  Diagonal rows
    read just below the diagonal, which the symmetric block folds onto
    S[c, e] = S[e, c], summing the folded entries; rows above the
    diagonal read nothing below it, so the antisymmetric block needs no
    fold, and its diagonal columns drop out, K being 0 there.

    Returns (triangle, indptr, indices, cols, units): the block's
    coordinates as (rows, columns) in Y, its CSC structure, the column
    of each entry, and the (3, nnz) real unit-rate drive, heating and
    decay values (combine them with _generator_values).  All arrays are
    read-only.
    """
    d = two_j + 1
    triangle = np.triu_indices(d, offset)
    n = len(triangle[0])
    coord = np.full((d, d), -1)
    coord[triangle] = coord[triangle[::-1]] = np.arange(n)
    rows, source_a, source_b, units, _ = _stencil(two_j, *triangle)
    cols = coord[source_a, source_b]
    take = np.flatnonzero(cols >= 0)
    keys, slot = np.unique(cols[take] * n + rows[take], return_inverse=True)
    block = np.stack([np.bincount(slot, weights=u, minlength=len(keys)) for u in units[:, take]])
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    out = (indptr, (keys % n).astype(np.int32), keys // n, block)
    for arr in (*triangle, *out):
        arr.flags.writeable = False
    return (triangle, *out)


@functools.lru_cache(maxsize=16)
def _bordered_block(two_j):
    """The layout of the symmetric block bordered by the trace functional.

    Up to linalg._BAND_LU_MAX unknowns (j <= 32) a linalg._band_layout:
    the border unknown first, then the triangle's coordinates (a, b) by
    diagonal offset b - a and then by a, which couples each only to
    coordinates at most d places away, so the band has kl = ku = d.
    Above, linalg._border_pattern of the block's CSC structure, for
    SuperLU.  Either is structure only, read-only, built once per spin so
    that a steady solve above the dense limit fills one data array per
    point; the border is the diagonal coordinates, and zero rates keep
    their entries, as explicit zeros.
    """
    (a, b), indptr, indices, _, _ = _gauged_block(two_j, 0)
    diagonal = np.flatnonzero(a == b)
    if len(indptr) - 1 <= linalg._BAND_LU_MAX:
        return linalg._band_layout(indptr, indices, diagonal, np.lexsort((a, b - a)))
    return linalg._border_pattern(indptr, indices, diagonal)


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


def evolve(rho0, params: ModelParams, t_grid) -> Trajectory:
    """Propagate the master equation exactly over t_grid.

    Works in the real gauge rho = ph * (S + i K), ph[a, b] = i^(b - a),
    where the generator is real and keeps the real symmetric S and the
    real antisymmetric K apart (see _gauged_block).  So the state moves
    as two coordinate vectors, the upper triangle of S and the strict
    upper triangle of K, each stepped with the exact propagator
    expm(L_block * dt) (scaling and squaring, Al-Mohy & Higham 2009)
    of a real block of size d(d+1)/2 or d(d-1)/2, made dense.  K stays
    zero when it starts at zero, as it does for Dicke projectors, and
    its block is then skipped.  Steps that differ only by the rounding of
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
    if not np.all(np.isfinite(t_grid)):
        raise ValidationError("t_grid must hold finite times")
    if t_grid[0] != 0.0:
        raise ValidationError(f"t_grid must start at 0, got {t_grid[0]!r}")
    steps = np.diff(t_grid)
    if not np.all(steps > 0):
        raise ValidationError("t_grid must be strictly ascending")
    d = p.j.dim
    if d > DENSE_DIM_LIMIT:
        raise CapacityError(f"dimension {d} exceeds evolve's limit {DENSE_DIM_LIMIT} (j <= 16)")
    rho0 = validate_density_matrix(rho0, "rho0")
    if rho0.shape != (d, d):
        raise ValidationError(f"rho0 shape {rho0.shape} does not match j = {p.j.j} (dim {d})")
    n_times = len(t_grid)
    if n_times * d * d > STATE_ENTRY_LIMIT:
        raise CapacityError(
            f"{n_times} times of {d} x {d} states exceed evolve's limit of "
            f"{STATE_ENTRY_LIMIT} state entries"
        )
    # np.linspace steps differ from each other by about one ulp of the end time
    runs = _step_runs(steps, 4.0 * np.spacing(t_grid[-1]))
    work = len(runs) * ((d * (d + 1) // 2) ** 3 + (d * (d - 1) // 2) ** 3)
    if work > EXPM_WORK_LIMIT:
        raise CapacityError(
            f"{len(runs)} distinct time steps at j = {p.j.j} cost {work:.2e} "
            f"(distinct steps x cubed block sizes), over evolve's limit "
            f"{EXPM_WORK_LIMIT:.0e}; use a uniform grid or fewer distinct steps"
        )

    ph = _gauge(p.j.two_j)
    y0 = rho0 * ph.conj()
    states = np.zeros((n_times, d, d), dtype=complex)
    for offset, part, y, sign in ((0, states.real, y0.real, 1.0), (1, states.imag, y0.imag, -1.0)):
        triangle, _, indices, cols, units = _gauged_block(p.j.two_j, offset)
        x0 = y[triangle]
        if not x0.any():
            continue  # the blocks never mix, so a zero block stays zero
        n = len(x0)
        x = np.empty((n_times, n))
        x[0] = x0
        gen = np.zeros((n, n))
        gen[indices, cols] = _generator_values(units, p.omega, p.gamma_a, p.nbar)
        for start, stop in runs:
            propagator = scipy.linalg.expm(gen * steps[start])
            for k in range(start, stop):
                np.matmul(propagator, x[k], out=x[k + 1])
        part[(slice(None), *triangle)] = x
        part[(slice(None), *triangle[::-1])] = sign * x
    states *= ph
    validate_density_matrix(states, lambda k: f"state at t={t_grid[k]:g}")
    return Trajectory(times=t_grid, states=states)


def _require_unique_steady(omega, gamma_a, nbar):
    """Reject rates, scalars or arrays, whose steady state is not unique."""
    if np.any((omega == 0.0) & (nbar > 0.0)):
        raise ValidationError(
            "steady state not unique/supported at omega = 0 with nbar > 0"
        )
    if np.any(gamma_a == 0.0):
        raise ValidationError("no dissipation (gamma_a = 0): no relaxation to a steady state")


def _symmetric_rho(x, triangle, ph):
    """rho = ph * S / tr(S) from (..., n) coordinates x of S on triangle."""
    S = np.empty(x.shape[:-1] + ph.shape)
    S[(..., *triangle)] = S[(..., *triangle[::-1])] = x
    return ph * (S / np.trace(S, axis1=-2, axis2=-1)[..., None, None])


def _steady_label(omega, gamma_a, nbar):
    """label(k), naming point k of a steady-state grid by its rates in errors."""
    return lambda k: f"steady state at omega={omega[k]:g}, gamma_a={gamma_a[k]:g}, nbar={nbar[k]:g}"


def steady_state_numeric(params: ModelParams, *, null_rtol=NULL_RTOL) -> np.ndarray:
    """Steady state as the one-dimensional null space of the generator.

    Valid whenever the stationary state is unique, which for this model
    (gamma_a > 0) means omega > 0, or omega = 0 with nbar = 0 (pure
    decay funnels to the ground level).  The undriven thermal case has
    no drive to break the ladder degeneracy structure and is rejected
    up front.

    Above j = 5 this is steady_states_numeric on a grid of one point.
    Up to j = 5 the full d^2 x d^2 generator is solved in the real gauge:
    build_liouvillian's structure carries the real gauged values, made
    dense, and one null_vector call solves it bordered by vec(I), its
    exact left kernel; rho = ph * (Y + Y^T) / (2 tr Y).  The benchmark's
    self-test pins this route's one build_liouvillian call and its
    d^2-unknown null_vector at j = 2; the symmetric block can take these
    spins too once that pin is restated.  Raises CapacityError above
    STEADY_DIM_LIMIT.  null_rtol bounds the kernel's residual
    (linalg.null_vector), and a failing kernel or state is named by its
    parameters on both routes.
    """
    null_rtol = linalg._check_null_rtol(null_rtol)
    p = params
    d = p.j.dim
    if d * d > linalg._DENSE_LU_MAX:
        return steady_states_numeric(p.j, [p.omega], [p.gamma_a], [p.nbar], null_rtol=null_rtol)[0]
    _require_unique_steady(p.omega, p.gamma_a, p.nbar)
    G = build_liouvillian(p)
    G.data = _generator_values(_generator_pattern(p.j.two_j)[2], p.omega, p.gamma_a, p.nbar)
    # bordered by vec(I), d ones on the diagonal coordinates
    label = _steady_label([p.omega], [p.gamma_a], [p.nbar])
    Y = null_vector(G.toarray(), np.eye(d).ravel(), label=label, null_rtol=null_rtol)
    Y = Y.reshape(d, d, order="F")
    rho = _gauge(p.j.two_j) * ((Y + Y.T) / (2.0 * np.trace(Y)))
    return validate_density_matrix(rho, label)


def steady_states_numeric(spin, omega, gamma_a, nbar, *, null_rtol=NULL_RTOL) -> np.ndarray:
    """Steady states of one spin on a parameter grid, as a (k, d, d) stack.

    omega, gamma_a and nbar broadcast to one 1-D grid of k points, each
    finite and >= 0 with a unique steady state (see
    steady_state_numeric), for any spin up to STEADY_DIM_LIMIT (j <= 128;
    above it CapacityError).  Solves in the real gauge, where the
    generator keeps the real symmetric S and the real antisymmetric K of
    Y = S + i K apart (see _gauged_block).  The symmetric block is
    enough: the antisymmetric block holds only traceless Hermitian
    directions (rho = ph * i K has a zero diagonal), and a unique steady
    state has trace one, so the one-dimensional kernel lies in the
    symmetric block, of d(d+1)/2 unknowns, and the antisymmetric block
    is never built.  It is solved bordered by the trace
    functional, the indicator of the diagonal coordinates: the block's
    exact left kernel, whose overlap with the kernel is the steady
    state's trace, so the bordered matrix is well conditioned whenever
    the steady state is unique.  Three routes, by the block's size:

    * up to linalg._DENSE_LU_MAX unknowns (j <= 7) the k blocks are
      assembled dense and solved as one stack, with the exact kappa_1;
    * up to linalg._BAND_LU_MAX (j <= 32) one point at a time by a
      LAPACK band LU of width d, with gbcon's kappa_1 estimate; its work
      is bounded by the band, about 2 d^4 flops;
    * above, up to j = 128, one point at a time by SuperLU, with a
      Hager-Higham kappa_1 estimate; its fill, and with it its time, is
      not bounded up front: near-unitary input (gamma_a ~ 1e-7) fills in
      for seconds before the kappa_1 check refuses it.

    The last two scatter each point's values into the layout that
    _bordered_block caches per spin (linalg._sparse_null_vector).
    rho = ph * S / tr(S) is Hermitian by construction, and one
    validate_density_matrix call checks the stack; a failing state or
    kernel is named by its parameters on both routes.  null_rtol bounds
    each kernel's residual (linalg.null_vector).
    """
    null_rtol = linalg._check_null_rtol(null_rtol)
    s = SpinQuantum.from_j(spin)
    rates = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (omega, gamma_a, nbar)))
    for name, v in zip(("omega", "gamma_a", "nbar"), rates):
        if v.ndim != 1:
            raise ValidationError(f"{name} must broadcast to a 1-D grid, got shape {v.shape}")
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ValidationError(f"{name} must be finite and >= 0 everywhere")
    omega, gamma_a, nbar = rates
    _require_unique_steady(omega, gamma_a, nbar)
    if s.dim > STEADY_DIM_LIMIT:
        raise CapacityError(
            f"dimension {s.dim} exceeds the steady-state limit {STEADY_DIM_LIMIT} "
            "(j <= 128); zero-temperature steady states beyond it: "
            "analytic.steady_state_analytic"
        )
    triangle, indptr, indices, cols, units = _gauged_block(s.two_j, 0)
    n = len(indptr) - 1
    trace = (triangle[0] == triangle[1]).astype(float)

    label = _steady_label(omega, gamma_a, nbar)
    if n <= linalg._DENSE_LU_MAX:
        G = np.zeros((len(omega), n, n))
        G[:, indices, cols] = _generator_values(units, omega[:, None], gamma_a[:, None], nbar[:, None])
        x = null_vector(G, trace, label=label, null_rtol=null_rtol)
    else:
        pattern = _bordered_block(s.two_j)
        x = np.empty((len(omega), n))
        for k in range(len(omega)):
            values = _generator_values(units, omega[k], gamma_a[k], nbar[k])
            x[k] = linalg._sparse_null_vector(pattern, values, trace, null_rtol, lambda _: label(k))
    return validate_density_matrix(_symmetric_rho(x, triangle, _gauge(s.two_j)), label)
