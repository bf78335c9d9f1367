"""Driven, collectively damped Dicke model: dynamics, steady states, entanglement."""

from .errors import (
    BifurcationNotFoundError,
    CapacityError,
    DegenerateKernelError,
    DickeSimError,
    NumericRangeError,
    ValidationError,
)
from .linalg import null_vector
from .spin_ops import (
    SpinQuantum,
    build_jminus,
    build_jz,
    dicke_projector,
    m_values,
)
from .dynamics import (
    ModelParams,
    Trajectory,
    build_liouvillian,
    evolve,
    steady_state_numeric,
    steady_states_numeric,
    validate_density_matrix,
)
from .analytic import normalization_D, steady_state_analytic
from .entanglement import (
    concurrence,
    pair_reduced_state,
    triplet_to_two_qubit,
)
from .semiclassical import (
    bifurcation_scan,
    find_fixed_points,
    integrate_meanfield,
    meanfield_rhs,
    stable_branch_summary,
)

__version__ = "0.1.0"

__all__ = [
    "DickeSimError",
    "ValidationError",
    "DegenerateKernelError",
    "CapacityError",
    "NumericRangeError",
    "BifurcationNotFoundError",
    "null_vector",
    "SpinQuantum",
    "m_values",
    "build_jminus",
    "build_jz",
    "dicke_projector",
    "ModelParams",
    "Trajectory",
    "build_liouvillian",
    "evolve",
    "steady_state_numeric",
    "steady_states_numeric",
    "validate_density_matrix",
    "steady_state_analytic",
    "normalization_D",
    "concurrence",
    "triplet_to_two_qubit",
    "pair_reduced_state",
    "meanfield_rhs",
    "find_fixed_points",
    "bifurcation_scan",
    "stable_branch_summary",
    "integrate_meanfield",
]
