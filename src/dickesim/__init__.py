"""Driven, collectively damped Dicke model: dynamics, steady states, entanglement."""

from .settings import DEFAULT, NumericSettings
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
    build_jplus,
    build_jz,
    dicke_projector,
    expectation,
    m_values,
)
from .dynamics import (
    ModelParams,
    Trajectory,
    build_liouvillian,
    evolve,
    steady_state_numeric,
    unvec,
    validate_density_matrix,
    vec,
)
from .analytic import closed_form_j1, normalization_D, steady_state_analytic
from .entanglement import (
    concurrence,
    pair_reduced_state,
    triplet_to_two_qubit,
    validate_two_qubit_state,
)
from .semiclassical import (
    FixedPointReport,
    bifurcation_scan,
    find_fixed_points,
    integrate_meanfield,
    jacobian_eigenvalues,
    meanfield_jacobian,
    meanfield_rhs,
    stable_branch_summary,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT",
    "NumericSettings",
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
    "build_jplus",
    "build_jz",
    "dicke_projector",
    "expectation",
    "ModelParams",
    "Trajectory",
    "build_liouvillian",
    "evolve",
    "steady_state_numeric",
    "validate_density_matrix",
    "vec",
    "unvec",
    "steady_state_analytic",
    "normalization_D",
    "closed_form_j1",
    "concurrence",
    "triplet_to_two_qubit",
    "pair_reduced_state",
    "validate_two_qubit_state",
    "FixedPointReport",
    "meanfield_rhs",
    "meanfield_jacobian",
    "jacobian_eigenvalues",
    "find_fixed_points",
    "bifurcation_scan",
    "stable_branch_summary",
    "integrate_meanfield",
]
