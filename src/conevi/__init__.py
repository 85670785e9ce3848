"""conevi: monotone variational inequalities and complementarity problems
over separable cones.

Provides the exact projection method, two Galerkin subspace approximations
(intersection-projected and two-projection), certified contraction factors
and a-priori error bounds, optimality certificates, and an interior-point
solver for the identity-plus-low-rank reduced problem.
"""

from .basis import Basis, EmptyBasis, orthonormalize
from .cones import SegmentKind, Segment, SeparableCone, free, orthant, parse_cone_spec, zero
from .generate import GenerationError, generate_instance
from .operators import (
    AffineOperator,
    CallableOperator,
    ContractionParams,
    NotStronglyMonotone,
    Operator,
    contraction_params,
    iteration_bound,
    lipschitz_constant,
    monotone_modulus,
)
from .projective import (
    IpmBreakdown,
    IpmConfig,
    IpmReport,
    ProjectiveLcp,
    build_projective,
    factor_diag_plus_lowrank,
    solve_diag_plus_lowrank,
    solve_ipm,
    verify_pd,
    woodbury_split,
)
from .solvers import (
    BoundComparison,
    IntersectionProjectionFailed,
    OptimalityCertificate,
    SolveConfig,
    SolveReport,
    bound_report,
    certify,
    project_intersection,
    solve_bertsekas,
    solve_exact,
    solve_galerkin,
)
from .transforms import ConicProgramLayout, PolyhedralVI, eliminate_equalities, polyhedron_to_cone

__version__ = "0.1.0"

__all__ = [
    "AffineOperator",
    "Basis",
    "BoundComparison",
    "CallableOperator",
    "ConicProgramLayout",
    "ContractionParams",
    "EmptyBasis",
    "GenerationError",
    "IntersectionProjectionFailed",
    "IpmBreakdown",
    "IpmConfig",
    "IpmReport",
    "NotStronglyMonotone",
    "Operator",
    "OptimalityCertificate",
    "PolyhedralVI",
    "ProjectiveLcp",
    "Segment",
    "SegmentKind",
    "SeparableCone",
    "SolveConfig",
    "SolveReport",
    "bound_report",
    "build_projective",
    "certify",
    "contraction_params",
    "eliminate_equalities",
    "factor_diag_plus_lowrank",
    "free",
    "generate_instance",
    "iteration_bound",
    "lipschitz_constant",
    "monotone_modulus",
    "orthant",
    "orthonormalize",
    "parse_cone_spec",
    "polyhedron_to_cone",
    "project_intersection",
    "solve_bertsekas",
    "solve_diag_plus_lowrank",
    "solve_exact",
    "solve_galerkin",
    "solve_ipm",
    "verify_pd",
    "woodbury_split",
    "zero",
]
