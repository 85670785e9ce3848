"""The top-level API is the union of the submodules' __all__ lists."""
import importlib

import pytest

import conevi

MODULES = ("basis", "cones", "generate", "operators", "projective", "solvers", "transforms")

PUBLIC = [
    "AffineOperator", "Basis", "BoundComparison", "CallableOperator", "ConicProgramLayout",
    "ContractionParams", "EmptyBasis", "GenerationError", "IntersectionProjectionFailed",
    "IpmBreakdown", "IpmConfig", "IpmReport", "NotStronglyMonotone", "Operator",
    "OptimalityCertificate", "PolyhedralVI", "ProjectiveLcp", "Segment", "SegmentKind",
    "SeparableCone", "SolveConfig", "SolveReport", "bound_report", "build_projective",
    "certify", "eliminate_equalities", "free", "generate_instance",
    "iteration_bound", "lipschitz_constant", "monotone_modulus", "orthant", "orthonormalize",
    "parse_cone_spec", "polyhedron_to_cone", "project_intersection", "solve_bertsekas",
    "solve_exact", "solve_galerkin", "solve_ipm", "verify_pd", "zero",
]


def test_public_names_are_pinned():
    assert sorted(conevi.__all__) == sorted(PUBLIC)
    assert len(set(conevi.__all__)) == len(PUBLIC) == 42


def test_every_public_name_resolves():
    missing = [name for name in conevi.__all__ if not hasattr(conevi, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"conevi.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
