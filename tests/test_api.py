"""The top-level API is the union of the submodules' __all__ lists."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_and_bertsekas_load_no_optimize_or_arpack():
    # in a fresh interpreter, since the test modules import scipy.optimize
    # themselves: the library, its CLI and a bound_report that runs all three
    # methods (Bertsekas's projection included) load neither
    # scipy.optimize (generate_instance's root finder) nor ARPACK's
    # scipy.sparse.linalg (L's Lanczos estimate at n >= 300)
    code = """
import sys
import numpy as np
import conevi
import conevi.cli
rng = np.random.default_rng(0)
n = 12
M = 2.0 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
op = conevi.AffineOperator(M, rng.standard_normal(n))
basis = conevi.orthonormalize(np.abs(rng.standard_normal((n, 3))))
comp = conevi.bound_report(op, conevi.orthant(n), basis)
assert not comp.bertsekas_skipped and comp.bertsekas_converged
print(sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse.linalg"))))
"""
    path = [str(Path(conevi.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
