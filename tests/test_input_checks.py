"""Every input check on a shape or a dimension raises its own exception type
with a message that names what is wrong; a bad cone spec in a problem file's
header is a ProblemFormatError on line 1."""
import numpy as np
import pytest

from conevi import (
    AffineOperator,
    PolyhedralVI,
    SeparableCone,
    build_projective,
    eliminate_equalities,
    monotone_modulus,
    orthant,
    orthonormalize,
    project_intersection,
    solve_exact,
    solve_galerkin,
    solve_ipm,
)
from conevi.bench import bench_ipm
from conevi.fileio import ProblemFormatError, parse_problem, write_basis

OP = AffineOperator(np.array([[2.0, 1.0], [0.0, 2.0]]), [-2.0, -2.0])
BASIS = orthonormalize(np.eye(2))
BASIS3 = orthonormalize(np.eye(3)[:, :2])

# name: (call, exception type, a word of its message)
CASES = {
    "solve_exact.operator_vs_cone": (lambda: solve_exact(OP, orthant(3)),
                                     ValueError, "operator dimension"),
    "solve_galerkin.basis_vs_cone": (lambda: solve_galerkin(OP, orthant(2), BASIS3),
                                     ValueError, "basis dimension"),
    "project_intersection.basis_vs_cone": (
        lambda: project_intersection(orthant(2), BASIS3, [1.0, 0.0]),
        ValueError, "basis dimension"),
    "SolveReport.distances_to_final.untraced": (
        lambda: solve_exact(OP, orthant(2)).distances_to_final(), ValueError, "trace"),
    "build_projective.basis_vs_operator": (lambda: build_projective(OP, BASIS3, 0.5),
                                           ValueError, "basis dimension"),
    "solve_ipm.cone_vs_problem": (lambda: solve_ipm(build_projective(OP, BASIS), orthant(3)),
                                  ValueError, "cone dimension"),
    "PolyhedralVI.nonsquare_M": (lambda: PolyhedralVI(np.ones((2, 3)), np.zeros(2),
                                                      np.ones((1, 3)), np.zeros(1)),
                                 ValueError, "square"),
    "eliminate_equalities.cone_vs_operator": (
        lambda: eliminate_equalities(OP, np.ones((1, 2)), [0.0], orthant(3)),
        ValueError, "cone dimension"),
    "eliminate_equalities.A_shape": (
        lambda: eliminate_equalities(OP, np.ones((1, 3)), [0.0], orthant(2)),
        ValueError, "A has shape"),
    "orthonormalize.1d": (lambda: orthonormalize(np.ones(3)), ValueError, "2-D"),
    "write_basis.1d": (lambda: write_basis(np.ones(3)), ValueError, "2-D"),
    "AffineOperator.nonsquare_M": (lambda: AffineOperator(np.ones((2, 3)), np.zeros(2)),
                                   ValueError, "square"),
    "monotone_modulus.nonsquare": (lambda: monotone_modulus(np.ones((2, 3))),
                                   ValueError, "square"),
    "SeparableCone.no_segments": (lambda: SeparableCone(()), ValueError, "segment"),
    "bench_ipm.repeats": (lambda: bench_ipm([4], 2, repeats=0), ValueError, "repeats"),
    "parse_problem.cone_spec": (lambda: parse_problem("VI1 2 nn:x\n1 0\n0 1\n0 0\n"),
                                ProblemFormatError, "line 1: bad segment length"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check_raises(case):
    call, exc_type, word = CASES[case]
    with pytest.raises(exc_type, match=word):
        call()

