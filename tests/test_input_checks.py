"""Every input check on a shape or a dimension raises its own exception type
with a message that names what is wrong; a bad cone spec in a problem file's
header is a ProblemFormatError on line 1."""
import numpy as np
import pytest

from conevi import (
    AffineOperator,
    CallableOperator,
    PolyhedralVI,
    ProjectiveLcp,
    Segment,
    SeparableCone,
    build_projective,
    certify,
    eliminate_equalities,
    lipschitz_constant,
    monotone_modulus,
    orthant,
    orthonormalize,
    polyhedron_to_cone,
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
# F(x) = x declared as a plain callable: no matrix or offset to reduce
CALLABLE = CallableOperator(lambda x: x, 2, beta=1.0, lipschitz=1.0)
Q3 = np.ones((3, 1)) / np.sqrt(3.0)
LAYOUT = polyhedron_to_cone(PolyhedralVI(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2)))  # dim 6

# name: (call, exception type, a word of its message)
CASES = {
    "solve_exact.operator_vs_cone": (lambda: solve_exact(OP, orthant(3)),
                                     ValueError, "operator dimension"),
    "solve_galerkin.basis_vs_cone": (lambda: solve_galerkin(OP, orthant(2), BASIS3),
                                     ValueError, "basis dimension"),
    "project_intersection.basis_vs_cone": (
        lambda: project_intersection(orthant(2), BASIS3, [1.0, 0.0]),
        ValueError, "basis dimension"),
    # certify named no input: NumPy's matmul mismatch, or an internal x
    "certify.basis_vs_cone": (lambda: certify(OP, orthant(2), BASIS3, [0.0] * 2, [0.0] * 2, 1.0),
                              ValueError, "basis dimension"),
    "certify.operator_vs_cone": (lambda: certify(OP, orthant(3), BASIS3, [0.0] * 3, [0.0] * 3, 1.0),
                                 ValueError, "operator dimension"),
    "SeparableCone.project": (lambda: orthant(3).project([1.0, 2.0]), ValueError, "x has shape"),
    "Basis.project_span": (lambda: BASIS3.project_span([1.0, 2.0]), ValueError, "z has shape"),
    # a vector of the wrong length was sliced: [] for lambda here
    "ConicProgramLayout.extract": (lambda: LAYOUT.extract("lambda", np.arange(3.0)),
                                   ValueError, "vector has shape"),
    "SolveReport.distances_to_final.untraced": (
        lambda: solve_exact(OP, orthant(2)).distances_to_final(), ValueError, "trace"),
    "build_projective.basis_vs_operator": (lambda: build_projective(OP, BASIS3, 0.5),
                                           ValueError, "basis dimension"),
    "solve_ipm.cone_vs_problem": (lambda: solve_ipm(build_projective(OP, BASIS), orthant(3)),
                                  ValueError, "cone dimension"),
    # a CallableOperator raised AttributeError (no 'q' at full rank, no 'M'
    # below it), and a full-rank build_projective would return it as it is
    "build_projective.not_affine": (lambda: build_projective(CALLABLE, BASIS),
                                    TypeError, "AffineOperator"),
    "solve_ipm.not_affine": (lambda: solve_ipm(CALLABLE, orthant(2)),
                             TypeError, "AffineOperator"),
    "ProjectiveLcp.ortho_1d": (lambda: ProjectiveLcp(np.ones(3), np.ones((1, 3)), np.zeros(3)),
                               ValueError, "ortho must be 2-D"),
    "ProjectiveLcp.W_shape": (lambda: ProjectiveLcp(Q3, np.ones((1, 4)), np.zeros(3)),
                              ValueError, "W has shape"),
    # r of length 4 with a 3x1 Q was accepted and failed later inside matmul
    "ProjectiveLcp.r_shape": (lambda: ProjectiveLcp(Q3, np.ones((1, 3)), np.zeros(4)),
                              ValueError, "r has shape"),
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
    # both wrote a header that parse_basis rejects
    "write_basis.no_rows": (lambda: write_basis(np.zeros((0, 3))), ValueError, "dimension"),
    "write_basis.no_columns": (lambda: write_basis(np.zeros((3, 0))), ValueError, "dimension"),
    "AffineOperator.nonsquare_M": (lambda: AffineOperator(np.ones((2, 3)), np.zeros(2)),
                                   ValueError, "square"),
    "monotone_modulus.nonsquare": (lambda: monotone_modulus(np.ones((2, 3))),
                                   ValueError, "square"),
    # monotone_modulus raised IndexError on a 0x0 matrix, and lipschitz_constant
    # returned 0 for it
    "monotone_modulus.empty": (lambda: monotone_modulus(np.zeros((0, 0))),
                               ValueError, "nonempty"),
    "lipschitz_constant.empty": (lambda: lipschitz_constant(np.zeros((0, 0))),
                                 ValueError, "nonempty"),
    "AffineOperator.empty_M": (lambda: AffineOperator(np.zeros((0, 0)), np.zeros(0)),
                               ValueError, "nonempty"),
    # a scalar F(x) was broadcast, and solve_exact ran to its cap with no error
    "CallableOperator.F_shape": (
        lambda: solve_exact(CallableOperator(lambda x: -1.0, 3, beta=1.0, lipschitz=2.0),
                            orthant(3)), ValueError, r"F\(x\) has shape"),
    # dim = 0 and dim = -1 were accepted, and dim = 2.5 was stored as 2
    "CallableOperator.dim=0": (lambda: CallableOperator(abs, 0, 1.0, 1.0), ValueError, "dim"),
    "CallableOperator.dim=-1": (lambda: CallableOperator(abs, -1, 1.0, 1.0), ValueError, "dim"),
    "CallableOperator.dim=2.5": (lambda: CallableOperator(abs, 2.5, 1.0, 1.0), ValueError, "dim"),
    "SeparableCone.no_segments": (lambda: SeparableCone(()), ValueError, "segment"),
    # a kind outside SegmentKind matched no mask: its rows were free to the IPM
    # and unclipped by project, and spec() raised AttributeError
    "Segment.kind": (lambda: Segment("box", 2), ValueError, "SegmentKind"),
    "bench_ipm.repeats": (lambda: bench_ipm([4], 2, repeats=0), ValueError, "repeats"),
    # k = 80 at n = 50 timed the dense n x n route; k = 0 failed in orthonormalize
    "bench_ipm.k": (lambda: bench_ipm([60, 50], 50, repeats=1), ValueError, "k=50"),
    "parse_problem.cone_spec": (lambda: parse_problem("VI1 2 nn:x\n1 0\n0 1\n0 0\n"),
                                ProblemFormatError, "line 1: bad segment length"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check_raises(case):
    call, exc_type, word = CASES[case]
    with pytest.raises(exc_type, match=word):
        call()

