"""Every range check on a tolerance, step or declared constant also rejects
NaN and infinities, which would otherwise pass it and make a stopping or
membership test vacuous. A vector with a NaN or infinite entry is in no
cone: the membership tests return False for it, with no warning, and they
test finite entries near the overflow threshold without overflowing."""
import warnings

import numpy as np
import pytest

from conevi import (
    AffineOperator,
    CallableOperator,
    IpmConfig,
    ProjectiveLcp,
    SolveConfig,
    bound_report,
    build_projective,
    certify,
    free,
    generate_instance,
    orthant,
    orthonormalize,
    project_intersection,
    solve_exact,
    solve_galerkin,
    solve_ipm,
    zero,
)

BAD = [np.inf, -np.inf, np.nan]
OP = AffineOperator(np.array([[2.0, 1.0], [0.0, 2.0]]), [-2.0, -2.0])
BASIS = orthonormalize(np.eye(2))
INSTANCE = generate_instance(8, 3, 1.0, 3.0, 2)


CASES = {
    "SolveConfig.alpha_override": lambda v: SolveConfig(alpha_override=v),
    "SolveConfig.tol": lambda v: SolveConfig(tol=v),
    "IpmConfig.tol": lambda v: IpmConfig(tol=v),
    "IpmConfig.max_iter": lambda v: IpmConfig(max_iter=v),
    "SolveConfig.max_iter": lambda v: SolveConfig(max_iter=v),
    "build_projective.alpha": lambda v: build_projective(OP, BASIS, v),
    "certify.alpha": lambda v: certify(OP, orthant(2), BASIS, [1.0, 0.0], [1.0, 0.0], v),
    "SeparableCone.contains.tol": lambda v: orthant(2).contains([-5.0, 1.0], v),
    "SeparableCone.is_complementary.tol": lambda v: orthant(2).is_complementary(
        [1.0, 0.0], [0.0, 1.0], v),
    # NaN leaked SciPy's "must not contain infs or NaNs"; inf warned inside matmul
    "project_intersection.z": lambda v: project_intersection(orthant(2), BASIS, [v, 0.0]),
    "CallableOperator.beta": lambda v: CallableOperator(lambda x: x, 2, beta=v, lipschitz=1.0),
    "CallableOperator.lipschitz": lambda v: CallableOperator(lambda x: x, 2, beta=0.5,
                                                             lipschitz=v),
    # a NaN in W reached solve_ipm, where it ended as a breakdown, and an
    # infinite r also raised a RuntimeWarning in the solve
    "ProjectiveLcp.ortho": lambda v: ProjectiveLcp([[v], [0.0]], [[0.0, 0.5]], [1.0, -1.0]),
    "ProjectiveLcp.W": lambda v: ProjectiveLcp([[1.0], [0.0]], [[v, 0.5]], [1.0, -1.0]),
    "ProjectiveLcp.r": lambda v: ProjectiveLcp([[1.0], [0.0]], [[0.0, 0.5]], [v, -1.0]),
}


@pytest.mark.parametrize("value", BAD, ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_nonfinite_rejected(case, value):
    with pytest.raises(ValueError):
        CASES[case](value)


def test_finite_values_still_accepted():
    for make in CASES.values():
        make(1.0)


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("case", ["build_projective.alpha", "certify.alpha"])
def test_nonpositive_step_size_rejected(case, value):
    # alpha = 0 would divide by zero in certify; a negative alpha would
    # return a certificate, or a reduced problem, for no step. build_projective
    # checks alpha on a full span too, where it returns the operator unread
    with pytest.raises(ValueError):
        CASES[case](value)


@pytest.mark.parametrize("cls", [IpmConfig, SolveConfig])
def test_max_iter_is_a_whole_number(cls):
    # 2.5 passes a >= 1 test and would fail later inside range()
    with pytest.raises(ValueError):
        cls(max_iter=2.5)
    for value in (1.0, np.int64(3)):
        assert type(cls(max_iter=value).max_iter) is int


MEMBERSHIP = {
    "orthant.contains": lambda v: orthant(1).contains([v], 1e-8),
    "zero.contains": lambda v: zero(1).contains([v], 1e-8),
    "free.contains": lambda v: free(2).contains([v, 0.0], 0.0),
    "orthant.is_complementary.x": lambda v: orthant(2).is_complementary(
        [v, 0.0], [0.0, 1.0], 1e-8),
    "orthant.is_complementary.y": lambda v: orthant(2).is_complementary(
        [1.0, 0.0], [0.0, v], 1e-8),
}


@pytest.mark.parametrize("value", BAD, ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("case", sorted(MEMBERSHIP))
def test_nonfinite_vector_in_no_cone(case, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MEMBERSHIP[case](value) is False


# entries near 1e200 overflow a plain norm or dot product to inf, which made
# every slack infinite and each test below pass
OVERFLOW = {
    "orthant.contains": (lambda: orthant(2).contains([-1e200, 1e200], 1e-8), False),
    "zero.contains": (lambda: zero(2).contains([1e200, 1e200], 1e-8), False),
    "orthant.is_complementary": (lambda: orthant(2).is_complementary(
        [1e200, 1e200], [1e200, 1e200], 1e-8), False),
    "orthant.contains.true": (lambda: orthant(2).contains([1e200, 1e200], 1e-8), True),
    "orthant.is_complementary.true": (lambda: orthant(2).is_complementary(
        [1e200, 0.0], [0.0, 1e200], 1e-8), True),
    # epsilon = z_bar: its span component 1e200 is far above the allowance,
    # 1e-8 (||x_bar||_inf + alpha ||F(0)||_inf) = 0
    "certify.valid": (lambda: certify(
        AffineOperator(np.eye(2), [0.0, 0.0]), zero(2), orthonormalize(np.eye(2)[:, :1]),
        [0.0, 0.0], [1e200, 1e200], 1.0).valid, False),
    "certify.valid.true": (lambda: certify(
        AffineOperator(np.eye(2), [0.0, 0.0]), zero(2), orthonormalize(np.eye(2)[:, :1]),
        [0.0, 0.0], [0.0, 1e200], 1.0).valid, True),
    # problems the Galerkin method solves, with entries near 1e162 and 1e307:
    # the complementarity gap overflowed in a plain dot product, and raised
    "solve_galerkin.q_times_2**540": (lambda: solve_galerkin(
        AffineOperator(INSTANCE[0].M, 2.0**540 * INSTANCE[0].q), orthant(8),
        INSTANCE[1]).certificate.valid, True),
    "solve_galerkin.q_near_1e307": (lambda: solve_galerkin(
        AffineOperator([[1.0, 1.0], [-1.0, 1.0]], [-1e307, -1e307]), orthant(2),
        orthonormalize([[1.0], [1.0]])).certificate.valid, True),
    # then the error and bound norms overflowed, and project_intersection
    "bound_report.new_ok.q_times_2**540": (lambda: bound_report(
        AffineOperator(INSTANCE[0].M, 2.0**540 * INSTANCE[0].q), orthant(8),
        INSTANCE[1]).new_ok, True),
    "bound_report.bertsekas_ok.q_times_2**540": (lambda: bound_report(
        AffineOperator(INSTANCE[0].M, 2.0**540 * INSTANCE[0].q), orthant(8),
        INSTANCE[1]).bertsekas_ok, True),
    # the same problem solved exactly: the trace's distances to the last
    # iterate, plain norms of differences near 1e162, overflowed
    "SolveReport.trace_rows.q_times_2**540": (lambda: all(np.isfinite(d) for _, _, d in (
        solve_exact(AffineOperator(INSTANCE[0].M, 2.0**540 * INSTANCE[0].q), orthant(8),
                    SolveConfig(trace=True)).trace_rows())), True),
    # an IPM start s = max(Nx + r, 1) that overflows makes the first Newton
    # step not finite, which ends the solve unconverged; the start and the
    # residual overflowed outside the loop's np.errstate, and warned
    "solve_ipm.converged.M_near_1e308": (lambda: solve_ipm(
        AffineOperator([[1e308, 1e308], [-1e308, 1e308]], [-1.0, -1.0]), orthant(2)).converged,
        False),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW))
def test_huge_entries_tested_without_overflow(case):
    test, expected = OVERFLOW[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert test() is expected
