"""Every range check on a tolerance, step or declared constant also rejects
NaN and infinities, which would otherwise pass it and make a stopping or
membership test vacuous."""
import numpy as np
import pytest

from conevi import (
    AffineOperator,
    CallableOperator,
    IpmConfig,
    SolveConfig,
    bound_report,
    build_projective,
    orthant,
    orthonormalize,
)

BAD = [np.inf, -np.inf, np.nan]
OP = AffineOperator(np.array([[2.0, 1.0], [0.0, 2.0]]), [-2.0, -2.0])
BASIS = orthonormalize(np.eye(2))


CASES = {
    "SolveConfig.alpha_override": lambda v: SolveConfig(alpha_override=v),
    "SolveConfig.tol": lambda v: SolveConfig(tol=v),
    "SolveConfig.cert_tol": lambda v: SolveConfig(cert_tol=v),
    "IpmConfig.tol": lambda v: IpmConfig(tol=v),
    # tol is also the tolerance of the mu test and of the feasibility test,
    # which had a field each (mu_tol, feas_tol) before they were merged
    "IpmConfig.mu_tol": lambda v: IpmConfig(tol=v),
    "IpmConfig.feas_tol": lambda v: IpmConfig(tol=v),
    "IpmConfig.max_iter": lambda v: IpmConfig(max_iter=v),
    "SolveConfig.max_iter": lambda v: SolveConfig(max_iter=v),
    "build_projective.alpha": lambda v: build_projective(OP, BASIS, v),
    "bound_report.slack": lambda v: bound_report(OP, orthant(2), BASIS, slack=v),
    "SeparableCone.contains.tol": lambda v: orthant(2).contains([-5.0, 1.0], v),
    "SeparableCone.is_complementary.tol": lambda v: orthant(2).is_complementary(
        [1.0, 0.0], [0.0, 1.0], v),
    "CallableOperator.beta": lambda v: CallableOperator(lambda x: x, 2, beta=v, lipschitz=1.0),
    "CallableOperator.lipschitz": lambda v: CallableOperator(lambda x: x, 2, beta=0.5,
                                                             lipschitz=v),
}


@pytest.mark.parametrize("value", BAD, ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_nonfinite_rejected(case, value):
    with pytest.raises(ValueError):
        CASES[case](value)


def test_finite_values_still_accepted():
    for make in CASES.values():
        make(1.0)


@pytest.mark.parametrize("cls", [IpmConfig, SolveConfig])
def test_max_iter_is_a_whole_number(cls):
    # 2.5 passes a >= 1 test and would fail later inside range()
    with pytest.raises(ValueError):
        cls(max_iter=2.5)
    for value in (1.0, np.int64(3)):
        assert type(cls(max_iter=value).max_iter) is int
