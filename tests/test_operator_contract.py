"""One contract for every AffineOperator class.

solve_ipm, verify_pd and the Galerkin step reach a reduced problem only
through F @ x, F.q, F.beta and F._newton_factor(D). Every property below
holds on every case in CASES: an operator, its cone, and an exactly
singular Newton system (an operator and its D) of the same class and
route. A new operator class or Newton route adds one case and nothing else.
"""
import numpy as np
import pytest

from conftest import perfbench_module
from conevi import IpmBreakdown
from conevi.basis import orthonormalize
from conevi.cones import orthant, parse_cone_spec
from conevi.generate import generate_instance
from conevi.operators import AffineOperator, monotone_modulus
from conevi.projective import ProjectiveLcp, _newton, build_projective, solve_ipm
from conevi.transforms import PolyhedralVI, eliminate_equalities, polyhedron_to_cone

MIXED = parse_cone_spec("nn:14,free:6,zero:4,nn:10,free:6")
E1 = np.eye(2)[:, :1]
HALF = np.full((4, 1), 0.5)  # I + W Q = 1 - 4/4 = 0 with W = -HALF^T
ZERO = np.zeros((1, 1))


# -- the cases: the only place that names an operator class ---------------------

def reduction(M, q, A, b, E=None, e=None):
    """The operator and cone of polyhedron_to_cone on VI(Mx + q, {Ax + b >= 0}),
    with the equality rows E x = e on x through eliminate_equalities."""
    layout = polyhedron_to_cone(PolyhedralVI(M, q, A, b))
    if E is None:
        return layout.op, layout.cone
    rows = np.zeros((E.shape[0], layout.cone.dim))
    rows[:, A.shape[0]:A.shape[0] + A.shape[1]] = E
    eq = eliminate_equalities(layout.op, rows, e, layout.cone)
    return eq.op, eq.cone


def dense_twin(F):
    """The reference route: F's problem as a plain operator on its dense N."""
    return AffineOperator(F.M, F.q)


def dense():
    op, _ = generate_instance(40, 4, 1.0, 3.0, seed=1)
    return op, MIXED, (AffineOperator(np.diag([0.0, -1.0]), np.zeros(2)), np.array([1.0, 2.0]))


def gaussian_basis():
    op, basis = generate_instance(40, 8, 1.0, 3.0, seed=2)
    return build_projective(op, basis), MIXED, (ProjectiveLcp(HALF, -HALF.T, np.zeros(4)),
                                                np.ones(4))


def aggregation_basis():
    op, _ = generate_instance(40, 4, 1.0, 3.0, seed=3)
    groups = np.random.default_rng(3).permutation(40) % 8
    basis = orthonormalize((groups[:, None] == np.arange(8)).astype(float))
    return build_projective(op, basis), MIXED, (ProjectiveLcp(E1, -E1.T, np.zeros(2)), np.ones(2))


def square_q():
    # k' = n, stored with a dense orthogonal Q at alpha = 1
    op, _ = generate_instance(40, 4, 1.0, 3.0, seed=4)
    Q = orthonormalize(np.random.default_rng(4).standard_normal((40, 40))).ortho
    return ProjectiveLcp(Q, Q.T @ op.M - Q.T, Q @ (Q.T @ op.q)), MIXED, gaussian_basis()[2]


def benchmark(i):
    """The polyhedral_ipm workload's seed-1 instance i: n = m = 200, and
    p = 20 equality rows when i is odd."""
    with pytest.MonkeyPatch.context() as mp:
        return reduction(**perfbench_module(mp, "inputs").poly_instance(1, i))


def benchmark_slacks():
    return (*benchmark(0), (reduction(ZERO, [0.0], ZERO, [0.0])[0], np.ones(3)))


def benchmark_equalities():
    return (*benchmark(1), (reduction(ZERO, [0.0], ZERO, [0.0], ZERO, [0.0])[0], np.ones(4)))


def eliminated():
    op, _ = generate_instance(20, 2, 1.0, 2.0, seed=6)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 20))
    eq = eliminate_equalities(op, A, A @ np.abs(rng.standard_normal(20)), orthant(20))
    singular = eliminate_equalities(AffineOperator(np.eye(1), [0.0]), ZERO, [0.0], orthant(1))
    return eq.op, eq.cone, (singular.op, np.ones(2))


CASES = [dense, gaussian_basis, aggregation_basis, square_q, benchmark_slacks,
         benchmark_equalities, eliminated]


@pytest.fixture(scope="module", params=CASES, ids=lambda make: make.__name__)
def case(request):
    return request.param()


# -- the properties --------------------------------------------------------------

def test_apply(case):
    F, _, _ = case
    x = np.random.default_rng(0).standard_normal(F.dim)
    Fx = F @ x
    np.testing.assert_array_equal(F(x), Fx + F.q)
    assert np.abs(Fx - F.M @ x).max() <= 1e-13 * (np.abs(F.M) @ np.abs(x)).max()
    np.testing.assert_array_equal(F @ np.zeros(F.dim), np.zeros(F.dim))


def test_beta_is_the_monotone_modulus(case):
    # monotone_modulus's stated error: a small multiple of n eps ||N|| <= n eps L
    F, _, _ = case
    bound = 10 * F.dim * np.finfo(float).eps * F.lipschitz
    assert abs(F.beta - monotone_modulus(F.M)) <= bound


@pytest.mark.parametrize("kind", ["ones", "spread", "pins", "pins_and_spread"])
def test_newton_backward_error(case, kind):
    # D as the IPM makes it: 1 on the free rows, and on the orthant rows 1,
    # 1 + s/x over 24 decades, or inf (the finish's active set), with 1 or
    # the spread on the rest
    F, cone, _ = case
    rng = np.random.default_rng(7)
    B = cone.nonneg_mask
    D = np.where(B & ("spread" in kind), 1.0 + 10.0 ** rng.uniform(-12, 12, F.dim), 1.0)
    D[B & ("pins" in kind) & (rng.random(F.dim) < 0.3)] = np.inf
    keep = np.isfinite(D)
    K = (F.M + np.diag(np.where(keep, D, 1.0) - 1.0))[np.ix_(keep, keep)]
    solve = _newton(F, D)
    for _ in range(3):
        b = rng.standard_normal(F.dim)
        y = solve(b)
        assert np.all(y[~keep] == 0.0)
        y, b = y[keep], b[keep]
        err = np.abs(K @ y - b).max()
        assert err <= 1e-14 * (np.abs(K).sum(1).max() * np.abs(y).max() + np.abs(b).max())


def test_breakdowns(case):
    F, _, (singular, D) = case
    for bad in (0.0, -1.0, np.nan):
        D_bad = np.ones(F.dim)
        D_bad[F.dim // 2] = bad
        with pytest.raises(IpmBreakdown, match="positivity"):
            _newton(F, D_bad)
    with pytest.raises(IpmBreakdown, match="singular"):
        _newton(singular, D)


def test_solve_ipm_matches_the_dense_route(case):
    F, cone, _ = case
    got, ref = solve_ipm(F, cone), solve_ipm(dense_twin(F), cone)
    assert got.finish_accepted and ref.finish_accepted
    assert (got.iterations, got.finish_attempts) == (ref.iterations, ref.finish_attempts)
    assert np.linalg.norm(got.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)
