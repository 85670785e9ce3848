"""One contract for the three projection methods, one update x <- P(x - G(x)) from
x = 0 with a pair (G, P) each: every property holds for every method on every case.
test_ipm_agrees also solves each affine case's problem with the interior-point
method, solve_ipm, and checks its point against each method's; the IPM's own
properties are in test_operator_contract.py."""
import numpy as np
import pytest

from conftest import reduction
from conevi import (AffineOperator, CallableOperator, IntersectionProjectionFailed, SolveConfig,
                    bound_report, build_projective, certify, generate_instance, orthant,
                    orthonormalize, parse_cone_spec, project_intersection, solve_bertsekas,
                    solve_exact, solve_galerkin, solve_ipm, solvers)

N, TOL = 30, SolveConfig.tol
CASES = ["orthant_abs_gaussian", "mixed_gaussian", "aggregation", "full_span", "nonlinear"]
METHODS = {"exact": lambda op, cone, basis, cfg=None: solve_exact(op, cone, cfg),
           "galerkin": solve_galerkin, "bertsekas": solve_bertsekas}
pytestmark = pytest.mark.parametrize("method", sorted(METHODS))


@pytest.fixture(scope="module", params=CASES)
def case(request):
    """(operator, cone, basis): the only place that builds one."""
    seed = CASES.index(request.param) + 2
    op, gaussian = generate_instance(N, 8, 1.0, 3.0, seed)
    rng = np.random.default_rng(seed)
    nonneg = orthonormalize(np.abs(rng.standard_normal((N, 6))))  # meets the orthant beyond 0
    groups = rng.permutation(N) % 6  # 0/1 aggregation: the disjoint-support route
    q = rng.standard_normal(N)  # F(x) = 2x + 0.5 sin(x) + q has F' in [1.5, 2.5]
    free_rows = parse_cone_spec("nn:20,free:10")
    return {
        "orthant_abs_gaussian": (op, orthant(N), nonneg),
        "mixed_gaussian": (op, parse_cone_spec("nn:8,free:16,zero:3,nn:3"), gaussian),
        "aggregation": (op, free_rows, orthonormalize(1.0 * (groups[:, None] == np.arange(6)))),
        "full_span": (op, free_rows, orthonormalize(np.eye(N))),
        "nonlinear": (CallableOperator(lambda x: 2 * x + 0.5 * np.sin(x) + q, N, 1.5, 2.5),
                      orthant(N), nonneg),
    }[request.param]


def update(method, op, cone, basis, alpha, x):
    """One step of the method's pair (G, P), written from its definition."""
    v = x - alpha * op(x) if method == "exact" else basis.project_span(x - alpha * op(x))
    return project_intersection(cone, basis, v) if method == "bertsekas" else cone.project(v)


def residual(method, op, cone, basis, alpha, x):
    """The natural residual of x on the problem the method solves, written
    from its definition: ||x - P(x - F(x))||_inf / (1 + ||F(0)||_inf) for
    (F, P) = (op, P_C), (G_S, P_C) or (op, P_{C & span})."""
    F = (lambda v: v - basis.project_span(v - alpha * op(v))) if method == "galerkin" else op
    P = cone.project if method != "bertsekas" else (
        lambda v: project_intersection(cone, basis, v))
    return np.abs(x - P(x - F(x))).max() / (1.0 + np.abs(F(np.zeros(N))).max())


def test_report_and_feasibility(case, method):
    # every case contracts, so each run stops at its first step <= tol; step t
    # is the pair's update of x_{t-1}, in C, and x_T is a fixed point within tol
    rep = METHODS[method](*case, SolveConfig(trace=True))
    steps, its = rep.step_norms, rep.iterates
    assert rep.iterations == len(steps) == len(its) - 1 and not its[0].any()
    assert rep.converged and steps[-1] <= TOL and all(s > TOL for s in steps[:-1])
    for t in range(1, len(its)):
        assert steps[t - 1] == float(np.linalg.norm(its[t] - its[t - 1]))
        ref = update(method, *case, rep.alpha, its[t - 1])
        assert np.linalg.norm(its[t] - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
        assert case[1].contains(its[t], 0.0)
        if method == "bertsekas":  # also in span(Phi)
            assert case[2].representation_error(its[t]) <= 1e-11 * (1 + np.linalg.norm(its[t]))
    assert np.linalg.norm(update(method, *case, rep.alpha, its[-1]) - its[-1]) <= TOL
    if method == "galerkin":
        assert np.array_equal(rep.x, case[1].project(rep.z)) and rep.certificate.valid
    else:
        assert np.array_equal(rep.x, its[-1])


def test_residual(case, method):
    # the residual of the x the method returns, on its own problem, where it
    # is about 1e-10 here; below rank n the library's G_S is the reduced
    # operator and the test's the generic step, so they agree to rounding
    rep = METHODS[method](*case)
    ref = residual(method, *case, rep.alpha, rep.x)
    assert abs(rep.residual - ref) <= 1e-15 and rep.residual <= 1e-8


def test_bounds(case, method):
    c = bound_report(*case)
    ok, pairs = {
        "exact": (c.exact_converged, []),
        "galerkin": (c.galerkin_converged and c.new_ok, [(c.x_bar, c.x_star), (c.z_bar, c.z_star)]),
        "bertsekas": (c.bertsekas_converged and c.bertsekas_ok, [(c.x_hat, c.x_star)]),
    }[method]
    assert ok
    if case[2].rank == N:  # a full span: every method solves the original problem
        assert max(c.bound_new, c.bound_bertsekas, c.err_new_x, c.err_new_z, c.err_bertsekas) <= 1e-8
        for got, ref in pairs:
            np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-10)


def test_twin(case, method):
    # the generic step x - P_span(x - alpha F(x)) against an AffineOperator's reduced one
    op, cone, basis = case
    twin = CallableOperator(op, N, op.beta, op.lipschitz)
    got, ref = METHODS[method](twin, cone, basis), METHODS[method](op, cone, basis)
    assert got.iterations == ref.iterations
    np.testing.assert_allclose(got.x, ref.x, rtol=1e-12, atol=1e-15)


def test_failure(case, method, monkeypatch):
    # in G_S's span projection +inf meets a zero of Q: a NaN, with no warning
    op, cone, basis = case
    for value in (np.nan, np.inf):
        bad = CallableOperator(lambda x: np.full(N, value), N, op.beta, op.lipschitz)
        rep = METHODS[method](bad, cone, basis, SolveConfig(trace=True))
        assert not rep.converged and rep.iterations == 1 and np.isnan(rep.step_norms[0])
        assert len(rep.iterates) == 1 and rep.trace_rows() == [] and np.isnan(rep.residual)
        assert method == "galerkin" or not rep.x.any()
    rep = METHODS[method](op, cone, basis, SolveConfig(max_iter=2, tol=1e-300))
    assert not rep.converged and rep.iterations == 2
    assert abs(rep.residual - residual(method, *case, rep.alpha, rep.x)) <= 1e-15
    if method == "bertsekas":
        # P_{C & span} fails only at the residual's point, which no step
        # visited: the same report, with a NaN residual and nothing raised
        calls = []

        def fails_last(*args):
            calls.append(args)
            if len(calls) > rep.iterations:
                raise IntersectionProjectionFailed("at the residual's point")
            return project_intersection(*args)

        monkeypatch.setattr(solvers, "project_intersection", fails_last)
        failed = solve_bertsekas(op, cone, basis, SolveConfig(max_iter=2, tol=1e-300))
        assert np.isnan(failed.residual) and len(calls) == rep.iterations + 1
        assert np.array_equal(failed.x, rep.x) and failed.step_norms == rep.step_norms


def test_ipm_agrees(case, method):
    # the IPM solves the same VI as the fixed point: for exact, CP(F) itself;
    # for galerkin, the reduced problem at the same alpha, where its accepted
    # finish carries the paper's certificate; for bertsekas, VI(F, C & span),
    # which is VI(Q^T F(Q w), {Q_B w >= 0, Q_Z w = 0}) on x = Q w, solved by
    # the block route of its polyhedral reduction (w is its x block)
    op, cone, basis = case
    if not isinstance(op, AffineOperator):
        pytest.skip("the IPM needs an affine F")
    ref = METHODS[method](op, cone, basis, SolveConfig(tol=1e-13))
    if method == "bertsekas":
        Q, B, Z = basis.ortho, cone.nonneg_mask, cone.zero_mask
        m = int(B.sum())
        rep = solve_ipm(*reduction(Q.T @ op.M @ Q, Q.T @ op.q, Q[B], np.zeros(m),
                                   Q[Z], np.zeros(int(Z.sum()))))
        x, tol = Q @ rep.x[m:m + basis.rank], 1e-10
    else:
        rep = solve_ipm(op if method == "exact" else build_projective(op, basis, ref.alpha),
                        cone)
        x, tol = rep.x, 1e-12
        assert rep.finish_accepted
    assert ref.converged and rep.converged
    assert np.linalg.norm(x - ref.x) <= tol * (1.0 + np.linalg.norm(ref.x))
    if method == "galerkin":
        z = basis.project_span(x - ref.alpha * op(x))
        assert certify(op, cone, basis, x, z, ref.alpha).valid
