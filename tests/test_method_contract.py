"""One contract for the three projection methods, one update x <- P(x - G(x)) from
x = 0 with a pair (G, P) each, stopped on the scale-free residual of that step: every
property holds for every method on every case.
test_ipm_agrees also solves each affine case's problem with the interior-point
method, solve_ipm, and checks its point against each method's; the IPM's own
properties are in test_operator_contract.py."""
import numpy as np
import pytest

from conftest import calls, reduction
from conevi import (AffineOperator, CallableOperator, SolveConfig, bound_report,
                    build_projective, certify, generate_instance, orthant, orthonormalize,
                    parse_cone_spec, project_intersection, solve_bertsekas, solve_exact,
                    solve_galerkin, solve_ipm, solvers)
from conevi.basis import Basis
from conevi.cones import SeparableCone

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


def pre_image(method, op, basis, alpha, x):
    """v = x - G(x) of the method's pair, written from its definition."""
    return x - alpha * op(x) if method == "exact" else basis.project_span(x - alpha * op(x))


def update(method, op, cone, basis, alpha, x):
    """One step P(x - G(x)) of the method's pair (G, P), written from its definition."""
    v = pre_image(method, op, basis, alpha, x)
    return project_intersection(cone, basis, v) if method == "bertsekas" else cone.project(v)


def residual(method, op, cone, basis, alpha, x):
    """The residual of x on the method's step, written from its definition:
    ||x - P(x - G(x))||_inf / (||x||_inf + ||G(0)||_inf), and 0 for a zero
    step, for (G, P) = (alpha F, P_C), (G_S, P_C) or (G_S, P_{C & span})."""
    step = np.abs(x - update(method, op, cone, basis, alpha, x)).max()
    g0 = np.abs(pre_image(method, op, basis, alpha, np.zeros(N))).max()
    return step / (np.abs(x).max() + g0) if step else 0.0


def test_report_and_feasibility(case, method):
    # every case contracts, so each run stops at its first iterate x_t with
    # residual <= tol and returns it; x_t is the pair's update of x_{t-1}, in
    # C, and each logged residual is its iterate's, from the definition
    rep = METHODS[method](*case, SolveConfig(trace=True))
    rhos, its = rep.residuals, rep.iterates
    assert rep.iterations == len(rhos) == len(its) and not its[0].any()
    assert rep.converged and rhos[-1] <= TOL and all(r > TOL for r in rhos[:-1])
    for t in range(1, len(its)):
        ref = update(method, *case, rep.alpha, its[t - 1])
        assert np.linalg.norm(its[t] - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
        assert case[1].contains(its[t], 0.0)
        if method == "bertsekas":  # also in span(Phi)
            assert case[2].representation_error(its[t]) <= 1e-11 * (1 + np.linalg.norm(its[t]))
    for rho, x in zip(rhos, its):
        assert abs(rho - residual(method, *case, rep.alpha, x)) <= 1e-15
    if method == "galerkin":
        assert np.array_equal(rep.x, case[1].project(rep.z)) and rep.certificate.valid
    else:
        assert np.array_equal(rep.x, its[-1])


def test_residual(case, method):
    # a run reports the residual of the iterate x_T it stopped on, and is
    # converged exactly when that is <= tol; a trace changes nothing. For
    # galerkin x is x_T's update, P_C(z) with z = x_T - G_S(x_T). Below rank
    # n the library's G_S is the reduced operator and the test's the generic
    # step, so they agree to rounding
    rep, traced = METHODS[method](*case), METHODS[method](*case, SolveConfig(trace=True))
    x_T = traced.iterates[-1]
    assert rep.residuals == traced.residuals and np.array_equal(rep.x, traced.x)
    assert rep.residual == rep.residuals[-1] and rep.converged == (rep.residual <= TOL)
    assert abs(rep.residual - residual(method, *case, rep.alpha, x_T)) <= 1e-15
    if method == "galerkin":
        ref = update(method, *case, rep.alpha, x_T)
        assert np.linalg.norm(rep.x - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
    else:
        assert np.array_equal(rep.x, x_T)


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


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(max_iter=3)], ids=["stop", "cap"])
def test_step_counts(case, method, cfg, monkeypatch):
    # the cost of a run of T steps: each step applies F once and projects
    # once, onto C or C & span (which projects onto C once); G_S adds one
    # P_span, and below rank n an AffineOperator's reduced G_S neither
    # applies F nor projects onto the span. Galerkin's certificate adds
    # F(x_bar), F(0) for its allowance, and P_C(z_bar)
    op, cone, basis = case
    applied = calls(monkeypatch, type(op), "__call__")
    onto_c = calls(monkeypatch, SeparableCone, "project")
    onto_span = calls(monkeypatch, Basis, "project_span")
    onto_both = calls(monkeypatch, solvers, "project_intersection")
    T = METHODS[method](op, cone, basis, cfg).iterations
    S = 0 if isinstance(op, AffineOperator) and basis.rank < N else T  # G_S's F and P_span
    expected = {"exact": (T, T, 0, 0), "galerkin": (S + 2, T + 1, S, 0),
                "bertsekas": (S, T, S, T)}[method]
    F = sum(args[0] is op for args in applied)
    assert (F, len(onto_c), len(onto_span), len(onto_both)) == expected


def test_contraction(case, method):
    # every step contracts towards the fixed point by the reported gamma,
    # sqrt(1 - beta^2 / L^2) at alpha = beta / L^2
    rep = METHODS[method](*case, SolveConfig(trace=True, tol=1e-12))
    d = rep.distances_to_final()
    assert rep.converged and np.all(d[1:] <= rep.gamma * d[:-1] + 1e-10)


def scaled(op, c, q_only):
    """c F, or F with q multiplied by c when q_only; q_only needs an affine F."""
    if q_only:
        return AffineOperator(op.M, c * op.q)
    if isinstance(op, AffineOperator):
        return AffineOperator(c * op.M, c * op.q)
    return CallableOperator(lambda x: c * op(x), N, c * op.beta, c * op.lipschitz)


def test_scale_free(case, method):
    # a VI's solutions do not change when F is multiplied by c > 0, and are c
    # times as large when q alone is. For c a power of two every step, every
    # residual and the stop are the c = 1 ones, so each method returns the
    # c = 1 report, scaled, bit for bit, with the c = 1 certificate verdict
    # and c times its null-space violation, and bound_report the c = 1
    # verdicts; 2**+-540 puts entries beyond the square root of the largest
    # and the smallest double, where a plain norm or dot product overflows
    op, cone, basis = case
    ref, bounds = METHODS[method](op, cone, basis), bound_report(op, cone, basis)
    affine = isinstance(op, AffineOperator)
    for c in (2.0**-540, 2.0**-40, 2.0**-20, 2.0**20, 2.0**40, 2.0**540):
        for q_only in (False, True)[:1 + affine]:
            F, unit = scaled(op, c, q_only), (c if q_only else 1.0)
            rep = METHODS[method](F, cone, basis)
            assert (rep.iterations, rep.converged, rep.residual) == (
                ref.iterations, ref.converged, ref.residual)
            assert np.array_equal(rep.x, unit * ref.x)
            assert rep.z is ref.z is None or np.array_equal(rep.z, unit * ref.z)
            if method == "galerkin":
                assert rep.certificate.valid == ref.certificate.valid
                assert rep.certificate.null_space_violation == (
                    c * ref.certificate.null_space_violation)
            got = bound_report(F, cone, basis)
            assert (got.new_ok, got.bertsekas_ok) == (bounds.new_ok, bounds.bertsekas_ok)


def test_twin(case, method):
    # the generic step x - P_span(x - alpha F(x)) against an AffineOperator's reduced one
    op, cone, basis = case
    twin = CallableOperator(op, N, op.beta, op.lipschitz)
    got, ref = METHODS[method](twin, cone, basis), METHODS[method](op, cone, basis)
    assert got.iterations == ref.iterations
    np.testing.assert_allclose(got.x, ref.x, rtol=1e-12, atol=1e-15)


def test_failure(case, method):
    # the cap ends the run on the last iterate it measured, whose residual it
    # reports
    op, cone, basis = case
    capped = METHODS[method](op, cone, basis, SolveConfig(max_iter=2, tol=1e-300, trace=True))
    x_1 = capped.iterates[1]
    assert not capped.converged and capped.iterations == len(capped.iterates) == 2
    assert abs(capped.residual - residual(method, *case, capped.alpha, x_1)) <= 1e-15
    assert method == "galerkin" or np.array_equal(capped.x, x_1)
    # in G_S's span projection +inf meets a zero of Q: a NaN, with no warning.
    # A step that is not finite at the first or the second iterate ends the
    # run there, unconverged, with a NaN residual; galerkin keeps that
    # iterate too, with no z and no certificate
    for value in (np.nan, np.inf):
        for T, x_T in enumerate((np.zeros(N), x_1), 1):
            bad = CallableOperator(lambda x: np.full(N, value) if T == 1 or x.any() else op(x),
                                   N, op.beta, op.lipschitz)
            rep = METHODS[method](bad, cone, basis, SolveConfig(trace=True))
            assert not rep.converged and np.isnan(rep.residual)
            assert rep.iterations == len(rep.iterates) == T and np.isfinite(rep.residuals[:-1]).all()
            assert np.array_equal(rep.x, rep.iterates[-1]) and rep.z is None and rep.certificate is None
            np.testing.assert_allclose(rep.x, x_T, rtol=1e-12, atol=1e-15)
            assert [row[0] for row in rep.trace_rows()] == list(range(1, T + 1))


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
