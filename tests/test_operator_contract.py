"""One contract for every AffineOperator class.

solve_ipm, verify_pd and the Galerkin step reach a reduced problem only
through F @ x, F.q, F.beta and F._newton_factor(D). Every property below
holds on every case in CASES: an operator, its cone, an exactly singular
Newton system (an operator and its D) of the same class and route, and the
(op, basis) that build_projective made the operator from below rank n
(None for the rest). A new operator class or Newton route adds one case
and nothing else.

Three properties state how the reduced problem is built and read:
test_full_span_is_the_operator (build_projective returns the operator
itself for every basis of rank n and every alpha, computing no beta or L,
and verify_pd is its beta), test_reduced_problem_is_the_papers (below rank
n, on the cases that carry their (op, basis): N = I - P + alpha P M and
r = alpha P q, at the contraction's alpha by default, with verify_pd > 0
there) and test_no_input_is_written (solve_ipm, verify_pd and a Newton
solve leave every array of the operator, D and the right-hand side as they
were).

The interior-point method, solve_ipm, has its own properties (test_ipm_*):
its report, its exit, its active-set finish, its iteration cap, its cost
(one factorization per Newton step and per finish attempt, capped or
not), a Newton step that is not finite (which ends a solve as the cap
does, with no warning) and the natural residual each run reports. They
run on every case with the case's cone and, where any cone fits, with an
orthant and an all-free cone, so a new case gets them all.
"""
import copy
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import calls, full_spans, perfbench_module, reduction
from conevi import IpmBreakdown, projective
from conevi.basis import orthonormalize
from conevi.cones import free, orthant, parse_cone_spec, zero
from conevi.generate import generate_instance
from conevi.operators import AffineOperator, monotone_modulus
from conevi.projective import (IpmConfig, ProjectiveLcp, _newton, build_projective, solve_ipm,
                               verify_pd)
from conevi.transforms import eliminate_equalities

MIXED = parse_cone_spec("nn:14,free:6,zero:4,nn:10,free:6")
E1 = np.eye(2)[:, :1]
HALF = np.full((4, 1), 0.5)  # I + W Q = 1 - 4/4 = 0 with W = -HALF^T
ZERO = np.zeros((1, 1))


# -- the cases: the only place that names an operator class ---------------------

def dense_twin(F):
    """The reference route: F's problem as a plain operator on its dense N."""
    return AffineOperator(F.M, F.q)


def dense():
    op, _ = generate_instance(40, 4, 1.0, 3.0, seed=1)
    return (op, MIXED, (AffineOperator(np.diag([0.0, -1.0]), np.zeros(2)), np.array([1.0, 2.0])),
            None)


def gaussian_basis():
    op, basis = generate_instance(40, 8, 1.0, 3.0, seed=2)
    return (build_projective(op, basis), MIXED,
            (ProjectiveLcp(HALF, -HALF.T, np.zeros(4)), np.ones(4)), (op, basis))


def aggregation_basis():
    op, _ = generate_instance(40, 4, 1.0, 3.0, seed=3)
    groups = np.random.default_rng(3).permutation(40) % 8
    basis = orthonormalize((groups[:, None] == np.arange(8)).astype(float))
    return (build_projective(op, basis), MIXED,
            (ProjectiveLcp(E1, -E1.T, np.zeros(2)), np.ones(2)), (op, basis))


def square_q():
    # k' = n, stored with a dense orthogonal Q at alpha = 1
    op, _ = generate_instance(40, 4, 1.0, 3.0, seed=4)
    Q = orthonormalize(np.random.default_rng(4).standard_normal((40, 40))).ortho
    return (ProjectiveLcp(Q, Q.T @ op.M - Q.T, Q @ (Q.T @ op.q)), MIXED, gaussian_basis()[2],
            None)


def benchmark(i):
    """The polyhedral_ipm workload's seed-1 instance i: n = m = 200, and
    p = 20 equality rows when i is odd."""
    with pytest.MonkeyPatch.context() as mp:
        return reduction(**perfbench_module(mp, "inputs").poly_instance(1, i))


def benchmark_slacks():
    return (*benchmark(0), (reduction(ZERO, [0.0], ZERO, [0.0])[0], np.ones(3)), None)


def benchmark_equalities():
    return (*benchmark(1), (reduction(ZERO, [0.0], ZERO, [0.0], ZERO, [0.0])[0], np.ones(4)),
            None)


def benchmark_later_elimination():
    """benchmark(1) with its 20 equality rows given as -E x = -e over two
    eliminations: a block operator that a later elimination built."""
    with pytest.MonkeyPatch.context() as mp:
        vi = perfbench_module(mp, "inputs").poly_instance(1, 1)
    singular = reduction(ZERO, [0.0], ZERO, [0.0], np.zeros((2, 1)), [0.0, 0.0], -1.0, 2)[0]
    return (*reduction(**vi, sign=-1.0, calls=2), (singular, np.ones(5)), None)


def eliminated():
    op, _ = generate_instance(20, 2, 1.0, 2.0, seed=6)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 20))
    eq = eliminate_equalities(op, A, A @ np.abs(rng.standard_normal(20)), orthant(20))
    singular = eliminate_equalities(AffineOperator(np.eye(1), [0.0]), ZERO, [0.0], orthant(1))
    return eq.op, eq.cone, (singular.op, np.ones(2)), None


CASES = [dense, gaussian_basis, aggregation_basis, square_q, benchmark_slacks,
         benchmark_equalities, benchmark_later_elimination, eliminated]
BELOW_RANK_N = [gaussian_basis, aggregation_basis]  # the cases that carry their (op, basis)


@pytest.fixture(scope="module", params=CASES, ids=lambda make: make.__name__)
def case(request):
    return request.param()


# -- the properties --------------------------------------------------------------

def test_apply(case):
    F, *_ = case
    x = np.random.default_rng(0).standard_normal(F.dim)
    Fx = F @ x
    np.testing.assert_array_equal(F(x), Fx + F.q)
    assert np.abs(Fx - F.M @ x).max() <= 1e-13 * (np.abs(F.M) @ np.abs(x)).max()
    np.testing.assert_array_equal(F @ np.zeros(F.dim), np.zeros(F.dim))


def test_beta_is_the_monotone_modulus(case):
    # monotone_modulus's stated error: a small multiple of n eps ||N|| <= n eps L
    F, *_ = case
    bound = 10 * F.dim * np.finfo(float).eps * F.lipschitz
    assert abs(F.beta - monotone_modulus(F.M)) <= bound


def newton_diagonal(cone, kind, rng):
    """D as the IPM makes it: 1 on the free rows, and on the orthant rows 1,
    1 + s/x over 24 decades, or inf (the finish's active set), with 1 or the
    spread on the rest."""
    B, dim = cone.nonneg_mask, cone.dim
    D = np.where(B & ("spread" in kind), 1.0 + 10.0 ** rng.uniform(-12, 12, dim), 1.0)
    D[B & ("pins" in kind) & (rng.random(dim) < 0.3)] = np.inf
    return D


@pytest.mark.parametrize("kind", ["ones", "spread", "pins", "pins_and_spread"])
def test_newton_backward_error(case, kind):
    F, cone, *_ = case
    rng = np.random.default_rng(7)
    D = newton_diagonal(cone, kind, rng)
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


def test_breakdowns(case, monkeypatch):
    # a D that is not positive is refused before the route factors anything
    F, _, (singular, D), _ = case
    factored = calls(monkeypatch, type(F), "_newton_factor")
    for bad in (0.0, -1.0, np.nan):
        D_bad = np.ones(F.dim)
        D_bad[F.dim // 2] = bad
        with pytest.raises(IpmBreakdown, match="positivity"):
            _newton(F, D_bad)
    assert factored == []
    with pytest.raises(IpmBreakdown, match="singular"):
        _newton(singular, D)


def test_solve_ipm_matches_the_dense_route(case):
    F, cone, *_ = case
    got, ref = solve_ipm(F, cone), solve_ipm(dense_twin(F), cone)
    assert got.finish_accepted and ref.finish_accepted
    assert (got.iterations, got.finish_attempts) == (ref.iterations, ref.finish_attempts)
    assert np.linalg.norm(got.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)


def test_full_span_is_the_operator(case, monkeypatch):
    # a basis of rank n gives N = alpha M and r = alpha q, which only rescale
    # CP(F): the reduced problem is F itself for every such basis and alpha,
    # with no beta or L computed for it, and its verify_pd is F's beta
    F, *_ = case

    def no_constants(self):
        raise AssertionError("beta or L computed for a full span")

    monkeypatch.setattr(AffineOperator, "contraction", no_constants)
    for raw in full_spans(F.dim, np.random.default_rng(8)):
        basis = orthonormalize(raw)
        for alpha in (None, 1.0, 0.3, 1e-9):
            assert build_projective(F, basis, alpha) is F
    assert verify_pd(F) == F.beta


@pytest.mark.parametrize("case", BELOW_RANK_N, indirect=True, ids=lambda make: make.__name__)
def test_reduced_problem_is_the_papers(case):
    # below rank n, with P = Q Q^T: N = I + Q W is I - P + alpha P M and r is
    # alpha P q, in span(Q), at alpha = op.contraction().alpha when none is
    # given, where N is positive definite
    F, _, _, (op, basis) = case
    alpha = op.contraction().alpha
    P = basis.ortho @ basis.ortho.T
    N = np.eye(F.dim) - P + alpha * (P @ op.M)
    assert np.abs(F.M - N).max() <= 1e-14 * np.abs(N).max()
    r = F.q
    assert np.linalg.norm(r - alpha * (P @ op.q)) <= 1e-14 * np.linalg.norm(r)
    assert np.linalg.norm(r - basis.project_span(r)) <= 1e-14 * np.linalg.norm(r)
    given = build_projective(op, basis, alpha)
    assert [a.tobytes() for a in (F.ortho, F.W, F.q)] == [
        a.tobytes() for a in (given.ortho, given.W, given.q)]
    assert verify_pd(F) > 0.0


def test_no_input_is_written(case):
    # the LU factorizations overwrite only the matrices they build: solve_ipm,
    # verify_pd and a Newton solve at a spread and pinned D leave every array
    # of F, D and the right-hand side byte for byte as they were
    F, cone, *_ = case
    rng = np.random.default_rng(9)
    D = newton_diagonal(cone, "pins_and_spread", rng)
    inputs = {"D": D, "b": rng.standard_normal(F.dim)}
    inputs.update((name, a) for name, a in vars(F).items() if isinstance(a, np.ndarray))
    before = {name: a.tobytes() for name, a in inputs.items()}
    solve_ipm(F, cone)
    verify_pd(F)
    _newton(F, D)(inputs["b"])
    assert {name: a.tobytes() for name, a in inputs.items()} == before


# -- the interior-point method on every case ----------------------------------------

TOL = IpmConfig().tol
SWAPPABLE = [dense, gaussian_basis, aggregation_basis, square_q]  # take any cone of their size
IPM_CASES = [(make, "own") for make in CASES] + [
    (make, kind) for make in SWAPPABLE for kind in ("orthant", "free")]


@pytest.fixture(scope="module", params=IPM_CASES, ids=lambda p: f"{p[0].__name__}-{p[1]}")
def ipm(request):
    """solve_ipm on a case's operator with its own cone, an orthant or an
    all-free one, recording each measured iterate (x, s), each finish
    attempt (iterate, pinned rows, accepted) and the arguments of each
    factorization of its Newton system; and the same solve with every
    finish candidate refused, the path alone."""
    make, kind = request.param
    F, cone, *_ = make()
    cone = {"own": cone, "orthant": orthant(F.dim), "free": free(F.dim)}[kind]
    run = SimpleNamespace(F=F, cone=cone, attempts=[])
    finish = projective._finish_candidate

    def recorded_finish(F, active, B):
        out = finish(F, active, B)
        run.attempts.append((len(guesses), active, out is not None and out[1] <= TOL))
        return out

    with pytest.MonkeyPatch.context() as mp:
        guesses = calls(mp, projective, "_active_guess")  # once at every measured iterate
        mp.setattr(projective, "_finish_candidate", recorded_finish)
        run.factored = calls(mp, type(F), "_newton_factor")
        run.rep = solve_ipm(F, cone)
        mp.undo()
        run.iterates = [(x, s) for x, s, _ in guesses]
        mp.setattr(projective, "_finish_candidate", lambda *args: None)
        run.plain = solve_ipm(F, cone)
    return run


def measured(F, cone, x, s):
    """IpmReport's mu and feasibility at the iterate (x, s)."""
    B = cone.nonneg_mask
    g = F @ x + F.q - s
    g[cone.zero_mask] = 0.0
    return (float(x[B] @ s[B]) / B.sum() if B.any() else 0.0), float(np.abs(g).max())


def assert_residual(F, cone, run):
    """The run reports ||min(x_B, y_B), y_F||_inf / (||x||_inf + ||F.q||_inf)
    at its x, y = F @ x + F.q, 0 on the zero rows. x_i - P(x_i - y_i) is
    min(x_i, y_i) or y_i to the two roundings of x_i - y_i and of that
    subtraction."""
    x, B = run.x, cone.nonneg_mask
    y = F @ x + F.q
    rows = np.where(B, np.minimum(x, y), np.where(cone.free_mask, y, 0.0))
    scale = np.abs(x).max() + np.abs(F.q).max()
    slack = 2 * np.finfo(float).eps * (np.abs(x).max() + np.abs(y).max()) / scale
    assert abs(run.residual - np.abs(rows).max() / scale) <= slack


def test_ipm_report(ipm):
    # one history row per Newton step: the mu and feasibility of the iterate it
    # steps from, then its step and sigma; x > 0 and s > 0 on the orthant rows,
    # s = 0 off them, x = 0 on the zero rows; mu falls at every step
    F, cone, rep = ipm.F, ipm.cone, ipm.rep
    B, Z = cone.nonneg_mask, cone.zero_mask
    assert rep.converged and len(ipm.iterates) == rep.iterations == len(rep.history) + 1
    rows = [measured(F, cone, x, s) for x, s in ipm.iterates]
    assert [row[:2] for row in rep.history] == rows[:-1]
    for x, s in ipm.iterates:
        assert np.all(x[B] > 0.0) and np.all(s[B] > 0.0) and not s[~B].any() and not x[Z].any()
    for mu, _, step, sigma in rep.history:
        assert (mu > 0.0 if B.any() else mu == 0.0) and 0.0 < step <= 1.0 and 0.0 <= sigma <= 1.0
    mus = [row[0] for row in rep.history]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    if not rep.finish_accepted:  # the report is the last iterate's
        assert np.array_equal(rep.x, ipm.iterates[-1][0])
        assert (rep.mu, rep.feasibility) == rows[-1]


def test_ipm_exit(ipm):
    # with and without the finish: complementary within 10 tol, the free rows'
    # residual within the reported feasibility, itself within tol, x >= 0 on
    # the orthant rows and exactly 0 on the zero rows
    F, cone, rep = ipm.F, ipm.cone, ipm.rep
    B, Z = cone.nonneg_mask, cone.zero_mask
    for run in (rep, ipm.plain):
        assert_residual(F, cone, run)
        y = F @ run.x + F.q
        assert run.converged and not run.x[Z].any() and np.all(run.x[B] >= 0.0)
        assert np.abs(y[cone.free_mask]).max(initial=0.0) <= run.feasibility <= TOL
        assert cone.is_complementary(run.x, y, 10 * TOL)
    assert rep.finish_accepted == B.any() and ipm.plain.mu <= TOL
    if rep.finish_accepted:
        # exact: x = 0 on the pinned rows A, y >= 0 on A's orthant rows, and
        # the equations y = 0 on the rest hold to rounding
        _, active, _ = ipm.attempts[-1]
        x, y = rep.x, F @ rep.x + F.q
        assert rep.mu == 0.0 and not x[active].any() and np.all(y[active & B] >= 0.0)
        scale = np.abs(F.M).sum(1).max() * np.abs(x).max() + np.abs(F.q).max()
        assert rep.feasibility == np.abs(y[~active]).max(initial=0.0) <= 1e-14 * scale


def test_ipm_origin(ipm):
    # x = 0 solves CP(Nx), r = 0, where every orthant row is degenerate
    # (x_i = (Nx)_i = 0), and it is the one point of the all-zero cone: both
    # solves end exactly there
    G = copy.copy(ipm.F)
    G.q = np.zeros(G.dim)
    for F, cone in ((G, ipm.cone), (ipm.F, zero(G.dim))):
        rep = solve_ipm(F, cone)
        assert rep.converged and not rep.x.any()


def test_ipm_finish_rule(ipm):
    # the finish is tried at each iterate whose guess A = {i in B : x_i < s_i}
    # repeats the previous iterate's and is not the last rejected guess, with A
    # and the zero rows pinned; only the last attempt may be accepted, and a
    # rejected one leaves the path as it was
    B, Z = ipm.cone.nonneg_mask, ipm.cone.zero_mask
    guesses = [B & (x < s) for x, s in ipm.iterates]
    tried, rejected = [], None
    for t in range(1, len(guesses)):
        if (B.any() and np.array_equal(guesses[t], guesses[t - 1])
                and not np.array_equal(guesses[t], rejected)):
            tried.append((t + 1, (guesses[t] | Z).tolist()))
            rejected = guesses[t]
    rep = ipm.rep
    assert [(t, active.tolist()) for t, active, _ in ipm.attempts] == tried
    assert rep.finish_attempts == len(tried)
    accepted = [ok for *_, ok in ipm.attempts]
    assert not any(accepted[:-1]) and rep.finish_accepted == any(accepted[-1:])
    assert ipm.plain.history[:len(rep.history)] == rep.history


@pytest.mark.parametrize("reason", ["signs", "singular"])
def test_ipm_rejected_guess(ipm, reason, monkeypatch):
    # every orthant row guessed active at every iterate: x = 0 there fails the
    # finish's sign test, or its system is singular. The guess is tried once,
    # and the solve is the path without the finish
    B = ipm.cone.nonneg_mask
    monkeypatch.setattr(projective, "_active_guess", lambda x, s, B: B.copy())
    newton = projective._newton

    def singular_finish(F, D):  # only the finish pins orthant rows
        if np.isinf(D[B]).any():
            raise IpmBreakdown("singular")
        return newton(F, D)

    if reason == "singular":
        monkeypatch.setattr(projective, "_newton", singular_finish)
    rep = solve_ipm(ipm.F, ipm.cone)
    assert rep.finish_attempts == B.any() and not rep.finish_accepted
    assert rep.history == ipm.plain.history and np.array_equal(rep.x, ipm.plain.x)


def test_ipm_finish_before_the_stopping_test(ipm, monkeypatch):
    # every orthant row guessed active, and the accepted finish's rows from the
    # iterate before the one where the path alone meets its stopping test:
    # tried there, the finish takes precedence and ends the solve at that
    # iterate with the point the solve accepted
    B, plain = ipm.cone.nonneg_mask, ipm.plain
    if ipm.rep.finish_accepted:
        right, late_mu = ipm.attempts[-1][1] & B, plain.history[-1][0]
        monkeypatch.setattr(projective, "_active_guess", lambda x, s, B: (
            right if float(x[B] @ s[B]) / B.sum() <= late_mu else B).copy())
        rep = solve_ipm(ipm.F, ipm.cone)
        assert rep.finish_accepted and rep.iterations == plain.iterations
        assert np.array_equal(rep.x, ipm.rep.x)


def test_ipm_cap(ipm):
    # max_iter one short of the solve's iterations: no step past the cap, and
    # the report is the iterate the full solve took its last step from
    F, cone, rep = ipm.F, ipm.cone, ipm.rep
    cap = rep.iterations - 1
    capped = solve_ipm(F, cone, IpmConfig(max_iter=cap))
    x, s = ipm.iterates[cap - 1]
    assert not capped.converged and capped.iterations == cap
    assert capped.history == rep.history[:cap - 1]
    assert np.array_equal(capped.x, x) and (capped.mu, capped.feasibility) == measured(F, cone, x, s)
    assert capped.finish_attempts == sum(t <= cap for t, _, _ in ipm.attempts)
    assert_residual(F, cone, capped)


def test_ipm_factorizations(ipm, monkeypatch):
    # the method's cost: one factorization of the Newton system per Newton
    # step and per finish attempt. The last iterate only tests the stop or
    # tries the finish, also when it is the last one the cap allows
    factored = calls(monkeypatch, type(ipm.F), "_newton_factor")
    capped = solve_ipm(ipm.F, ipm.cone, IpmConfig(max_iter=ipm.rep.iterations - 1))
    for rep, n in ((ipm.rep, len(ipm.factored)), (capped, len(factored))):
        assert n == len(rep.history) + rep.finish_attempts


def assert_ends_as_capped(F, cone, cfg=IpmConfig()):
    """solve_ipm(F, cone, cfg), unconverged and with no warning, its report
    field by field the one of the same solve capped at its own iteration
    count: a Newton step that is not finite ends the solve at the iterate it
    starts from, as the cap does. Returns the report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve_ipm(F, cone, cfg)
        capped = solve_ipm(F, cone, IpmConfig(tol=cfg.tol, max_iter=rep.iterations))
    assert not rep.converged
    assert {**vars(rep), "x": rep.x.tobytes()} == {**vars(capped), "x": capped.x.tobytes()}
    return rep


def test_ipm_breakdowns(ipm, monkeypatch):
    # a Newton step that is not finite ends the solve as the cap would, forced
    # two ways. A tolerance no iterate meets drives s_i / x_i to overflow on the
    # active rows, and the step is not finite before the cap; with no orthant
    # row the solve runs to the cap instead. A NaN poisoned into dx on the last
    # step the solve takes ends it one iterate early
    F, cone, B = ipm.F, ipm.cone, ipm.cone.nonneg_mask
    rep = assert_ends_as_capped(F, cone, IpmConfig(tol=1e-30))
    assert (rep.iterations < IpmConfig().max_iter) == B.any()
    directions, last = projective._newton_directions, ipm.iterates[-2][0]

    def poisoned(solve, d, x, *args):
        dx_aff, ds_aff, dx, ds, sigma = directions(solve, d, x, *args)
        if np.array_equal(x, last):
            dx = dx.copy()
            dx[np.flatnonzero(B)[0] if B.any() else 0] = np.nan
        return dx_aff, ds_aff, dx, ds, sigma

    monkeypatch.setattr(projective, "_newton_directions", poisoned)
    assert assert_ends_as_capped(F, cone).iterations == ipm.rep.iterations - 1


@pytest.mark.parametrize("form", ["lcp", "polyhedral"])
def test_ipm_without_a_solution_breaks_down(form):
    # M = [[0, 1], [-1, 0]], q = (-1, -1) is monotone with no solution: x_2
    # grows until the corrector's (sigma mu - dx ds) / x overflows, and the
    # Newton step is not finite before the cap. Solved directly and as the VI
    # over {x : I x + 0 >= 0}, the solve ends there as the cap would
    M, q = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([-1.0, -1.0])
    F, cone = (AffineOperator(M, q), orthant(2)) if form == "lcp" else reduction(
        M, q, np.eye(2), np.zeros(2))
    assert assert_ends_as_capped(F, cone).iterations < IpmConfig().max_iter
