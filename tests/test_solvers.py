import itertools

import numpy as np
import pytest
import scipy.optimize

from conftest import calls
from conevi import solvers
from conevi.basis import Basis, orthonormalize
from conevi.cones import free, orthant, parse_cone_spec
from conevi.generate import generate_instance
from conevi.operators import AffineOperator, CallableOperator, NotStronglyMonotone
from conevi.solvers import (
    IntersectionProjectionFailed,
    SolveConfig,
    bound_report,
    certify,
    project_intersection,
    solve_bertsekas,
    solve_exact,
    solve_galerkin,
)


def lcp_bruteforce(M, q):
    """Oracle: solve LCP(Mx+q, orthant) by enumerating active sets."""
    M = np.asarray(M, float)
    q = np.asarray(q, float)
    n = M.shape[0]
    for active in itertools.product([False, True], repeat=n):
        act = np.array(active)
        x = np.zeros(n)
        if act.any():
            try:
                x[act] = np.linalg.solve(M[np.ix_(act, act)], -q[act])
            except np.linalg.LinAlgError:
                continue
        s = M @ x + q
        if np.all(x >= -1e-12) and np.all(s >= -1e-10):
            return x
    raise AssertionError("enumeration found no solution")


def basis_from_columns(*cols):
    return orthonormalize(np.column_stack([np.asarray(c, float) for c in cols]))


class TestSolveExact:
    def test_identity_operator_projects_minus_q(self):
        op = AffineOperator(np.eye(2), [-1.0, 1.0])
        rep = solve_exact(op, orthant(2))
        assert rep.converged
        np.testing.assert_allclose(rep.x, [1.0, 0.0], atol=1e-10)

    def test_gamma_zero_converges_immediately(self):
        q = np.array([1.5, -3.0, 0.25])
        op = AffineOperator(2.0 * np.eye(3), q)
        rep = solve_exact(op, orthant(3))
        assert rep.converged and rep.iterations <= 2
        np.testing.assert_allclose(rep.x, np.maximum(-q / 2.0, 0.0), atol=1e-10)

    def test_matches_active_set_enumeration(self):
        M = np.array([[2.0, 1.0], [0.0, 2.0]])
        q = np.array([-2.0, -2.0])
        oracle = lcp_bruteforce(M, q)
        np.testing.assert_allclose(oracle, [0.5, 1.0], atol=1e-12)
        op = AffineOperator(M, q)
        rep = solve_exact(op, orthant(2))
        np.testing.assert_allclose(rep.x, oracle, atol=1e-8)
        resid = rep.x - orthant(2).project(rep.x - rep.alpha * op(rep.x))
        assert np.linalg.norm(resid) <= 1e-10

    def test_not_strongly_monotone_refused_without_override(self):
        op = AffineOperator([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
        with pytest.raises(NotStronglyMonotone):
            solve_exact(op, orthant(2))

    def test_default_cap_is_100_steps_when_gamma_is_zero(self):
        # beta = L declares gamma = 0; x <- -x - 1 never settles
        op = CallableOperator(lambda x: 2.0 * x + 1.0, dim=1, beta=1.0, lipschitz=1.0)
        rep = solve_exact(op, free(1))
        assert rep.gamma == 0.0
        assert not rep.converged and rep.iterations == 100

    def test_default_cap_is_10000_steps_when_gamma_is_not_below_one(self):
        # alpha = 2 on M = I gives gamma >= 1; x <- max(2 - x, 0) cycles 0, 2
        op = AffineOperator(np.eye(1), [-1.0])
        rep = solve_exact(op, orthant(1), SolveConfig(alpha_override=2.0))
        assert rep.gamma >= 1.0
        assert not rep.converged and rep.iterations == 10000
        assert np.isfinite(rep.x).all()

    def test_two_step_rearrangement_gives_same_x_sequence(self):
        # oracle: x <- P_C(z), z <- x - alpha F(x) reproduces the one-step
        # projection iteration exactly when started from the same point
        op, _ = generate_instance(15, 3, 1.0, 2.0, seed=2)
        cone = orthant(15)
        rep = solve_exact(op, cone, SolveConfig(trace=True, max_iter=60, tol=1e-300))
        z = np.zeros(15)
        for logged in rep.iterates:
            x = cone.project(z)
            np.testing.assert_allclose(x, logged, atol=1e-14)
            z = x - rep.alpha * op(x)


class TestProjectIntersection:
    """NNLS's cap and two SciPy references; the rest is test_projection_contract.py."""

    def test_nnls_iteration_cap_is_typed_error(self, monkeypatch):
        def capped(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(solvers, "_nnls", capped)
        with pytest.raises(IntersectionProjectionFailed):
            project_intersection(orthant(2), basis_from_columns([1.0, 1.0]), [2.0, 0.0])
        op, basis = generate_instance(12, 3, 1.0, 2.0, seed=13)
        comp = bound_report(op, orthant(12), basis)
        assert comp.bertsekas_skipped and comp.new_ok

    def test_nnls_matches_scipy_and_passes_its_stopping_test(self, monkeypatch):
        # the dual solver against scipy.optimize.nnls on seeded unit-column
        # draws: a third rank-deficient, a third with columns that repeat
        # others with either sign, exactly or turned by 1e-2..1e-1 (closer
        # angles grow the optimal multipliers past what a residual resolves).
        # Residuals and gradients are evaluated from the multipliers (the
        # oracle's own rnorm can read 0.0 on a rank-deficient C where its
        # solution's residual is not), so the bound adds the rounding of
        # that evaluation to 1e-12 (1 + ||d||). One passive solve means the
        # guessed start was kept, more that the Lawson-Hanson loop ran.
        solves = calls(monkeypatch, solvers, "_passive_solution")
        rng = np.random.default_rng(38)
        paths = set()
        for i in range(600):
            k, m = int(rng.integers(2, 9)), int(rng.integers(1, 25))
            C = rng.standard_normal((k, m))
            if i % 3 == 1:
                r = int(rng.integers(1, k))
                C = rng.standard_normal((k, r)) @ rng.standard_normal((r, m))
            elif i % 3 == 2:
                src, dst = rng.integers(0, m, (2, m // 2))
                C /= np.linalg.norm(C, axis=0)
                turn = 10.0 ** rng.uniform(-2.0, -1.0, len(dst)) * (rng.random(len(dst)) < 0.7)
                C[:, dst] = (rng.choice([-1.0, 1.0], len(dst)) * C[:, src]
                             + turn * rng.standard_normal((k, len(dst))))
            C /= np.linalg.norm(C, axis=0)
            d = rng.standard_normal(k) * 10.0 ** rng.uniform(-3.0, 3.0)
            solves.clear()
            lam = solvers._nnls(C, d)
            paths.add(len(solves) > 1)
            oracle = scipy.optimize.nnls(C, d)[0]
            rounding = 10 * max(k, m) * np.finfo(float).eps  # per unit of the multipliers' sum
            bound = 1e-12 * (1.0 + np.linalg.norm(d)) + rounding * lam.sum()
            assert (abs(np.linalg.norm(C @ lam - d) - np.linalg.norm(C @ oracle - d))
                    <= bound + rounding * oracle.sum())
            assert np.all(lam >= 0.0)
            w = C.T @ (d - C @ lam)
            assert np.all(w[lam == 0.0] <= bound) and np.all(np.abs(w[lam > 0.0]) <= bound)
        assert paths == {False, True}

    def test_matches_slsqp_on_mixed_cone(self):
        # oracle: the same k-variable QP handed to SLSQP, on a basis whose
        # orthonormal factor is exact (disjoint 0/1 groups plus a dense column
        # on the free block) so no rounding-level rows reach the oracle
        cone = parse_cone_spec("nn:8,free:3,zero:2,nn:7")
        rng = np.random.default_rng(34)
        for _ in range(10):
            groups = rng.integers(0, 4, 20)
            raw = np.zeros((20, 5))
            raw[np.arange(20), groups] = 1.0
            raw[cone.free_mask] = 0.0
            raw[cone.free_mask, 4] = rng.standard_normal(3)
            raw = raw[:, raw.any(axis=0)]
            ortho = raw / np.linalg.norm(raw, axis=0)
            b = Basis(ortho=ortho)
            z = 3.0 * rng.standard_normal(20)
            # rows of one group coincide; SLSQP wants each constraint once
            B, Z = (np.unique(ortho[m][ortho[m].any(axis=1)], axis=0)
                    for m in (cone.nonneg_mask, cone.zero_mask))
            c = ortho.T @ z
            cons = [{"type": "ineq", "fun": lambda w: B @ w, "jac": lambda w: B}]
            if len(Z):
                cons.append({"type": "eq", "fun": lambda w: Z @ w, "jac": lambda w: Z})
            res = scipy.optimize.minimize(lambda w: 0.5 * np.sum((w - c) ** 2), np.zeros(len(c)),
                                          jac=lambda w: w - c, constraints=cons,
                                          method="SLSQP", options={"ftol": 1e-12, "maxiter": 500})
            assert res.success
            np.testing.assert_allclose(project_intersection(cone, b, z),
                                       cone.project(ortho @ res.x), atol=1e-9)


class TestSolveBertsekas:
    def test_solution_in_span_collapses_bound(self):
        op, _ = generate_instance(12, 3, 1.0, 2.0, seed=4)
        cone = orthant(12)
        x_star = solve_exact(op, cone).x
        cols = [x_star + 1e-16, np.ones(12)]  # span contains x_star
        b = basis_from_columns(*cols)
        rep = solve_bertsekas(op, cone, b)
        np.testing.assert_allclose(rep.x, x_star, rtol=1e-7, atol=1e-8)

    def test_axis_ray_fixed_point(self):
        # on the ray {(t,0)}: project (2,2) onto it -> (2,0); hand oracle
        op = AffineOperator(np.eye(2), [-2.0, -2.0])
        rep = solve_bertsekas(op, orthant(2), basis_from_columns([1.0, 0.0]))
        assert rep.converged
        np.testing.assert_allclose(rep.x, [2.0, 0.0], atol=1e-9)


class TestSolveGalerkin:
    def test_gamma_zero_single_pass_fixed_point(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal(6)
        op = AffineOperator(2.0 * np.eye(6), q)
        b = orthonormalize(rng.standard_normal((6, 2)))
        cone = orthant(6)
        rep = solve_galerkin(op, cone, b)
        assert rep.converged and rep.iterations <= 2
        x = cone.project(rep.z)
        np.testing.assert_allclose(
            rep.z, b.project_span(x - rep.alpha * op(x)), atol=1e-10)

    def test_axis_ray_closed_form(self):
        # alpha = beta/L^2 = 1 for M = I; one step gives z = P_span(-q) = (2,0)
        op = AffineOperator(np.eye(2), [-2.0, -2.0])
        rep = solve_galerkin(op, orthant(2), basis_from_columns([1.0, 0.0]))
        assert rep.converged
        np.testing.assert_allclose(rep.z, [2.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(rep.x, [2.0, 0.0], atol=1e-9)


class TestCertify:
    def test_exact_solution_identity_basis_zero_residual(self):
        op = AffineOperator(np.eye(2), [-1.0, 1.0])
        cone = orthant(2)
        rep = solve_exact(op, cone)
        x = rep.x
        z = x - rep.alpha * op(x)
        cert = certify(op, cone, orthonormalize(np.eye(2)), x, z, rep.alpha)
        assert np.linalg.norm(cert.epsilon) <= 1e-9
        assert cert.null_space_violation <= 1e-9
        assert cert.normal_cone_ok
        assert cert.valid

    def test_perturbed_solution_fails_normal_cone(self):
        op, basis = generate_instance(25, 6, 1.0, 2.0, seed=10)
        cone = orthant(25)
        rep = solve_galerkin(op, cone, basis)
        x_bad = rep.x.copy()
        x_bad[0] += 0.1
        cert = certify(op, cone, basis, x_bad, rep.z, rep.alpha)
        assert not cert.normal_cone_ok

    def test_infeasible_x_bar_fails_normal_cone(self):
        op = AffineOperator(np.eye(2), [-1.0, 1.0])
        x_bar = np.array([-1.0, 0.0])
        cert = certify(op, orthant(2), orthonormalize(np.eye(2)), x_bar, x_bar, 1.0)
        assert not cert.normal_cone_ok and not cert.valid


class TestBoundReport:
    def test_solution_in_span_all_small(self):
        op, _ = generate_instance(12, 3, 1.0, 2.0, seed=11)
        cone = orthant(12)
        x_star = solve_exact(op, cone).x
        rep = solve_exact(op, cone)
        z_star = x_star - rep.alpha * op(x_star)
        b = basis_from_columns(x_star, z_star, np.ones(12))
        comp = bound_report(op, cone, b)
        assert comp.bound_new <= 1e-7
        assert comp.err_new_x <= 1e-7 and comp.err_new_z <= 1e-7
        assert comp.new_ok and not comp.bertsekas_skipped
        assert comp.bound_bertsekas <= 1e-7 and comp.err_bertsekas <= 1e-7

    def test_override_step_without_contraction_refused(self):
        # alpha = 3 on M = I: gamma = sqrt(1 - 6 + 9 L**2) >= 1
        op = AffineOperator(np.eye(2), np.zeros(2))
        with pytest.raises(NotStronglyMonotone):
            bound_report(op, orthant(2), orthonormalize(np.eye(2)),
                         SolveConfig(alpha_override=3.0))

    def test_override_step_whose_gamma_overflows_refused(self):
        # (alpha L)**2 overflows at alpha = 1e300: gamma is inf, not an OverflowError
        op = AffineOperator(np.eye(2), np.zeros(2))
        with pytest.raises(NotStronglyMonotone):
            bound_report(op, orthant(2), orthonormalize(np.eye(2)),
                         SolveConfig(alpha_override=1e300))

    def test_refused_before_any_solve(self):
        # alpha = 1 gives gamma = 3.87 here; the exact solve used to run its
        # 10000-step cap before the refusal
        op, basis = generate_instance(40, 8, 1.0, 4.0, seed=7)
        calls = []

        def counted(x):
            calls.append(1)
            return op(x)

        counting = CallableOperator(counted, 40, beta=op.beta, lipschitz=op.lipschitz)
        with pytest.raises(NotStronglyMonotone):
            bound_report(counting, orthant(40), basis, SolveConfig(alpha_override=1.0))
        assert calls == []
