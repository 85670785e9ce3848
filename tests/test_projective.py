import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import conevi
from conftest import calls, full_spans, perfbench_module, reduction
from conevi import operators, projective
from conevi.basis import orthonormalize
from conevi.cones import orthant, parse_cone_spec
from conevi.generate import generate_instance
from conevi.operators import AffineOperator
from conevi.bench import _bench_instance
from conevi.projective import (
    IpmConfig,
    ProjectiveLcp,
    _newton,
    build_projective,
    solve_ipm,
    verify_pd,
)
from conevi.solvers import SolveConfig, certify, solve_galerkin
from conevi.transforms import (
    PolyhedralVI,
    _PolyhedralOperator,
    eliminate_equalities,
    polyhedron_to_cone,
)

def lowrank(Q, W):
    """The ProjectiveLcp with N = I + Q W and r = 0, for a Newton solve."""
    return ProjectiveLcp(Q, W, np.zeros(Q.shape[0]))


def polyhedral_problem():
    """A polyhedral VI with n = m = 10 reduced to a separable cone: the
    operator, which is the reduced problem of every full span, and its
    cone."""
    rng = np.random.default_rng(64)
    op, _ = generate_instance(10, 2, 1.0, 2.0, seed=64)
    A = rng.standard_normal((10, 10))
    b = 0.5 + np.abs(rng.standard_normal(10)) - A @ rng.standard_normal(10)
    return reduction(op.M, op.q, A, b)


class TestBuildProjective:
    def test_full_span_setup_copies_no_matrix(self):
        # pin: set-up memory, which no property measures. The identity basis
        # keeps its O(n) support map and the reduced problem holds M itself:
        # together they peak below one n x n array
        n = 600
        rng = np.random.default_rng(49)
        op = AffineOperator(rng.standard_normal((n, n)), rng.standard_normal(n))
        raw = np.eye(n)
        tracemalloc.start()
        try:
            plcp = build_projective(op, orthonormalize(raw))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        assert plcp is op

    def test_contraction_alpha_on_identity_solves_the_cp(self):
        # pin: a reference point at n = 300 and L/beta = 1e4, which no case
        # reaches. At alpha = beta/L^2 = 1e-5 the full span's reduced problem
        # is the CP itself, solved to ||min(x, Mx + q)|| <= 1e-10
        op, _ = generate_instance(300, 8, 1e-3, 10.0, 3)
        basis = orthonormalize(np.eye(300))
        rep = solve_ipm(build_projective(op, basis, op.contraction().alpha), orthant(300))
        assert rep.converged
        assert np.linalg.norm(np.minimum(rep.x, op(rep.x))) <= 1e-10


class TestVerifyPd:
    def test_full_span_without_qr(self, monkeypatch):
        # pin: a full span's cost, no QR, which a right beta cannot show.
        # k' = n: lambda_min(sym M) for the identity, a signed and scaled
        # permutation and a dense orthogonal factor
        rng = np.random.default_rng(54)
        n, alpha = 50, 0.3
        M = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        plcps = [build_projective(AffineOperator(M, np.zeros(n)), orthonormalize(raw), alpha)
                 for raw in full_spans(n, rng)]
        ref = np.linalg.eigvalsh(0.5 * (M + M.T))[0]

        def no_qr(*args, **kwargs):
            raise AssertionError("verify_pd ran a QR on a full span")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        for plcp in plcps:
            assert verify_pd(plcp) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_full_span_reads_the_cached_beta(self, monkeypatch):
        # pin: no second eigensolve, which a right beta cannot show. A full
        # span's verify_pd is its operator's beta, plain or polyhedral: once
        # the operator holds it, no eigensolve runs again
        op, _ = generate_instance(30, 4, 1.0, 3.0, seed=58)
        plcps = [build_projective(op, orthonormalize(np.eye(30))), polyhedral_problem()[0]]
        betas = [plcp.beta for plcp in plcps]

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("verify_pd ran an eigensolve")

        monkeypatch.setattr(scipy.linalg, "eigvalsh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        assert [verify_pd(plcp) for plcp in plcps] == betas

    def test_proper_subspace_keeps_qr_formula(self):
        # pin: ProjectiveLcp.beta's QR formula bit for bit, with U square and
        # not; test_beta_is_the_monotone_modulus bounds the value only
        rng = np.random.default_rng(55)
        for n, k in ((7, 4), (40, 8), (30, 29)):
            M = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
            plcp = build_projective(AffineOperator(M, np.zeros(n)),
                                    orthonormalize(rng.standard_normal((n, k))), 0.3)
            U, _ = np.linalg.qr(np.hstack([plcp.ortho, plcp.W.T]))
            C = (U.T @ plcp.ortho) @ (plcp.W @ U)
            ref = 1.0 + scipy.linalg.eigvalsh(0.5 * (C + C.T), subset_by_index=[0, 0])[0]
            assert verify_pd(plcp) == (ref if U.shape[1] == n else min(1.0, ref))

    def test_large_n_without_dense_matrix(self):
        # pin: a closed-form beta at n = 2500, beyond every case's size. Only
        # O(n k) data is formed; a dense N would take 50 MB here
        n = 2500
        rng = np.random.default_rng(53)
        op = AffineOperator(1.5 * np.eye(n), rng.standard_normal(n))
        basis = orthonormalize(rng.standard_normal((n, 6)))
        plcp = build_projective(op, basis, 0.4)
        # N = I - P + 0.6 P: eigenvalue 0.6 on the span, 1 on its complement
        assert verify_pd(plcp) == pytest.approx(0.6, abs=1e-12)


class TestWoodbury:
    def test_empty_lowrank_part(self):
        # orthonormalize never returns a basis with no columns, and no Newton
        # route takes k' = 0
        with pytest.raises(ValueError, match="no columns"):
            ProjectiveLcp(np.zeros((3, 0)), np.zeros((0, 3)), np.array([-1.0, 1.0, 2.0]))

    def test_zero_correction(self):
        rhs = np.array([1.0, -2.0, 3.0])
        got = _newton(lowrank(np.zeros((3, 2)), np.zeros((2, 3))), np.ones(3))(rhs)
        np.testing.assert_allclose(got, rhs, atol=1e-15)

    def test_componentwise_backward_error_late_ipm_stage(self):
        # IPM-like Newton matrix near the end: D = 1 + s/x spans 24 decades
        rng = np.random.default_rng(52)
        n, k = 80, 12
        for alpha in (1e-2, 1e-6):
            for _ in range(10):
                Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
                M = np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
                W = alpha * (Q.T @ M) - Q.T
                D = 1.0 + 10.0 ** rng.uniform(-12, 12, size=n)
                rhs = rng.standard_normal(n) * D ** rng.uniform(0, 1, size=n)
                y = _newton(lowrank(Q, W), D)(rhs)
                A = np.diag(D) + Q @ W
                omega = np.abs(rhs - A @ y) / (np.abs(A) @ np.abs(y) + np.abs(rhs))
                assert omega.max() <= 1e-14

    def test_fixed_rows_match_dense_solve(self):
        # dense Gaussian factors; the rows where D = 1 leave a dense Q's
        # system as it is, so the solve matches the dense one
        rng = np.random.default_rng(54)
        n = 60
        for k in (20, n):
            for _ in range(10):
                Q = rng.standard_normal((n, k)) / (2 * np.sqrt(n))
                W = rng.standard_normal((k, n)) / (2 * np.sqrt(n))
                fixed = rng.random(n) < 0.6
                D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-2, 2, size=n))
                rhs = rng.standard_normal(n)
                y = _newton(lowrank(Q, W), D)(rhs)
                A = np.diag(D) + Q @ W
                omega = np.abs(rhs - A @ y) / (np.abs(A) @ np.abs(y) + np.abs(rhs))
                assert omega.max() <= 1e-14
                ref = np.linalg.solve(A, rhs)
                assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_varying_side_matches_dense_solve(self):
        # fewer varying rows than k', with a dense Q, so each D factors the
        # k'xk' system; late-IPM diagonal spread on V. With Q = I, N = alpha M
        # and a small alpha cancels in I + W D^-1 Q, so Q = I runs at the
        # alpha build_projective takes on every full span (1) and at 0.3
        rng = np.random.default_rng(60)
        n = 80
        for k, alphas in ((40, (1e-2, 1e-6)), (n, (0.3, 1.0))):
            for alpha in alphas:
                for _ in range(10):
                    Q = np.eye(n) if k == n else np.linalg.qr(rng.standard_normal((n, k)))[0]
                    M = np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
                    W = alpha * (Q.T @ M) - Q.T
                    fixed = rng.random(n) < 0.75
                    assert (~fixed).sum() < k
                    D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-12, 12, size=n))
                    rhs = rng.standard_normal(n) * D ** rng.uniform(0, 1, size=n)
                    y = _newton(lowrank(Q, W), D)(rhs)
                    A = np.diag(D) + Q @ W
                    omega = np.abs(rhs - A @ y) / (np.abs(A) @ np.abs(y) + np.abs(rhs))
                    assert omega.max() <= 1e-14
                    ref = np.linalg.solve(A, rhs)
                    err = np.linalg.norm(y - ref)
                    assert err <= 1e-15 * np.linalg.cond(A) * np.linalg.norm(ref)

    def test_full_span_solve_holds_only_its_factors(self):
        # a full span and every row varies (an orthant cone without --basis): the
        # system is formed from the operator's N when D is given and factored
        # in place, so the solve holds its one n x n array of LU factors and
        # no copy of N
        rng = np.random.default_rng(71)
        n = 600
        W = rng.standard_normal((n, n)) / np.sqrt(n)
        op = AffineOperator(W, np.zeros(n))
        D = 1.0 + 10.0 ** rng.uniform(-3, 3, n)
        tracemalloc.start()
        try:
            solve = _newton(op, D)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 8 * n * n + 2**16
        rhs = rng.standard_normal(n)
        y = solve(rhs)
        ref = np.linalg.solve(np.diag(D - 1.0) + W, rhs)
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_small_alpha_identity_form_keeps_accuracy(self):
        # N = alpha M passed as a plain operator's M, with every row varying
        # and with D = 1 on half the rows: each system is formed from N, so no
        # I + (alpha M - I) cancels. On the finish's diagonals (1 on I, inf on
        # A, the system N_II) a stored W = alpha M - I lost the low bits of
        # alpha M: 1.7e-11 at 1e-6. So did one factorization at D = 2 on the
        # rows V, reused for every D by adding and cancelling +-1/2 there:
        # 3.6e-14 at 1e-3 and 2.8e-11 at 1e-6 with half the rows fixed
        n = 60
        for alpha in (1.0, 1e-3, 1e-6):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                N = alpha * (np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n))
                fixed = rng.permutation(n) < n // 2
                for fixed_rows in (np.zeros(n, dtype=bool), fixed):
                    active = ~fixed_rows & (rng.random(n) < 0.5)
                    rhs = rng.standard_normal(n)
                    for D in (np.ones(n), np.where(active, np.inf, 1.0)):
                        rows = np.isfinite(D)
                        K = N[np.ix_(rows, rows)]
                        y = _newton(AffineOperator(N, np.zeros(n)), D)(rhs)
                        assert np.all(y[~rows] == 0.0)
                        b, y = rhs[rows], y[rows]
                        # normwise backward error of the solve
                        err = np.abs(K @ y - b).max()
                        assert err <= 1e-14 * (np.abs(K).sum(1).max() * np.abs(y).max()
                                               + np.abs(b).max())

class TestSlackPairs:
    """The Newton route of a polyhedral reduction's operator: each slack pair
    (s_i, lambda_i) is eliminated, and the (n + p)^2 system on (x, mu) is
    formed from the operator's blocks and factored."""

    @staticmethod
    def reduction(n, p, seed):
        """The operator and the free rows, where the IPM's D is 1, of a
        reduction with n variables, m = n inequality rows and p equality
        rows, in the order (s, x, lambda, mu)."""
        rng = np.random.default_rng(seed)
        op, _ = generate_instance(n, 2, 1.0, 2.0, seed=seed)
        A, b = rng.standard_normal((n, n)), rng.standard_normal(n)
        E = rng.standard_normal((p, n)) if p else None
        op, cone = reduction(op.M, op.q, A, b, E, np.zeros(p))
        assert isinstance(op, _PolyhedralOperator)
        return op, cone.free_mask

    @staticmethod
    def backward_error(K, y, b):
        """Normwise backward error of the solve y of K y = b."""
        return np.abs(K @ y - b).max() / (np.abs(K).sum(1).max() * np.abs(y).max()
                                          + np.abs(b).max())

    @pytest.mark.parametrize("p", [0, 8])
    def test_backward_error_over_the_late_ipm_spread(self, monkeypatch, p):
        # a 180-dimensional reduction (plus p equality rows), D = 1 + s/x over
        # 24 decades: each factor is one (n + p)x(n + p) system, M + A^T D A
        # bordered by the equality rows
        n = 60
        op, free = self.reduction(n, p, seed=73)
        rng = np.random.default_rng(74)
        factored = calls(monkeypatch, scipy.linalg.lapack, "dgetrf")
        for _ in range(10):
            D = np.where(free, 1.0, 1.0 + 10.0 ** rng.uniform(-12, 12, free.size))
            rhs = rng.standard_normal(free.size) * D ** rng.uniform(0, 1, free.size)
            y = _newton(op, D)(rhs)
            assert self.backward_error(op.M + np.diag(D - 1.0), y, rhs) <= 1e-14
        assert [a.shape for a, in factored] == [(n + p, n + p)] * 10

    @pytest.mark.parametrize("p", [0, 8])
    def test_infinite_diagonal_pins_rows_to_zero(self, monkeypatch, p):
        # the finish's D: inf on a guessed active set A of slack rows and 1
        # elsewhere, and the same A with a spread D on the other slack rows;
        # the pinned rows of A border the system next to the equality rows
        n = 30
        op, free = self.reduction(n, p, seed=75)
        N = op.M
        rng = np.random.default_rng(76)
        factored = calls(monkeypatch, scipy.linalg.lapack, "dgetrf")
        for _ in range(5):
            active = ~free & (rng.random(free.size) < 0.5)
            keep = ~active
            for spread in (0.0, 3.0):
                D = np.where(free, 1.0, 1.0 + 10.0 ** rng.uniform(-spread, spread, free.size))
                D[active] = np.inf
                rhs = rng.standard_normal(free.size)
                factored.clear()
                y = _newton(op, D)(rhs)
                assert [a.shape for a, in factored] == [(n + p + active.sum(),) * 2]
                assert np.all(y[active] == 0.0)
                K = (N + np.diag(np.where(keep, D, 1.0) - 1.0))[np.ix_(keep, keep)]
                assert self.backward_error(K, y[keep], rhs[keep]) <= 1e-14
                ref = np.linalg.solve(K, rhs[keep])
                err = np.linalg.norm(y[keep] - ref)
                assert err <= 1e-15 * np.linalg.cond(K) * np.linalg.norm(ref)

    @staticmethod
    def near_misses(N, n):
        """Copies of the reduction's dense N (p = 0) that each break the
        slack-pair pattern in one place: rows V = 0..n-1, paired with
        c = 2n..3n-1."""
        V, c, x = 0, 2 * n, n
        second_entry, coefficient, coupled, column, repeated = (N.copy() for _ in range(5))
        second_entry[V, x] = 0.5  # a second nonzero in an orthant row
        coefficient[V, c] = 2.0  # e_c scaled
        coupled[c, c + 1] = 0.5  # N[C, C] != 0
        column[x, V] = 0.5  # a second nonzero in a slack column
        # rows V and V + 1 both paired with c
        repeated[V + 1, c + 1] = repeated[c + 1, V + 1] = 0.0
        repeated[V + 1, c], repeated[c, V + 1] = 1.0, -1.0
        return second_entry, coefficient, coupled, column, repeated

    def test_near_misses_take_the_direct_route(self, monkeypatch):
        # a plain operator is never searched for slack pairs: the reduction's
        # dense N itself and each near miss factor the n x n G(D)
        n = 12
        op, free = self.reduction(n, 0, seed=77)
        rng = np.random.default_rng(78)
        factored = calls(monkeypatch, scipy.linalg.lapack, "dgetrf")
        for dense in (op.M, *self.near_misses(op.M, n)):
            factored.clear()
            D = np.where(free, 1.0, 1.0 + 10.0 ** rng.uniform(-3, 3, free.size))
            rhs = rng.standard_normal(free.size)
            y = _newton(AffineOperator(dense, op.q), D)(rhs)
            assert [a.shape for a, in factored] == [(3 * n, 3 * n)]  # G(D), formed from N
            assert self.backward_error(dense + np.diag(D - 1.0), y, rhs) <= 1e-14

    def test_other_varying_rows_take_the_direct_route(self, monkeypatch):
        # D varies on an x row as well as on the slacks (the reduction over
        # another cone): the operator's dense N, factored n x n
        n = 12
        op, free = self.reduction(n, 0, seed=77)
        free = free.copy()
        free[n] = False
        rng = np.random.default_rng(80)
        factored = calls(monkeypatch, scipy.linalg.lapack, "dgetrf")
        D = np.where(free, 1.0, 1.0 + 10.0 ** rng.uniform(-3, 3, free.size))
        rhs = rng.standard_normal(free.size)
        y = _newton(op, D)(rhs)
        assert [a.shape for a, in factored] == [(3 * n, 3 * n)]
        assert self.backward_error(op.M + np.diag(D - 1.0), y, rhs) <= 1e-14

    @pytest.mark.parametrize("p", [0, 8])
    def test_route_read_from_d_alone(self, monkeypatch, p):
        # the route depends on D, not on the cone the D came from: D = 1 off
        # the slacks, spread or pinned on them, takes the block route and
        # never reads .M; D varying on an x row, or below 1 on a slack, takes
        # the dense n x n route. Each agrees with the dense solve
        n = 12
        op, _ = self.reduction(n, p, seed=81)
        dim = op.dim
        rng = np.random.default_rng(82)
        spread = np.ones(dim)
        spread[:n] = 1.0 + 10.0 ** rng.uniform(-3, 3, n)
        pinned = np.ones(dim)
        pinned[:3] = np.inf
        x_row, low_slack = spread.copy(), spread.copy()
        x_row[n + 1] = 5.0
        low_slack[2] = 0.5
        factored = calls(monkeypatch, scipy.linalg.lapack, "dgetrf")
        solves = []
        for D, size in ((spread, n + p), (pinned, n + p + 3), (x_row, dim), (low_slack, dim)):
            rhs = rng.standard_normal(dim)
            factored.clear()
            solves.append((D, rhs, _newton(op, D)(rhs)))
            assert [a.shape for a, in factored] == [(size, size)]
            if size < dim:
                assert "M" not in vars(op)
        for D, rhs, y in solves:
            keep = np.isfinite(D)
            K = (op.M + np.diag(np.where(keep, D, 1.0) - 1.0))[np.ix_(keep, keep)]
            assert np.all(y[~keep] == 0.0)
            ref = np.linalg.solve(K, rhs[keep])
            assert np.linalg.norm(y[keep] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", range(79, 84))
    def test_huge_slack_diagonal_solves(self, seed):
        # d = 1e300 on slack row 0 and 1 on the others: that row borders the
        # reduced system with 1/d on its diagonal. Formed into
        # M + A^T diag(d) A, d a a^T rounded M's entries away: a false
        # "singular" breakdown on seeds 79-82 and entries near 1e285 on 83,
        # where the dense route's largest is 1.9
        n = 10
        op, free = self.reduction(n, 0, seed=seed)
        D = np.where(free, 1.0, 2.0)
        D[0] = 1e300
        rhs = np.random.default_rng(seed).standard_normal(free.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = _newton(op, D)(rhs)
        # rows scaled by 1/D: unscaled, row 0's 1e300 would hide any error
        K = (op.M + np.diag(D - 1.0)) / D[:, None]
        assert self.backward_error(K, y, rhs / D) <= 1e-15
        ref = _newton(AffineOperator(op.M, op.q), D)(rhs)
        assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_benchmark_setup_and_solve_stay_below_the_dense_array(self, monkeypatch):
        # the polyhedral_ipm workload's instance recipe: n = m = 200 with p = 20
        # equality rows. Set-up keeps the blocks, and the solve's largest
        # arrays are its (n + p)^2 systems. Neither comes near the
        # (2m + n + p)^2 array, which is never formed
        arrays = perfbench_module(monkeypatch, "inputs").poly_instance(1, 1)
        (m, n), p = arrays["A"].shape, arrays["E"].shape[0]
        assert (m, n, p) == (200, 200, 20)
        dense_bytes = 8 * (2 * m + n + p) ** 2
        basis = orthonormalize(np.eye(2 * m + n + p))
        E = np.zeros((p, 2 * m + n))
        E[:, m:m + n] = arrays["E"]
        tracemalloc.start()
        try:
            layout = polyhedron_to_cone(PolyhedralVI(arrays["M"], arrays["q"], arrays["A"],
                                                     arrays["b"]))
            eq = eliminate_equalities(layout.op, E, arrays["e"], layout.cone)
            plcp = build_projective(eq.op, basis, 1.0)
            setup_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rep = solve_ipm(plcp, eq.cone)
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.finish_accepted
        assert setup_peak < dense_bytes / 20
        assert solve_peak < dense_bytes
        assert plcp is eq.op
        assert "M" not in vars(layout.op) and "M" not in vars(eq.op)


class TestNewtonSystemOwner:
    """Each reduced-problem class chooses its own Newton system in its
    _newton_factor(D) method, which returns the solve for that D alone;
    projective._newton checks D > 0 and calls it."""

    def test_projective_holds_nothing_from_transforms(self):
        from_transforms = [name for name, value in vars(projective).items()
                           if getattr(value, "__module__", None) == "conevi.transforms"]
        assert from_transforms == []

    def test_one_breakdown_class_for_every_route(self):
        assert conevi.IpmBreakdown is projective.IpmBreakdown is operators.IpmBreakdown
        modules = ("basis", "cones", "generate", "operators", "projective", "solvers",
                   "transforms")
        assert [name for name in modules
                if "IpmBreakdown" in importlib.import_module(f"conevi.{name}").__all__] == [
                    "projective"]


class TestSolveIpm:
    """Mechanism pins of solve_ipm that no property sees: each checks how a
    step is computed, not what the solve returns. Its behaviour (report,
    exit, finish, cap, factorization count, breakdowns) is asserted on every
    operator case by the test_ipm_* properties of test_operator_contract.py,
    and its point against the projection methods' by test_method_contract.py.
    Four reference points stay beside the pins: a closed-form LCP, and the
    Galerkin fixed point on an orthant, on a mixed cone with a dense basis,
    and on the benchmark's instances at n = 300 and 1000."""

    def test_plain_lcp_identity(self):
        op = AffineOperator(np.eye(2), [-1.0, 1.0])
        plcp = build_projective(op, orthonormalize(np.eye(2)), 1.0)
        rep = solve_ipm(plcp, orthant(2))
        assert rep.converged
        np.testing.assert_allclose(rep.x, [1.0, 0.0], atol=1e-8)

    def test_matches_galerkin_fixed_point(self):
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=49)
        cone = orthant(40)
        alpha = op.contraction().alpha
        x_bar = solve_galerkin(op, cone, basis).x
        rep = solve_ipm(build_projective(op, basis, alpha), cone)
        assert rep.converged
        assert np.linalg.norm(rep.x - x_bar) <= 1e-6 * (1 + np.linalg.norm(x_bar))

    def test_mixed_cone_dense_basis_matches_galerkin(self):
        # Gaussian basis with free rows: the dense-Q route, whose D is 1 on the
        # free rows and varies on the orthant ones
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=56)
        cone = parse_cone_spec("nn:14,free:6,nn:14,free:6")
        plcp = build_projective(op, basis, op.contraction().alpha)
        rep = solve_ipm(plcp, cone)
        assert rep.converged
        x_bar = solve_galerkin(op, cone, basis).x
        assert np.linalg.norm(rep.x - x_bar) <= 1e-6 * (1 + np.linalg.norm(x_bar))
        resid = plcp(rep.x)
        assert np.abs(resid[cone.free_mask]).max() <= 1e-8
        assert cone.is_complementary(rep.x, resid, 10 * IpmConfig().tol)

    def test_finish_exact_on_active_set_and_matches_galerkin(self):
        for n in (300, 1000):
            op, basis, alpha = _bench_instance(n, 10, 0)
            cone = orthant(n)
            plcp = build_projective(op, basis, alpha)
            rep = solve_ipm(plcp, cone)
            assert rep.converged and rep.finish_accepted and rep.mu == 0.0
            y = plcp(rep.x)
            active = rep.x == 0.0
            # exact zeros on the active set, the equations on the rest
            assert active.sum() >= n // 3
            assert np.all(rep.x >= 0.0) and np.all(y[active] >= 0.0)
            assert np.abs(y[~active]).max() <= IpmConfig().tol
            x_bar = solve_galerkin(op, cone, basis,
                                   SolveConfig(tol=1e-13, alpha_override=alpha)).x
            assert np.linalg.norm(rep.x - x_bar) <= 1e-12 * (1 + np.linalg.norm(x_bar))
            # the Galerkin certificate at z_bar = x - (Nx + r), the IPM's x
            assert certify(op, cone, basis, rep.x, rep.x - plcp(rep.x), alpha).valid

    def test_finish_solves_through_its_own_name(self, monkeypatch):
        # pin: perfbench wraps this name by its string. Each active-set finish
        # makes exactly one solve_diag_plus_lowrank call, looked up as a
        # module attribute, which a profiler can wrap
        solved = calls(monkeypatch, projective, "solve_diag_plus_lowrank")
        plcp, cone = polyhedral_problem()
        rep = solve_ipm(plcp, cone)
        assert rep.converged and rep.finish_attempts >= 1
        assert len(solved) == rep.finish_attempts

    def test_factorization_sizes(self, monkeypatch):
        # pin: the system each route factors, which sets its cost. The per-step
        # cost rule: a dense Q factors k'xk' systems only, here
        # with k' = 30 above |V| = 28 orthant rows
        op, _ = generate_instance(40, 4, 1.0, 3.0, seed=70)
        plcp = build_projective(op, orthonormalize(np.eye(40)[:, :30]), 0.3)
        factored = calls(monkeypatch, scipy.linalg.lapack, "dgetrf")
        assert solve_ipm(plcp, parse_cone_spec("nn:14,free:6,nn:14,free:6")).converged
        assert factored and {a.shape for a, in factored} == {(30, 30)}
        # a full span with free rows but no slack pairs: one n x n system per
        # Newton step and per finish attempt, none at set-up
        plcp = build_projective(op, orthonormalize(np.eye(40)))
        factored.clear()
        rep = solve_ipm(plcp, parse_cone_spec("nn:14,free:6,nn:14,free:6"))
        assert rep.converged
        steps = rep.iterations - 1 + rep.finish_attempts
        assert [a.shape for a, in factored] == [(40, 40)] * steps
        # a polyhedral reduction, whose slack pairs are eliminated: no n x n
        # matrix, the |R|x|R| system on the rows R = x left by the pairs per
        # Newton step, and per finish attempt one larger by the guessed
        # active rows, whose multipliers stay as equality rows
        plcp, cone = polyhedral_problem()
        n_rest = int(cone.free_mask.sum() - cone.nonneg_mask.sum())
        tried = calls(monkeypatch, projective, "_finish_candidate")
        factored.clear()
        rep = solve_ipm(plcp, cone)
        active_sizes = [int(active.sum()) for _, active, _ in tried]
        assert rep.converged and len(active_sizes) == rep.finish_attempts >= 1
        assert min(active_sizes) > 0
        assert sorted(a.shape for a, in factored) == sorted(
            [(n_rest, n_rest)] * (rep.iterations - 1)
            + [(n_rest + k, n_rest + k) for k in active_sizes])

    def test_directions_match_dense_solve(self, monkeypatch):
        # pin: the IPM absorbs an inexact direction, so check the directions themselves
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=56)
        cone = parse_cone_spec("nn:14,free:6,nn:14,free:6")
        plcp = build_projective(op, basis, op.contraction().alpha)
        steps = []
        inner = projective._newton_directions

        def recorded(solve, d, x, s, g, B, mu):
            out = inner(solve, d, x, s, g, B, mu)
            steps.append(((d, x, s, g, B, mu), out))
            return out

        monkeypatch.setattr(projective, "_newton_directions", recorded)
        # without the finish the path runs down to mu <= tol
        monkeypatch.setattr(projective, "_finish_candidate", lambda *args: None)
        rep = solve_ipm(plcp, cone)
        assert rep.converged and not rep.finish_accepted
        assert len(steps) == rep.iterations - 1
        N = plcp.M
        for (d, x, s, g, B, mu), (dx_aff, ds_aff, dx, ds, sigma) in (steps[0], steps[-1]):
            K = N + np.diag(d)

            def check(h, dx_got, ds_got):
                # ds = h - d dx cancels late in the path, so its error is
                # measured against the size of the terms it is formed from
                ref = np.linalg.solve(K, h - g)
                assert np.linalg.norm(dx_got - ref) <= 1e-12 * np.linalg.norm(ref)
                err = np.linalg.norm(ds_got - (h - d * ref))
                assert err <= 1e-12 * (np.linalg.norm(h) + np.linalg.norm(d * ref))

            check(-s, dx_aff, ds_aff)
            # the corrector, from the predictor the solver actually took
            t = 1.0
            for v, dv in ((x[B], dx_aff[B]), (s[B], ds_aff[B])):
                neg = dv < 0
                if neg.any():
                    t = min(t, float(np.min(-v[neg] / dv[neg])))
            mu_aff = float((x[B] + t * dx_aff[B]) @ (s[B] + t * ds_aff[B])) / B.sum()
            assert sigma == pytest.approx(min(1.0, max(mu_aff, 0.0) / mu) ** 3, rel=1e-8)
            h = -s
            h[B] += (sigma * mu - dx_aff[B] * ds_aff[B]) / x[B]
            check(h, dx, ds)
        # early and late: the Newton diagonal spread grows like 1/mu
        assert steps[0][0][5] >= 0.1 and steps[-1][0][5] <= 1e-8

    def test_full_span_reads_a_read_only_m(self):
        # pin: a write to a shared input leaves no trace in the answer. The
        # reduced problem shares M, so the IPM, its finish and verify_pd
        # must never write it: any in-place write on a read-only M raises.
        # Two cones: every row varying (orthant), and 6 free rows, where D = 1
        op, _ = generate_instance(60, 4, 1.0, 3.0, seed=72)
        op.M.setflags(write=False)
        plcp = build_projective(op, orthonormalize(np.eye(60)))
        assert plcp is op
        for cone in (orthant(60), parse_cone_spec("nn:27,free:6,nn:27")):
            rep = solve_ipm(plcp, cone)
            assert rep.converged and rep.finish_accepted
            assert cone.is_complementary(rep.x, op(rep.x), 1e-10)
        assert verify_pd(plcp) == op.beta
