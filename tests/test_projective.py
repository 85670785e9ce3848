import importlib
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import conevi
from conevi import operators, projective
from conevi.basis import orthonormalize
from conevi.cones import SegmentKind, Segment, SeparableCone, orthant, parse_cone_spec, zero
from conevi.generate import generate_instance
from conevi.operators import AffineOperator
from conevi.bench import _bench_instance
from conevi.projective import (
    IpmBreakdown,
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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def dense_N(op, basis, alpha):
    """Oracle: materialize N = I - P + alpha*P*M with the explicit projector."""
    P = basis.ortho @ basis.ortho.T
    n = op.dim
    return np.eye(n) - P + alpha * (P @ op.M)


def record_factorizations(monkeypatch):
    """The shapes of the matrices LU-factored from now on, in call order."""
    shapes = []
    dgetrf = scipy.linalg.lapack.dgetrf

    def recorded(a, **kwargs):
        shapes.append(a.shape)
        return dgetrf(a, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", recorded)
    return shapes


def no_fixed_row(n):
    """The `fixed` mask with every row varying: a dense Q's route, or a full
    span's direct LU."""
    return np.zeros(n, dtype=bool)


def lowrank(Q, W):
    """The ProjectiveLcp with N = I + Q W and r = 0, for a Newton factory."""
    return ProjectiveLcp(Q, W, np.zeros(Q.shape[0]))


def polyhedral_problem(n=10, seed=64):
    """A polyhedral VI with n = m reduced to a separable cone, with the
    identity basis: the reduced problem, a full span, and its cone."""
    rng = np.random.default_rng(seed)
    op, _ = generate_instance(n, 2, 1.0, 2.0, seed=seed)
    A = rng.standard_normal((n, n))
    b = 0.5 + np.abs(rng.standard_normal(n)) - A @ rng.standard_normal(n)
    layout = polyhedron_to_cone(PolyhedralVI(op.M, op.q, A, b))
    return (build_projective(layout.op, orthonormalize(np.eye(layout.cone.dim)), 1.0),
            layout.cone)


@pytest.fixture
def poly_instance(monkeypatch):
    """The polyhedral_ipm workload's instance recipe, perfbench/inputs.py's
    poly_instance(seed, i), imported without writing bytecode there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        return importlib.import_module("inputs").poly_instance
    finally:
        sys.modules.pop("inputs", None)


def benchmark_problem(arrays):
    """The polyhedral_ipm worker's reduced problem and cone for one instance's
    arrays: polyhedron_to_cone, the equality rows E x = e (when given) on the
    x block through eliminate_equalities, and the identity basis."""
    layout = polyhedron_to_cone(PolyhedralVI(arrays["M"], arrays["q"], arrays["A"],
                                             arrays["b"]))
    op, cone = layout.op, layout.cone
    if "E" in arrays:
        m, n = arrays["A"].shape
        E = np.zeros((arrays["E"].shape[0], cone.dim))
        E[:, m:m + n] = arrays["E"]
        eq = eliminate_equalities(op, E, arrays["e"], cone)
        op, cone = eq.op, eq.cone
    return build_projective(op, orthonormalize(np.eye(cone.dim)), 1.0), cone


def full_spans(n, rng):
    """Raw bases of rank n: the identity, a signed and scaled permutation,
    and a dense Gaussian matrix (a dense orthogonal factor)."""
    signed = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
    return np.eye(n), np.diag(signed)[rng.permutation(n)], rng.standard_normal((n, n))


class TestBuildProjective:
    def test_identity_basis_collapses_to_alpha_m(self):
        # N = alpha M and r = alpha q only rescale CP(Mx + q): the reduced
        # problem is M and q themselves, whatever alpha is passed
        rng = np.random.default_rng(41)
        M = rng.standard_normal((5, 5))
        q = rng.standard_normal(5)
        op = AffineOperator(M, q)
        plcp = build_projective(op, orthonormalize(np.eye(5)), 0.3)
        assert plcp is op
        np.testing.assert_array_equal(plcp.M, M)
        np.testing.assert_array_equal(plcp.q, q)

    def test_every_full_span_is_the_identity(self):
        # Q square and orthogonal: the original CP, the operator itself (its
        # M, not a copy, read as N, and its q as r), whatever the basis and
        # alpha
        rng = np.random.default_rng(48)
        n = 30
        op, _ = generate_instance(n, 4, 1.0, 3.0, seed=48)
        cone = parse_cone_spec("nn:12,free:6,nn:12")
        for raw in full_spans(n, rng):
            for alpha in (1.0, 0.3, 1e-9):
                plcp = build_projective(op, orthonormalize(raw), alpha)
                assert plcp is op
        rep = solve_ipm(plcp, cone)
        assert rep.converged
        assert cone.is_complementary(rep.x, op(rep.x), 1e-10)

    def test_full_span_setup_copies_no_matrix(self):
        # the identity basis keeps its O(n) support map and the reduced
        # problem holds M itself: together they peak below one n x n array
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

    def test_alpha_derived_on_a_proper_span_only(self, monkeypatch):
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=47)
        derived = build_projective(op, basis)
        given = build_projective(op, basis, op.contraction().alpha)
        assert derived.ortho.tobytes() == given.ortho.tobytes()
        assert (derived.W.tobytes(), derived.q.tobytes()) == (given.W.tobytes(),
                                                              given.q.tobytes())

        def no_constants(self):
            raise AssertionError("beta or L computed for a full span")

        monkeypatch.setattr(AffineOperator, "contraction", no_constants)
        for raw in full_spans(40, np.random.default_rng(47)):
            assert build_projective(op, orthonormalize(raw)) is op
        with pytest.raises(AssertionError, match="full span"):
            build_projective(op, basis)

    def test_contraction_alpha_on_identity_solves_the_cp(self):
        # build_projective(op, basis, op.contraction().alpha) at alpha =
        # beta/L^2 = 1e-5: scaled by alpha, the full span meets the IPM's
        # absolute tolerances at ||min(x, Mx + q)|| = 1.3e-3
        op, _ = generate_instance(300, 8, 1e-3, 10.0, 3)
        basis = orthonormalize(np.eye(300))
        rep = solve_ipm(build_projective(op, basis, op.contraction().alpha), orthant(300))
        assert rep.converged
        assert np.linalg.norm(np.minimum(rep.x, op(rep.x))) <= 1e-10

    def test_single_axis_identity_m(self):
        op = AffineOperator(np.eye(2), [4.0, -7.0])
        plcp = build_projective(op, orthonormalize(np.array([[1.0], [0.0]])), 1.0)
        np.testing.assert_allclose(np.eye(2) + plcp.ortho @ plcp.W, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(plcp.q, [4.0, 0.0], atol=1e-14)

    def test_alpha_m_equals_identity_collapses_n(self):
        rng = np.random.default_rng(42)
        op = AffineOperator(2.0 * np.eye(6), rng.standard_normal(6))
        basis = orthonormalize(rng.standard_normal((6, 2)))
        plcp = build_projective(op, basis, 0.5)
        np.testing.assert_allclose(np.eye(6) + plcp.ortho @ plcp.W, np.eye(6), atol=1e-13)
        np.testing.assert_allclose(plcp.q, 0.5 * basis.project_span(op.q), atol=1e-13)

    def test_matches_projector_oracle_and_r_in_span(self):
        op, basis = generate_instance(50, 5, 1.0, 3.0, seed=43)
        alpha = op.contraction().alpha
        plcp = build_projective(op, basis, alpha)
        np.testing.assert_allclose(np.eye(50) + plcp.ortho @ plcp.W, dense_N(op, basis, alpha),
                                   atol=1e-12)
        r = plcp.q
        near = basis.project_span(r)
        assert np.linalg.norm(r - near) <= 1e-12 * (1 + np.linalg.norm(r))

    def test_rejects_bad_alpha(self):
        op = AffineOperator(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            build_projective(op, orthonormalize(np.eye(2)), 0.0)


class TestApplyN:
    def test_zero_maps_to_zero(self):
        op, basis = generate_instance(20, 4, 1.0, 2.0, seed=44)
        plcp = build_projective(op, basis, 0.25)
        np.testing.assert_array_equal(plcp @ np.zeros(20), np.zeros(20))

    def test_identity_basis_gives_alpha_m_action(self):
        # on the full span alpha only rescales the CP, so N acts as M
        rng = np.random.default_rng(45)
        M = rng.standard_normal((7, 7))
        op = AffineOperator(M, np.zeros(7))
        plcp = build_projective(op, orthonormalize(np.eye(7)), 0.4)
        x = rng.standard_normal(7)
        np.testing.assert_allclose(plcp @ x, M @ x, atol=1e-12)

    def test_matches_dense_oracle(self):
        op, basis = generate_instance(50, 5, 1.0, 3.0, seed=46)
        plcp = build_projective(op, basis, 0.2)
        N = np.eye(50) + plcp.ortho @ plcp.W
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(50)
            ref = N @ x
            np.testing.assert_allclose(
                plcp @ x, ref, atol=1e-12 * (1 + np.linalg.norm(ref)))


class TestVerifyPd:
    def test_identity_case(self):
        op = AffineOperator(2.0 * np.eye(4), np.zeros(4))
        plcp = build_projective(op, orthonormalize(np.eye(4)), 0.5)
        # N = M on the full span: lambda_min(sym M), whatever alpha
        assert verify_pd(plcp) == pytest.approx(2.0, abs=1e-12)

    def test_pd_with_contraction_step(self):
        op, basis = generate_instance(50, 5, 1.0, 3.0, seed=47)
        plcp = build_projective(op, basis, op.contraction().alpha)
        assert verify_pd(plcp) > 0.0

    def test_skew_case_reports_value_without_assertion(self):
        S = np.array([[0.0, -1.0], [1.0, 0.0]])
        op = AffineOperator(S, np.zeros(2))
        plcp = build_projective(op, orthonormalize(np.array([[1.0], [0.0]])), 0.1)
        assert np.isfinite(verify_pd(plcp))

    def test_matches_dense_eigvalsh(self):
        rng = np.random.default_rng(52)
        for n, k in ((3, 1), (7, 4), (40, 8), (60, 60), (200, 10)):
            M = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
            basis = orthonormalize(rng.standard_normal((n, k)))
            plcp = build_projective(AffineOperator(M, np.zeros(n)), basis, 0.3)
            N = plcp.M
            ref = np.linalg.eigvalsh(0.5 * (N + N.T))[0]
            assert verify_pd(plcp) == pytest.approx(ref, abs=1e-12 * (1 + abs(ref)))

    def test_full_span_without_qr(self, monkeypatch):
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

    def test_full_span_is_beta_of_the_original_cp(self):
        # N = M on a full span, so verify_pd is beta itself, bit for bit
        for seed, n in ((56, 40), (57, 300)):
            rng = np.random.default_rng(seed)
            op = AffineOperator(rng.standard_normal((n, n)) + 0.5 * np.eye(n),
                                rng.standard_normal(n))
            assert verify_pd(build_projective(op, orthonormalize(np.eye(n)))) == op.beta

    def test_full_span_reads_the_cached_beta(self, monkeypatch):
        # a full span's verify_pd is its operator's beta, plain or polyhedral:
        # once the operator holds it, no eigensolve runs again
        op, _ = generate_instance(30, 4, 1.0, 3.0, seed=58)
        plcps = [build_projective(op, orthonormalize(np.eye(30))), polyhedral_problem()[0]]
        betas = [plcp.beta for plcp in plcps]

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("verify_pd ran an eigensolve")

        monkeypatch.setattr(scipy.linalg, "eigvalsh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        assert [verify_pd(plcp) for plcp in plcps] == betas

    def test_proper_subspace_keeps_qr_formula(self):
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
        # only O(n k) data is formed; a dense N would take 50 MB here
        n = 2500
        rng = np.random.default_rng(53)
        op = AffineOperator(1.5 * np.eye(n), rng.standard_normal(n))
        basis = orthonormalize(rng.standard_normal((n, 6)))
        plcp = build_projective(op, basis, 0.4)
        # N = I - P + 0.6 P: eigenvalue 0.6 on the span, 1 on its complement
        assert verify_pd(plcp) == pytest.approx(0.6, abs=1e-12)


class TestSignedPermutationRoute:
    """The route of a signed permutation, and of every other rank-n basis:
    the operator itself, against the same reduced problem
    stored with its dense orthogonal Q at alpha = 1, which the identity
    route takes whatever alpha is passed."""

    @staticmethod
    def both_routes(raw, alpha):
        op, _ = generate_instance(raw.shape[0], 4, 1.0, 3.0, seed=67)
        basis = orthonormalize(raw)
        Q = basis.ortho
        identity = build_projective(op, basis, alpha)
        dense = ProjectiveLcp(Q, Q.T @ op.M - Q.T, Q @ (Q.T @ op.q))
        assert identity is op
        return identity, dense

    @pytest.mark.parametrize("raw", full_spans(40, np.random.default_rng(66)))
    def test_reduced_problem_and_verify_pd(self, raw):
        identity, dense = self.both_routes(raw, 0.3)
        N = identity.M
        assert np.abs(N - dense.M).max() <= 1e-14 * np.abs(N).max()
        np.testing.assert_allclose(identity.q, dense.q, rtol=0,
                                   atol=1e-14 * np.abs(identity.q).max())
        assert verify_pd(identity) == pytest.approx(verify_pd(dense), rel=1e-12)

    @pytest.mark.parametrize("raw", full_spans(40, np.random.default_rng(66)))
    def test_woodbury_sides_and_solve(self, raw):
        identity, dense = self.both_routes(raw, 0.3)
        n = identity.dim
        N = identity.M
        rng = np.random.default_rng(69)
        # no fixed row and 5 fixed rows: the full span's direct LU either way,
        # as the dense Q factors k'xk' either way
        for n_var in (n, n - 5):
            fixed = np.ones(n, dtype=bool)
            fixed[rng.permutation(n)[:n_var]] = False
            D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-6, 6, n))
            K = N - np.eye(n) + np.diag(D)
            rhs = rng.standard_normal(n)
            for p in (identity, dense):
                y = _newton(p, fixed)(D)(rhs)
                # normwise backward error of the solve
                err = np.abs(K @ y - rhs).max()
                assert err <= 1e-14 * (np.abs(K).sum(1).max() * np.abs(y).max()
                                       + np.abs(rhs).max())

    @pytest.mark.parametrize("raw", full_spans(40, np.random.default_rng(66)))
    def test_solve_ipm(self, raw):
        cone = parse_cone_spec("nn:14,free:6,nn:14,free:6")
        identity, dense = self.both_routes(raw, 0.3)
        got, ref = solve_ipm(identity, cone), solve_ipm(dense, cone)
        assert got.converged and ref.converged
        assert (got.iterations, got.finish_accepted) == (ref.iterations, ref.finish_accepted)
        assert np.linalg.norm(got.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)

    @pytest.mark.parametrize("k", [40, 30])
    @pytest.mark.parametrize("cone", ["nn:14,free:6,nn:14,free:6", "nn:40"])
    def test_inputs_left_untouched(self, k, cone):
        # the LU factorizations overwrite only matrices they built, on every
        # route: a dense Q (k' = 30) and a full span (k' = 40), with 12 fixed
        # rows and with none
        op, _ = generate_instance(40, 4, 1.0, 3.0, seed=70)
        before = [a.tobytes() for a in (op.M, op.q)]
        plcp = build_projective(op, orthonormalize(np.eye(40)[:, :k]), 0.3)
        W = plcp.W if k < 40 else plcp.M
        stored = [a.tobytes() for a in (W, plcp.q)]
        assert solve_ipm(plcp, parse_cone_spec(cone)).converged
        verify_pd(plcp)
        assert [a.tobytes() for a in (W, plcp.q)] == stored
        assert [a.tobytes() for a in (op.M, op.q)] == before


class TestWoodbury:
    def test_empty_lowrank_part(self):
        # orthonormalize never returns a basis with no columns, and no Newton
        # route takes k' = 0
        with pytest.raises(ValueError, match="no columns"):
            ProjectiveLcp(np.zeros((3, 0)), np.zeros((0, 3)), np.array([-1.0, 1.0, 2.0]))

    def test_zero_correction(self):
        rhs = np.array([1.0, -2.0, 3.0])
        factor = _newton(lowrank(np.zeros((3, 2)), np.zeros((2, 3))), no_fixed_row(3))
        got = factor(np.ones(3))(rhs)
        np.testing.assert_allclose(got, rhs, atol=1e-15)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(48)
        n, k = 60, 6
        for _ in range(30):
            D = rng.uniform(0.5, 2.0, size=n)
            Q = rng.standard_normal((n, k)) / np.sqrt(n)
            W = rng.standard_normal((k, n)) / np.sqrt(n)
            A = np.diag(D) + Q @ W
            if np.linalg.cond(A) > 1e6:
                continue
            rhs = rng.standard_normal(n)
            ref = np.linalg.solve(A, rhs)
            got = _newton(lowrank(Q, W), no_fixed_row(n))(D)(rhs)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_nonpositive_diagonal_breaks(self):
        # N = I as a plain operator and as a ProjectiveLcp with Q W = 0
        for D in ([1.0, 0.0], [np.nan, 1.0]):
            for F in (AffineOperator(np.eye(2), np.zeros(2)),
                      lowrank(np.zeros((2, 1)), np.zeros((1, 2)))):
                factor = _newton(F, no_fixed_row(2))
                with pytest.raises(IpmBreakdown, match="positivity"):
                    factor(np.array(D))(np.ones(2))

    def test_singular_small_system_breaks(self):
        # I + W D^-1 Q = 1 - 1 = 0 although D > 0
        e1 = np.array([[1.0], [0.0]])
        with pytest.raises(IpmBreakdown, match="singular"):
            _newton(lowrank(e1, -e1.T), no_fixed_row(2))(np.ones(2))
        # a full span with a fixed row: N + diag(D - 1) = diag(0, 0) at D = (1, 2)
        # breaks when that D is factored
        factor = _newton(AffineOperator(np.diag([0.0, -1.0]), np.zeros(2)),
                         np.array([True, False]))
        with pytest.raises(IpmBreakdown, match="singular"):
            factor(np.array([1.0, 2.0]))

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
                y = _newton(lowrank(Q, W), no_fixed_row(n))(D)(rhs)
                A = np.diag(D) + Q @ W
                omega = np.abs(rhs - A @ y) / (np.abs(A) @ np.abs(y) + np.abs(rhs))
                assert omega.max() <= 1e-14

    def test_cached_split_matches_unsplit_solve(self):
        # dense Gaussian factors; the fixed rows leave a dense Q's system as
        # it is, so the solve matches the one with no fixed row
        rng = np.random.default_rng(54)
        n = 60
        for k in (20, n):
            for _ in range(10):
                Q = rng.standard_normal((n, k)) / (2 * np.sqrt(n))
                W = rng.standard_normal((k, n)) / (2 * np.sqrt(n))
                fixed = rng.random(n) < 0.6
                D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-2, 2, size=n))
                rhs = rng.standard_normal(n)
                y = _newton(lowrank(Q, W), fixed)(D)(rhs)
                A = np.diag(D) + Q @ W
                omega = np.abs(rhs - A @ y) / (np.abs(A) @ np.abs(y) + np.abs(rhs))
                assert omega.max() <= 1e-14
                ref = _newton(lowrank(Q, W), no_fixed_row(n))(D)(rhs)
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
                    y = _newton(lowrank(Q, W), fixed)(D)(rhs)
                    A = np.diag(D) + Q @ W
                    omega = np.abs(rhs - A @ y) / (np.abs(A) @ np.abs(y) + np.abs(rhs))
                    assert omega.max() <= 1e-14
                    ref = np.linalg.solve(A, rhs)
                    err = np.linalg.norm(y - ref)
                    assert err <= 1e-15 * np.linalg.cond(A) * np.linalg.norm(ref)

    def test_all_free_full_span_solves_with_n(self):
        # a full span with |V| = 0: every D is 1, and each call solves with N
        rng = np.random.default_rng(63)
        n = 30
        N = np.eye(n) + rng.standard_normal((n, n)) / (2 * np.sqrt(n))
        factor = _newton(AffineOperator(N, np.zeros(n)), np.ones(n, dtype=bool))
        for _ in range(3):
            rhs = rng.standard_normal(n)
            y = factor(np.ones(n))(rhs)
            ref = np.linalg.solve(N, rhs)
            assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_identity_split_with_no_fixed_row_holds_no_copy(self):
        # a full span and every row varies (an orthant cone without --basis): each
        # system is formed from the operator's N when D is given, so the
        # factory holds no n x n array
        rng = np.random.default_rng(71)
        n = 600
        W = rng.standard_normal((n, n)) / np.sqrt(n)
        op = AffineOperator(W, np.zeros(n))
        tracemalloc.start()
        try:
            factor = _newton(op, no_fixed_row(n))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 2**16
        D = 1.0 + 10.0 ** rng.uniform(-3, 3, n)
        rhs = rng.standard_normal(n)
        y = factor(D)(rhs)
        ref = np.linalg.solve(np.diag(D - 1.0) + W, rhs)
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_small_alpha_identity_form_keeps_accuracy(self):
        # N = alpha M passed as a plain operator's M, with every row varying
        # and with half the rows fixed: each system is formed from N, so no
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
                for fixed_rows in (no_fixed_row(n), fixed):
                    active = ~fixed_rows & (rng.random(n) < 0.5)
                    rhs = rng.standard_normal(n)
                    factor = _newton(AffineOperator(N, np.zeros(n)), fixed_rows)
                    for D in (np.ones(n), np.where(active, np.inf, 1.0)):
                        rows = np.isfinite(D)
                        K = N[np.ix_(rows, rows)]
                        y = factor(D)(rhs)
                        assert np.all(y[~rows] == 0.0)
                        b, y = rhs[rows], y[rows]
                        # normwise backward error of the solve
                        err = np.abs(K @ y - b).max()
                        assert err <= 1e-14 * (np.abs(K).sum(1).max() * np.abs(y).max()
                                               + np.abs(b).max())

    def test_factors_serve_several_right_hand_sides(self):
        rng = np.random.default_rng(57)
        n, k = 50, 7
        Q = rng.standard_normal((n, k)) / (2 * np.sqrt(n))
        W = rng.standard_normal((k, n)) / (2 * np.sqrt(n))
        D = 1.0 + 10.0 ** rng.uniform(-3, 3, size=n)
        solve = _newton(lowrank(Q, W), no_fixed_row(n))(D)
        A = np.diag(D) + Q @ W
        for _ in range(3):
            rhs = rng.standard_normal(n)
            ref = np.linalg.solve(A, rhs)
            assert np.linalg.norm(solve(rhs) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_infinite_diagonal_pins_rows_to_zero(self):
        # D = inf on A and 1 elsewhere solves (I + Q W)_II y_I = b_I with y_A = 0;
        # a dense Q factors the k'xk' system whatever share of rows is free
        rng = np.random.default_rng(58)
        n = 40
        for k, free_share in ((9, 0.3), (20, 0.8), (n, 0.8)):
            Q = rng.standard_normal((n, k)) / (2 * np.sqrt(n))
            W = rng.standard_normal((k, n)) / (2 * np.sqrt(n))
            free = rng.random(n) < free_share
            active = ~free & (rng.random(n) < 0.5)
            rhs = rng.standard_normal(n)
            y = _newton(lowrank(Q, W), free)(np.where(active, np.inf, 1.0))(rhs)
            keep = ~active
            ref = np.linalg.solve((np.eye(n) + Q @ W)[np.ix_(keep, keep)], rhs[keep])
            assert np.all(y[active] == 0.0)
            assert np.linalg.norm(y[keep] - ref) <= 1e-13 * np.linalg.norm(ref)


class TestSlackPairs:
    """The Newton route of a polyhedral reduction's operator: each slack pair
    (s_i, lambda_i) is eliminated, and the (n + p)^2 system on (x, mu) is
    formed from the operator's blocks and factored."""

    @staticmethod
    def reduction(n, p, seed):
        """The operator and the fixed (free) rows of a reduction with n
        variables, m = n inequality rows and p equality rows, in the order
        (s, x, lambda, mu)."""
        rng = np.random.default_rng(seed)
        op, _ = generate_instance(n, 2, 1.0, 2.0, seed=seed)
        layout = polyhedron_to_cone(PolyhedralVI(op.M, op.q, rng.standard_normal((n, n)),
                                                 rng.standard_normal(n)))
        op, cone = layout.op, layout.cone
        if p:
            E = np.zeros((p, cone.dim))
            E[:, n:2 * n] = rng.standard_normal((p, n))
            eq = eliminate_equalities(op, E, np.zeros(p), cone)
            op, cone = eq.op, eq.cone
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
        op, fixed = self.reduction(n, p, seed=73)
        rng = np.random.default_rng(74)
        factored = record_factorizations(monkeypatch)
        factor = _newton(op, fixed)
        assert factored == []
        for _ in range(10):
            D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-12, 12, fixed.size))
            rhs = rng.standard_normal(fixed.size) * D ** rng.uniform(0, 1, fixed.size)
            y = factor(D)(rhs)
            assert self.backward_error(op.M + np.diag(D - 1.0), y, rhs) <= 1e-14
        assert factored == [(n + p, n + p)] * 10

    @pytest.mark.parametrize("p", [0, 8])
    def test_infinite_diagonal_pins_rows_to_zero(self, monkeypatch, p):
        # the finish's D: inf on a guessed active set A of slack rows and 1
        # elsewhere, and the same A with a spread D on the other slack rows;
        # the pinned rows of A border the system next to the equality rows
        n = 30
        op, fixed = self.reduction(n, p, seed=75)
        N = op.M
        rng = np.random.default_rng(76)
        factored = record_factorizations(monkeypatch)
        factor = _newton(op, fixed)
        for _ in range(5):
            active = ~fixed & (rng.random(fixed.size) < 0.5)
            keep = ~active
            for spread in (0.0, 3.0):
                D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-spread, spread, fixed.size))
                D[active] = np.inf
                rhs = rng.standard_normal(fixed.size)
                factored.clear()
                y = factor(D)(rhs)
                assert factored == [(n + p + active.sum(),) * 2]
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
        op, fixed = self.reduction(n, 0, seed=77)
        rng = np.random.default_rng(78)
        factored = record_factorizations(monkeypatch)
        for dense in (op.M, *self.near_misses(op.M, n)):
            factored.clear()
            factor = _newton(AffineOperator(dense, op.q), fixed)
            D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-3, 3, fixed.size))
            rhs = rng.standard_normal(fixed.size)
            y = factor(D)(rhs)
            assert factored == [(3 * n, 3 * n)]  # G(D), formed from N
            assert self.backward_error(dense + np.diag(D - 1.0), y, rhs) <= 1e-14

    def test_other_varying_rows_take_the_direct_route(self, monkeypatch):
        # D varies on an x row as well as on the slacks (the reduction over
        # another cone): the operator's dense N, factored n x n
        n = 12
        op, fixed = self.reduction(n, 0, seed=77)
        fixed = fixed.copy()
        fixed[n] = False
        rng = np.random.default_rng(80)
        factored = record_factorizations(monkeypatch)
        D = np.where(fixed, 1.0, 1.0 + 10.0 ** rng.uniform(-3, 3, fixed.size))
        rhs = rng.standard_normal(fixed.size)
        y = _newton(op, fixed)(D)(rhs)
        assert factored == [(3 * n, 3 * n)]
        assert self.backward_error(op.M + np.diag(D - 1.0), y, rhs) <= 1e-14

    def test_overflowing_system_breaks_without_warning(self):
        # d below the border threshold: rows of A near 1e150, with which
        # M + A^T diag(d) A overflows, and a b_lambda near 1e300, with which
        # only the right-hand side's d b_lambda does: a breakdown, not a
        # RuntimeWarning
        n = 10
        op, fixed = self.reduction(n, 0, seed=79)
        huge_rows = _PolyhedralOperator(op.M_x, 1e150 * op.A, op.E, op.q)
        D = np.where(fixed, 1.0, 1e10)
        rhs = np.ones(fixed.size)
        rhs[2 * n] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IpmBreakdown, match="system is not finite"):
                _newton(huge_rows, fixed)(D)
            with pytest.raises(IpmBreakdown, match="solve is not finite"):
                _newton(op, fixed)(D)(rhs)

    @pytest.mark.parametrize("seed", range(79, 84))
    def test_huge_slack_diagonal_solves(self, seed):
        # d = 1e300 on slack row 0 and 1 on the others: that row borders the
        # reduced system with 1/d on its diagonal. Formed into
        # M + A^T diag(d) A, d a a^T rounded M's entries away: a false
        # "singular" breakdown on seeds 79-82 and entries near 1e285 on 83,
        # where the dense route's largest is 1.9
        n = 10
        op, fixed = self.reduction(n, 0, seed=seed)
        D = np.where(fixed, 1.0, 2.0)
        D[0] = 1e300
        rhs = np.random.default_rng(seed).standard_normal(fixed.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = _newton(op, fixed)(D)(rhs)
        # rows scaled by 1/D: unscaled, row 0's 1e300 would hide any error
        K = (op.M + np.diag(D - 1.0)) / D[:, None]
        assert self.backward_error(K, y, rhs / D) <= 1e-15
        ref = _newton(AffineOperator(op.M, op.q), fixed)(D)(rhs)
        assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n, seed", [(10, 64), (10, 3), (20, 4)])
    def test_unreachable_tolerance_ends_without_warning(self, n, seed):
        # tol = 1e-30 drives the slack rows' D toward overflow; the solve
        # ends at max_iter with converged False or raises IpmBreakdown
        plcp, cone = polyhedral_problem(n, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rep = solve_ipm(plcp, cone, IpmConfig(tol=1e-30))
            except IpmBreakdown:
                return
        assert not rep.converged and rep.iterations == IpmConfig().max_iter

    def test_benchmark_instances_match_the_direct_route(self, poly_instance):
        # the polyhedral_ipm workload's seed-1 instances, two with equality
        # rows, against the same problems given as their dense N, which the
        # direct route factors n x n
        for i in range(4):
            plcp, cone = benchmark_problem(poly_instance(1, i))
            assert isinstance(plcp, _PolyhedralOperator)
            got = solve_ipm(plcp, cone)
            ref = solve_ipm(AffineOperator(plcp.M, plcp.q), cone)
            assert got.converged and got.finish_accepted
            assert ((got.iterations, got.converged, got.finish_attempts, got.finish_accepted)
                    == (ref.iterations, ref.converged, ref.finish_attempts, ref.finish_accepted))
            assert np.linalg.norm(got.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)

    def test_benchmark_setup_and_solve_stay_below_the_dense_array(self, poly_instance):
        # n = m = 200 with p = 20 equality rows: set-up keeps the blocks, and
        # the solve's largest arrays are its (n + p)^2 systems. Neither comes
        # near the (2m + n + p)^2 array, which is never formed
        arrays = poly_instance(1, 1)
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
    _newton_factor method; projective._newton checks D and calls it."""

    def test_projective_holds_nothing_from_transforms(self):
        from_transforms = [name for name, value in vars(projective).items()
                           if getattr(value, "__module__", None) == "conevi.transforms"]
        assert from_transforms == []

    def test_solve_ipm_factors_through_the_operator_method(self):
        # a subclass that records each D its own method factors: solve_ipm
        # goes through it, and a D with a zero is refused before it runs
        factored = []

        class Recorded(AffineOperator):
            def _newton_factor(self, fixed):
                system = super()._newton_factor(fixed)

                def factor(D):
                    factored.append(D)
                    return system(D)

                return factor

        op, _ = generate_instance(20, 2, 1.0, 3.0, seed=50)
        rep = solve_ipm(Recorded(op.M, op.q), orthant(20))
        assert rep.converged
        assert len(factored) == rep.iterations - 1 + rep.finish_attempts
        np.testing.assert_array_equal(rep.x, solve_ipm(op, orthant(20)).x)
        factored.clear()
        factor = _newton(Recorded(op.M, op.q), no_fixed_row(20))
        D = np.ones(20)
        D[3] = 0.0
        with pytest.raises(IpmBreakdown, match="positivity"):
            factor(D)
        assert factored == []

    def test_one_breakdown_class_for_every_route(self):
        assert conevi.IpmBreakdown is projective.IpmBreakdown is operators.IpmBreakdown
        modules = ("basis", "cones", "generate", "operators", "projective", "solvers",
                   "transforms")
        assert [name for name in modules
                if "IpmBreakdown" in importlib.import_module(f"conevi.{name}").__all__] == [
                    "projective"]
        # a singular system on the n x n and the k'xk' routes, and a block
        # system whose M + A^T diag(d) A overflows, each caught by the clause
        # that cli.main and the benchmark worker use
        e1 = np.array([[1.0], [0.0]])
        poly, all_but_slacks = TestSlackPairs.reduction(10, 0, seed=79)
        cases = [
            (AffineOperator(np.diag([0.0, -1.0]), np.zeros(2)), no_fixed_row(2), np.ones(2)),
            (lowrank(e1, -e1.T), no_fixed_row(2), np.ones(2)),
            (_PolyhedralOperator(poly.M_x, 1e150 * poly.A, poly.E, poly.q), all_but_slacks,
             np.where(all_but_slacks, 1.0, 1e10)),
        ]
        for F, fixed, D in cases:
            try:
                _newton(F, fixed)(D)
            except projective.IpmBreakdown as exc:
                assert type(exc) is operators.IpmBreakdown
            else:
                pytest.fail(f"{type(F).__name__}: no breakdown")


class TestSolveIpm:
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

    def test_trivial_lcp_r_zero(self):
        # fully degenerate path x = s = sqrt(mu): needs a deep mu target
        op = AffineOperator(2.0 * np.eye(4), np.zeros(4))
        plcp = build_projective(op, orthonormalize(np.eye(4)), 0.5)
        rep = solve_ipm(plcp, orthant(4), IpmConfig(tol=1e-17))
        assert rep.converged
        assert np.linalg.norm(rep.x) <= 1e-8

    def test_complementarity_at_exit(self):
        cfg = IpmConfig()
        for seed in range(5):
            op, basis = generate_instance(40, 8, 1.0, 3.0, seed=seed)
            cone = orthant(40)
            plcp = build_projective(op, basis, op.contraction().alpha)
            rep = solve_ipm(plcp, cone, cfg)
            assert rep.converged
            y = plcp(rep.x)
            assert cone.is_complementary(rep.x, y, 10 * cfg.tol)

    def test_mixed_free_rows_solved_as_equations(self):
        # free block forces (Nx + r)_free = 0
        rng = np.random.default_rng(50)
        M = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        M = 0.5 * (M + M.T) + 1.5 * np.eye(3)
        q = rng.standard_normal(3)
        op = AffineOperator(M, q)
        cone = SeparableCone((Segment(SegmentKind.NONNEGATIVE, 2), Segment(SegmentKind.FREE, 1)))
        plcp = build_projective(op, orthonormalize(np.eye(3)), 0.2)
        rep = solve_ipm(plcp, cone)
        assert rep.converged
        resid = plcp(rep.x)
        assert abs(resid[2]) <= 1e-8
        assert np.all(rep.x[:2] >= -1e-10)
        assert np.all(resid[:2] >= -1e-8)

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

    def test_zero_segments_rejected(self):
        op = AffineOperator(np.eye(2), [0.0, 0.0])
        plcp = build_projective(op, orthonormalize(np.eye(2)), 1.0)
        with pytest.raises(ValueError):
            solve_ipm(plcp, zero(2))

    def test_one_woodbury_solve_per_newton_step(self, monkeypatch):
        calls = []
        inner = projective._newton

        def counted(*args):
            factor = inner(*args)

            def counted_factor(D):
                calls.append(1)
                return factor(D)

            return counted_factor

        monkeypatch.setattr(projective, "_newton", counted)
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=49)
        problems = [(build_projective(op, basis, op.contraction().alpha), orthant(40))]
        # a polyhedral reduction with the identity basis (k' = 30): each step
        # eliminates its 10 slack pairs and factors the 10x10 system on x
        plcp, cone = polyhedral_problem()
        assert cone.nonneg_mask.sum() < cone.dim
        problems.append((plcp, cone))
        # one factorization per Newton step and per finish attempt; the last
        # iteration only checks convergence or tries the finish, also when it
        # is the last one max_iter allows
        for plcp, cone in problems:
            for cfg, converged in ((IpmConfig(), True), (IpmConfig(max_iter=3), False)):
                calls.clear()
                rep = solve_ipm(plcp, cone, cfg)
                assert rep.converged is converged
                assert len(calls) == rep.iterations - 1 + rep.finish_attempts

    def test_finish_solves_through_its_own_name(self, monkeypatch):
        # each active-set finish makes exactly one solve_diag_plus_lowrank
        # call, looked up as a module attribute, which a profiler can wrap
        calls = []
        inner = projective.solve_diag_plus_lowrank

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(projective, "solve_diag_plus_lowrank", counted)
        plcp, cone = polyhedral_problem()
        rep = solve_ipm(plcp, cone)
        assert rep.converged and rep.finish_attempts >= 1
        assert len(calls) == rep.finish_attempts

    def test_operator_solved_without_a_basis(self):
        # the reduced problem of the identity basis is the operator itself, so
        # solve_ipm and verify_pd take it directly, plain or polyhedral, and
        # report what the route through build_projective reports, bit for bit
        op, _ = generate_instance(30, 4, 1.0, 3.0, seed=59)
        rng = np.random.default_rng(59)
        layout = polyhedron_to_cone(PolyhedralVI(op.M, op.q, rng.standard_normal((10, 30)),
                                                 1.0 + np.abs(rng.standard_normal(10))))
        assert isinstance(layout.op, _PolyhedralOperator)
        for F, cone in ((op, parse_cone_spec("nn:12,free:6,nn:12")), (layout.op, layout.cone)):
            built = build_projective(F, orthonormalize(np.eye(F.dim)), 0.3)
            assert built is F
            got, ref = solve_ipm(F, cone), solve_ipm(built, cone)
            assert got.converged and got.finish_accepted
            assert got.x.tobytes() == ref.x.tobytes()
            assert got.history == ref.history
            assert ((got.mu, got.feasibility, got.finish_attempts, got.finish_accepted)
                    == (ref.mu, ref.feasibility, ref.finish_attempts, ref.finish_accepted))
            assert verify_pd(F) == verify_pd(built) == F.beta

    def test_empty_lowrank_part_solved(self):
        # N = I with no low-rank part: ortho may not be empty, so the problem
        # is the identity operator itself, with r as its q. CP(x + r) on the
        # orthant has x = max(-r, 0)
        plcp = AffineOperator(np.eye(3), [-1.0, 1.0, 2.0])
        rep = solve_ipm(plcp, orthant(3))
        assert rep.converged
        np.testing.assert_allclose(rep.x, [1.0, 0.0, 0.0], atol=1e-12)
        assert verify_pd(plcp) == 1.0  # the smallest eigenvalue of sym(I)

    def test_factorization_sizes(self, monkeypatch):
        # the per-step cost rule: a dense Q factors k'xk' systems only, here
        # with k' = 30 above |V| = 28 orthant rows
        op, _ = generate_instance(40, 4, 1.0, 3.0, seed=70)
        plcp = build_projective(op, orthonormalize(np.eye(40)[:, :30]), 0.3)
        factored = record_factorizations(monkeypatch)
        assert solve_ipm(plcp, parse_cone_spec("nn:14,free:6,nn:14,free:6")).converged
        assert factored and set(factored) == {(30, 30)}
        # a full span with fixed rows but no slack pairs: one n x n system per
        # Newton step and per finish attempt, none at set-up
        plcp = build_projective(op, orthonormalize(np.eye(40)))
        factored.clear()
        rep = solve_ipm(plcp, parse_cone_spec("nn:14,free:6,nn:14,free:6"))
        assert rep.converged
        assert factored == [(40, 40)] * (rep.iterations - 1 + rep.finish_attempts)
        # a polyhedral reduction, whose slack pairs are eliminated: no n x n
        # matrix, the |R|x|R| system on the rows R = x left by the pairs per
        # Newton step, and per finish attempt one larger by the guessed
        # active rows, whose multipliers stay as equality rows
        plcp, cone = polyhedral_problem()
        n_rest = int(cone.free_mask.sum() - cone.nonneg_mask.sum())
        active_sizes = []
        inner = projective._finish_candidate

        def recorded(plcp, active, B, factor):
            active_sizes.append(int(active.sum()))
            return inner(plcp, active, B, factor)

        monkeypatch.setattr(projective, "_finish_candidate", recorded)
        factored.clear()
        rep = solve_ipm(plcp, cone)
        assert rep.converged and len(active_sizes) == rep.finish_attempts >= 1
        assert min(active_sizes) > 0
        assert sorted(factored) == sorted([(n_rest, n_rest)] * (rep.iterations - 1)
                                          + [(n_rest + k, n_rest + k) for k in active_sizes])

    def test_nan_iterate_breaks(self, monkeypatch):
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=49)
        plcp = build_projective(op, basis, op.contraction().alpha)
        inner = projective._newton_directions

        def poisoned(*args):
            dx_aff, ds_aff, dx, ds, sigma = inner(*args)
            dx = dx.copy()
            dx[0] = np.nan
            return dx_aff, ds_aff, dx, ds, sigma

        monkeypatch.setattr(projective, "_newton_directions", poisoned)
        monkeypatch.setattr(projective, "_finish_candidate", lambda *args: None)
        with pytest.raises(IpmBreakdown, match="orthant iterate"):
            solve_ipm(plcp, orthant(40))

    def test_overflowing_diagonal_breaks_without_warning(self, monkeypatch):
        # tolerances no iterate meets drive x_i toward 0 on the active rows
        # until s_i / x_i overflows: a breakdown, not a RuntimeWarning. The
        # reduction is given as its dense N, which takes the direct route;
        # its operator's route stops at max_iter there (TestSlackPairs)
        plcp, cone = polyhedral_problem()
        plcp = AffineOperator(plcp.M, plcp.q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IpmBreakdown, match="not finite"):
                solve_ipm(plcp, cone, IpmConfig(tol=1e-30))

    @pytest.mark.parametrize("form", ["lcp", "polyhedral"])
    def test_unsolvable_lcp_breaks_without_warning(self, form):
        # M = [[0, 1], [-1, 0]], q = (-1, -1) is monotone with no solution:
        # the corrector's (sigma mu - dx ds) / x overflows. A breakdown, not a
        # RuntimeWarning, solved directly and as the VI over {x : I x + 0 >= 0}
        M, q = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([-1.0, -1.0])
        if form == "lcp":
            plcp, cone = AffineOperator(M, q), orthant(2)
        else:
            layout = polyhedron_to_cone(PolyhedralVI(M, q, np.eye(2), np.zeros(2)))
            cone = layout.cone
            plcp = build_projective(layout.op, orthonormalize(np.eye(cone.dim)), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IpmBreakdown, match="corrector is not finite"):
                solve_ipm(plcp, cone)

    def test_all_free_cone(self):
        # |V| = 0 < k': the Newton matrix is N at every step
        op, basis = generate_instance(30, 30, 1.0, 3.0, seed=65)
        cone = parse_cone_spec("free:30")
        plcp = build_projective(op, basis, op.contraction().alpha)
        rep = solve_ipm(plcp, cone)
        assert rep.converged and rep.finish_attempts == 0
        resid = plcp(rep.x)
        assert np.abs(resid).max() <= IpmConfig().tol

    def test_directions_match_dense_solve(self, monkeypatch):
        # the IPM absorbs an inexact direction, so check the directions themselves
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

    def test_full_span_reads_a_read_only_m(self):
        # the reduced problem shares M, so the IPM, its finish and verify_pd
        # must never write it: any in-place write on a read-only M raises.
        # Two cones: every row varying (orthant), and 6 rows fixed
        op, _ = generate_instance(60, 4, 1.0, 3.0, seed=72)
        op.M.setflags(write=False)
        plcp = build_projective(op, orthonormalize(np.eye(60)))
        assert plcp is op
        for cone in (orthant(60), parse_cone_spec("nn:27,free:6,nn:27")):
            rep = solve_ipm(plcp, cone)
            assert rep.converged and rep.finish_accepted
            assert cone.is_complementary(rep.x, op(rep.x), 1e-10)
        assert verify_pd(plcp) == op.beta

    def test_finish_tried_on_the_iteration_that_meets_the_stopping_test(self):
        # a near-degenerate component (x = 0, Nx + r = 4e-6) makes the first
        # guess wrong; the right one settles only as mu reaches tol
        op, basis = generate_instance(40, 8, 1.0, 2.0, seed=101)
        cone = orthant(40)
        plcp = build_projective(op, basis, op.contraction().alpha)
        rep = solve_ipm(plcp, cone, IpmConfig(tol=1e-11))
        assert rep.converged and rep.finish_accepted and rep.finish_attempts == 2
        assert rep.history[-1][0] <= 1e-10
        x_bar = solve_galerkin(op, cone, basis, SolveConfig(tol=1e-12)).x
        assert np.linalg.norm(rep.x - x_bar) <= 1e-10 * (1 + np.linalg.norm(x_bar))

    def test_wrong_guess_rejected_and_ipm_point_kept(self, monkeypatch):
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=49)
        plcp = build_projective(op, basis, op.contraction().alpha)
        monkeypatch.setattr(projective, "_finish_candidate", lambda *args: None)
        plain = solve_ipm(plcp, orthant(40))
        monkeypatch.undo()
        # every orthant component guessed active: x = 0 is not this LCP's solution
        monkeypatch.setattr(projective, "_active_guess", lambda x, s, B: B.copy())
        rep = solve_ipm(plcp, orthant(40))
        assert rep.finish_attempts == 1 and not rep.finish_accepted
        assert rep.converged and rep.mu <= IpmConfig().tol
        assert rep.iterations == plain.iterations
        np.testing.assert_array_equal(rep.x, plain.x)
        assert np.all(rep.x > 0.0)

    def test_singular_finish_system_is_a_rejected_guess(self, monkeypatch):
        # N = [[0, 1], [-1, 0]] is monotone, but its principal block on I = {1} is 0
        op = AffineOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]), [-1.0, 1.0])
        plcp = build_projective(op, orthonormalize(np.eye(2)), 1.0)
        monkeypatch.setattr(projective, "_active_guess",
                            lambda x, s, B: np.array([True, False]))
        rep = solve_ipm(plcp, orthant(2))
        assert rep.converged and rep.finish_attempts == 1 and not rep.finish_accepted
        np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-8)

    def test_history_rows(self):
        op, basis = generate_instance(40, 8, 1.0, 3.0, seed=49)
        plcp = build_projective(op, basis, op.contraction().alpha)
        rep = solve_ipm(plcp, orthant(40))
        assert rep.converged and rep.finish_accepted
        assert len(rep.history) == rep.iterations - 1
        mus = [row[0] for row in rep.history]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        for mu, feas, step, sigma in rep.history:
            assert mu > 0.0 and feas >= 0.0
            assert 0.0 < step <= 1.0 and 0.0 <= sigma <= 1.0

    def test_nonconvergence_reported(self):
        op, basis = generate_instance(30, 6, 1.0, 3.0, seed=51)
        plcp = build_projective(op, basis, op.contraction().alpha)
        rep = solve_ipm(plcp, orthant(30), IpmConfig(max_iter=2))
        assert not rep.converged
        assert rep.iterations == 2

    def test_iteration_cap_reports_the_returned_iterate(self, monkeypatch):
        op, basis = generate_instance(30, 6, 1.0, 3.0, seed=51)
        plcp = build_projective(op, basis, op.contraction().alpha)
        starts = []
        inner = projective._newton_directions

        def recorded(solve, d, x, s, g, B, mu):
            starts.append(x)
            return inner(solve, d, x, s, g, B, mu)

        monkeypatch.setattr(projective, "_newton_directions", recorded)
        longer = solve_ipm(plcp, orthant(30), IpmConfig(max_iter=3))
        starts_longer = list(starts)
        rep = solve_ipm(plcp, orthant(30), IpmConfig(max_iter=2))
        # the capped run stops at the iterate the longer run takes its second
        # step from, and reports that iterate's mu and feasibility
        assert not rep.converged and len(rep.history) == rep.iterations - 1 == 1
        np.testing.assert_array_equal(rep.x, starts_longer[1])
        assert (rep.mu, rep.feasibility) == longer.history[1][:2]
        assert rep.mu == pytest.approx(0.13379605657490962, rel=1e-9)
