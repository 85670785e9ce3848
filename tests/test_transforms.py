import numpy as np
import pytest

from conftest import equality_rows, reduction
from conevi.basis import orthonormalize
from conevi.cones import SegmentKind, Segment, SeparableCone, free, orthant
from conevi.generate import generate_instance
from conevi.operators import AffineOperator, monotone_modulus
from conevi.projective import IpmConfig, build_projective, solve_ipm, verify_pd
from conevi.solvers import solve_exact
from conevi.transforms import (
    PolyhedralVI,
    _PolyhedralOperator,
    eliminate_equalities,
    polyhedron_to_cone,
)


def dense_reduction(p):
    """The reduction of VI(Mx + q, {Ax + b >= 0}) as one dense operator: the
    block matrix written into one zero array, on (s, x, lambda)."""
    m, n = p.A.shape
    x, lam = slice(m, m + n), slice(m + n, 2 * m + n)
    M = np.zeros((2 * m + n, 2 * m + n))
    M[x, x] = p.M
    M[x, lam] = -p.A.T
    M[lam, x] = p.A
    M[np.arange(m), m + n + np.arange(m)] = 1.0
    M[m + n + np.arange(m), np.arange(m)] = -1.0
    return AffineOperator(M, np.concatenate([np.zeros(m), p.q, p.b]))


class TestEliminateEqualities:
    def test_empty_constraints_unchanged(self):
        op = AffineOperator(np.eye(2), [1.0, 2.0])
        cone = orthant(2)
        layout = eliminate_equalities(op, np.zeros((0, 2)), np.zeros(0), cone)
        assert layout.op is op and layout.cone is cone
        assert layout.variable_map["y"] == (0, 2)

    def test_block_assembly(self):
        op = AffineOperator(np.eye(2), [0.5, -0.5])
        layout = eliminate_equalities(op, [[1.0, 1.0]], [1.0], orthant(2))
        np.testing.assert_array_equal(
            layout.op.M,
            [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]],
        )
        np.testing.assert_array_equal(layout.op.q, [0.5, -0.5, -1.0])
        assert layout.cone.segments[-1] == Segment(SegmentKind.FREE, 1)
        assert layout.op.beta <= 0

    def test_multiplier_rows_enforce_equality(self):
        # the free lambda rows of the transformed problem force Ay = b
        rng = np.random.default_rng(62)
        op, _ = generate_instance(6, 2, 1.0, 2.0, seed=62)
        A = rng.standard_normal((2, 6))
        y_feas = np.abs(rng.standard_normal(6))
        b = A @ y_feas  # guarantees a feasible point exists
        layout = eliminate_equalities(op, A, b, orthant(6))
        plcp = build_projective(layout.op, orthonormalize(np.eye(layout.cone.dim)), 1.0)
        rep = solve_ipm(plcp, layout.cone, IpmConfig(tol=1e-11))
        assert rep.converged
        y = layout.extract("y", rep.x)
        np.testing.assert_allclose(A @ y, b, atol=1e-8)


class TestPolyhedronToCone:
    def test_explicit_blocks(self):
        M = np.array([[2.0, 0.5], [0.0, 2.0]])
        q = np.array([1.0, -1.0])
        A = np.array([[1.0, 2.0]])
        b = np.array([3.0])
        layout = polyhedron_to_cone(PolyhedralVI(M, q, A, b))
        expect = np.array([
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 2.0, 0.5, -1.0],
            [0.0, 0.0, 2.0, -2.0],
            [-1.0, 1.0, 2.0, 0.0],
        ])
        np.testing.assert_array_equal(layout.op.M, expect)
        np.testing.assert_array_equal(layout.op.q, [0.0, 1.0, -1.0, 3.0])
        assert layout.variable_map == {"s": (0, 1), "x": (1, 3), "lambda": (3, 4)}
        assert layout.cone.segments == (
            Segment(SegmentKind.NONNEGATIVE, 1),
            Segment(SegmentKind.FREE, 2),
            Segment(SegmentKind.FREE, 1),
        )

    @pytest.mark.parametrize("n, m", [(6, 6), (7, 3), (3, 8)])
    def test_matches_slack_step_then_elimination(self, n, m):
        # the composed construction the one-array assembly replaces
        rng = np.random.default_rng(65 + n + m)
        p = PolyhedralVI(rng.standard_normal((n, n)), rng.standard_normal(n),
                         rng.standard_normal((m, n)), rng.standard_normal(m))
        M = np.zeros((m + n, m + n))
        M[m:, m:] = p.M
        slacked = AffineOperator(M, np.concatenate([np.zeros(m), p.q]))
        cone = SeparableCone((Segment(SegmentKind.NONNEGATIVE, m), Segment(SegmentKind.FREE, n)))
        ref = eliminate_equalities(slacked, np.hstack([-np.eye(m), p.A]), -p.b, cone)
        got = polyhedron_to_cone(p)
        np.testing.assert_array_equal(got.op.M, ref.op.M)
        np.testing.assert_array_equal(got.op.q, ref.op.q)
        assert got.cone == ref.cone
        assert got.variable_map == {"s": (0, m), "x": (m, m + n), "lambda": (m + n, m + n + m)}
        assert ref.variable_map == {"y": (0, m + n), "lambda": (m + n, m + n + m)}

    def test_no_constraints_becomes_linear_equation(self):
        op, _ = generate_instance(5, 2, 1.0, 2.0, seed=63)
        layout = polyhedron_to_cone(PolyhedralVI(op.M, op.q, np.zeros((0, 5)), np.zeros(0)))
        assert layout.cone == free(5)
        x_direct = np.linalg.solve(op.M, -op.q)
        plcp = build_projective(layout.op, orthonormalize(np.eye(5)), 1.0)
        rep = solve_ipm(plcp, layout.cone)
        assert rep.converged
        np.testing.assert_allclose(layout.extract("x", rep.x), x_direct, atol=1e-8)

    def test_symmetric_part_is_middle_block_only(self):
        rng = np.random.default_rng(64)
        M = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        A = rng.standard_normal((3, 4))
        layout = polyhedron_to_cone(PolyhedralVI(M, rng.standard_normal(4), A, rng.standard_normal(3)))
        big = layout.op.M
        sym = 0.5 * (big + big.T)
        expect = np.zeros_like(sym)
        expect[3:7, 3:7] = 0.5 * (M + M.T)
        np.testing.assert_allclose(sym, expect, atol=1e-12)
        assert min(np.linalg.eigvalsh(sym)) >= -1e-10

    def test_general_polyhedron_kkt_certificate(self):
        # KKT holds at the IPM solution: stationarity, primal/dual
        # feasibility, complementary slackness. For monotone problems any
        # KKT point solves the original VI, so this certifies the derived
        # block layout on non-orthant polyhedra.
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            op, _ = generate_instance(8, 2, 1.0, 2.0, seed=700 + seed)
            A = rng.standard_normal((5, 8))
            interior = rng.standard_normal(8)
            b = 0.5 + np.abs(rng.standard_normal(5)) - A @ interior  # nonempty interior
            layout = polyhedron_to_cone(PolyhedralVI(op.M, op.q, A, b))
            plcp = build_projective(
                layout.op, orthonormalize(np.eye(layout.cone.dim)), 1.0)
            rep = solve_ipm(plcp, layout.cone, IpmConfig(tol=1e-11))
            assert rep.converged
            s = layout.extract("s", rep.x)
            x = layout.extract("x", rep.x)
            lam = layout.extract("lambda", rep.x)
            np.testing.assert_allclose(s, A @ x + b, atol=1e-8 * (1 + np.linalg.norm(s)))
            assert np.all(s >= -1e-8) and np.all(lam >= -1e-8)
            stat = op.M @ x + op.q - A.T @ lam
            assert np.linalg.norm(stat) <= 1e-7 * (1 + np.linalg.norm(lam))
            assert abs(s @ lam) <= 1e-8 * (1 + np.linalg.norm(s) * np.linalg.norm(lam))

    def test_orthant_roundtrip_and_kkt(self):
        for seed in range(5):
            op, _ = generate_instance(10, 3, 1.0, 2.0, seed=seed)
            n = 10
            direct = solve_exact(op, orthant(n)).x
            layout = polyhedron_to_cone(
                PolyhedralVI(op.M, op.q, np.eye(n), np.zeros(n)))
            plcp = build_projective(
                layout.op, orthonormalize(np.eye(layout.cone.dim)), 1.0)
            rep = solve_ipm(plcp, layout.cone, IpmConfig(tol=1e-12))
            assert rep.converged
            s = layout.extract("s", rep.x)
            x = layout.extract("x", rep.x)
            lam = layout.extract("lambda", rep.x)
            scale = 1 + np.linalg.norm(direct)
            assert np.linalg.norm(x - direct) <= 1e-6 * scale
            np.testing.assert_allclose(s, x, atol=1e-8 * scale)  # A = I, b = 0
            assert np.all(s >= -1e-8) and np.all(lam >= -1e-8)
            assert abs(s @ lam) <= 1e-8 * (1 + np.linalg.norm(s) * np.linalg.norm(lam))


class TestBlockOperator:
    """polyhedron_to_cone's operator keeps M, A and equality rows on x as
    blocks, and writes the dense matrix only when .M is read."""

    @staticmethod
    def problem(n, m, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, n))
        return PolyhedralVI(G - 0.5 * G.T, rng.standard_normal(n), rng.standard_normal((m, n)),
                            rng.standard_normal(m)), rng

    @staticmethod
    def solvable(vi, E, rng):
        """A VI with vi's A and the rows E x = e whose solution solve_ipm
        finds and which is unique for these shapes: M = I plus vi.M's skew
        part, and a planted KKT point with about half of A's rows active."""
        m, n = vi.A.shape
        M = np.eye(n) + (vi.M - vi.M.T)
        x, nu = rng.standard_normal(n), rng.standard_normal(len(E))
        active = rng.random(m) < 0.5
        lam = np.where(active, rng.uniform(0.1, 1.0, m), 0.0)
        b = np.where(active, 0.0, rng.uniform(0.1, 1.0, m)) - vi.A @ x
        return PolyhedralVI(M, vi.A.T @ lam + E.T @ nu - M @ x, vi.A, b), E @ x

    @pytest.mark.parametrize("n, m, p, form", [
        *(pytest.param(n, m, p, "one_call", id=f"{n}-{m}-{p}")
          for n, m, p in ((6, 6, 0), (7, 3, 2), (3, 8, 4), (4, 2, 1))),
        *((n, m, p, form) for n, m, p in ((7, 3, 2), (8, 5, 3)) for form in ("negated", "split")),
    ])
    def test_matches_the_dense_operator(self, n, m, p, form):
        # the same F, beta and .M (in value: the dense assembly writes -0.0
        # where -E^T has a +0.0) from the blocks, also after eliminate_equalities
        # with rows on the x block, in one call, negated or over two calls
        vi, rng = self.problem(n, m, seed=90 + n + m + p)
        layout = polyhedron_to_cone(vi)
        got, ref, cone = layout.op, dense_reduction(vi), layout.cone
        rows = {"one_call": (1.0, 1), "negated": (-1.0, 1), "split": (1.0, 2)}[form]
        if p:
            E, e = rng.standard_normal((p, n)), rng.standard_normal(p)
            (got, cone), (ref, ref_cone) = (equality_rows(op, cone, m, E, e, *rows)
                                            for op in (got, ref))
            assert cone == ref_cone
        assert isinstance(got, _PolyhedralOperator) and type(ref) is AffineOperator
        assert got.dim == ref.dim == 2 * m + n + p
        u = rng.standard_normal(got.dim)
        np.testing.assert_allclose(got(u), ref(u), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(got @ u, ref.M @ u, rtol=1e-14, atol=1e-14)
        assert got.beta == ref.beta <= 0.0
        plcp = build_projective(got, orthonormalize(np.eye(got.dim)))
        assert plcp is got and verify_pd(plcp) == got.beta
        assert "M" not in vars(got)
        np.testing.assert_array_equal(got.M, ref.M)
        if not p:
            assert got.M.tobytes() == ref.M.tobytes()
        assert got.q.tobytes() == ref.q.tobytes()
        if form != "one_call":
            # the same solution as the rows E x = e in one call, up to the
            # sign of the multipliers of negated rows
            vi, e = self.solvable(vi, E, rng)
            one = solve_ipm(*reduction(vi.M, vi.q, vi.A, vi.b, E, e))
            rep = solve_ipm(*reduction(vi.M, vi.q, vi.A, vi.b, E, e, *rows))
            assert one.converged and rep.converged
            rep.x[2 * m + n:] *= rows[0]
            assert np.abs(rep.x - one.x).max() <= 1e-10

    @pytest.mark.parametrize("diag", [[2.0, 1.0, 3.0], [2.0, -1.5, 3.0]])
    def test_beta_of_an_uncoupled_m(self, diag):
        # a diagonal M: its entries and the zeros of s and lambda, exactly
        vi = PolyhedralVI(np.diag(diag), np.zeros(3), np.ones((2, 3)), np.zeros(2))
        op = polyhedron_to_cone(vi).op
        assert op.beta == min(0.0, min(diag)) == monotone_modulus(dense_reduction(vi).M)

    def test_rows_off_the_x_block_are_assembled_densely(self):
        # a nonzero in an s or mu column: the dense assembly, as for any
        # operator; a zero of either sign there, also in rows added to rows
        # already kept, keeps the blocks. .M is the dense one in value
        vi, rng = self.problem(4, 3, seed=97)
        layout = polyhedron_to_cone(vi)
        E = np.zeros((2, 10))
        E[:, 3:7] = rng.standard_normal((2, 4))
        kept = eliminate_equalities(layout.op, E, np.zeros(2), layout.cone)
        assert isinstance(kept.op, _PolyhedralOperator)
        for col, value, base, route in ((0, 1.0, layout, AffineOperator),
                                        (11, 1.0, kept, AffineOperator),
                                        (8, -0.0, layout, _PolyhedralOperator),
                                        (11, 0.0, kept, _PolyhedralOperator)):
            F = np.zeros((1, base.cone.dim))
            F[0, 3:7] = 1.0
            F[0, col] = value
            got = eliminate_equalities(base.op, F, [1.0], base.cone)
            ref = eliminate_equalities(AffineOperator(base.op.M, base.op.q), F, [1.0], base.cone)
            assert type(got.op) is route
            np.testing.assert_array_equal(got.op.M, ref.op.M)


class TestValidation:
    def test_polyhedral_vi_shape_checks(self):
        with pytest.raises(ValueError):
            PolyhedralVI(np.eye(2), np.zeros(3), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            PolyhedralVI(np.eye(2), np.zeros(2), np.ones((1, 3)), np.zeros(1))

    @pytest.mark.parametrize("field", ["M", "q", "A", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_polyhedral_vi_names_a_nonfinite_input(self, field, value):
        # checked where each input enters, not as the assembled operator
        arrays = {"M": np.eye(2), "q": np.zeros(2), "A": np.ones((3, 2)), "b": np.zeros(3)}
        arrays[field].flat[-1] = value
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries$"):
            PolyhedralVI(**arrays)

    @pytest.mark.parametrize("field", ["A", "b"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_eliminate_equalities_names_a_nonfinite_input(self, field, value):
        arrays = {"A": np.ones((1, 2)), "b": np.zeros(1)}
        arrays[field].flat[-1] = value
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries$"):
            eliminate_equalities(AffineOperator(np.eye(2), np.zeros(2)), arrays["A"],
                                 arrays["b"], orthant(2))

    def test_contraction_solvers_refuse_transformed_problems(self):
        from conevi.operators import NotStronglyMonotone
        from conevi.solvers import SolveConfig

        op, _ = generate_instance(6, 2, 1.0, 2.0, seed=65)
        layout = polyhedron_to_cone(
            PolyhedralVI(op.M, op.q, np.eye(6), np.zeros(6)))
        with pytest.raises(NotStronglyMonotone):
            solve_exact(layout.op, layout.cone)
        # an explicit step size runs, without any convergence guarantee
        rep = solve_exact(layout.op, layout.cone,
                          SolveConfig(alpha_override=0.1, max_iter=50))
        assert rep.gamma >= 1.0
