import math

import numpy as np
import pytest
import scipy.sparse.linalg

from conevi.bench import _bench_instance
from conevi.operators import (
    AffineOperator,
    CallableOperator,
    NotStronglyMonotone,
    contraction_params,
    iteration_bound,
    lipschitz_constant,
    monotone_modulus,
)


def sym_eig_2x2(S):
    """Oracle: eigenvalues of a symmetric 2x2 via the quadratic formula."""
    tr = S[0][0] + S[1][1]
    det = S[0][0] * S[1][1] - S[0][1] * S[1][0]
    disc = math.sqrt(tr * tr - 4 * det)
    return (tr - disc) / 2, (tr + disc) / 2


def random_spd_plus_skew(n, rng, beta=1.0, skew=1.0):
    G = rng.standard_normal((n, n))
    A = G.T @ G / n
    S = rng.standard_normal((n, n))
    return beta * np.eye(n) + A + skew * 0.5 * (S - S.T)


class TestApply:
    def test_identity_shift(self):
        op = AffineOperator(np.eye(2), [1.0, -1.0])
        np.testing.assert_array_equal(op([0.0, 0.0]), [1.0, -1.0])

    def test_zero_matrix_is_constant(self):
        op = AffineOperator(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(op([9.0, -9.0, 0.5]), [1.0, 2.0, 3.0])

    def test_rotation(self):
        op = AffineOperator([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
        np.testing.assert_array_equal(op([1.0, 0.0]), [0.0, 1.0])

    def test_dimension_mismatch(self):
        op = AffineOperator(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            op([1.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AffineOperator([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0])


class TestMonotoneModulus:
    def test_diagonal(self):
        assert monotone_modulus(np.diag([1.0, 3.0])) == pytest.approx(1.0, abs=1e-12)

    def test_skew_has_zero_modulus(self):
        assert monotone_modulus([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_nonnormal_matches_2x2_oracle(self):
        # symmetric part of [[1,2],[0,1]] is [[1,1],[1,1]]: eigenvalues {0, 2}
        lo, hi = sym_eig_2x2([[1.0, 1.0], [1.0, 1.0]])
        assert (lo, hi) == pytest.approx((0.0, 2.0), abs=1e-14)
        assert monotone_modulus([[1.0, 2.0], [0.0, 1.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_definition_inequality(self):
        rng = np.random.default_rng(11)
        M = random_spd_plus_skew(30, rng)
        beta = monotone_modulus(M)
        for _ in range(100):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            lhs = (x - y) @ (M @ (x - y))
            assert lhs >= beta * np.linalg.norm(x - y) ** 2 - 1e-10

    def test_crowded_bottom_edge_at_large_n(self):
        # the symmetric part is exactly diag(d) with min d = 0.5 and many
        # eigenvalues just above it, where iterative estimators stall short
        n = 2500
        rng = np.random.default_rng(16)
        d = 0.5 + rng.uniform(0.0, 1.0, n) ** 3
        d[rng.integers(n)] = 0.5
        K = rng.standard_normal((n, n))
        M = np.diag(d) + 0.1 * (K - K.T)
        assert monotone_modulus(M) == pytest.approx(0.5, abs=n * np.finfo(float).eps)


class TestLipschitzConstant:
    def test_diagonal(self):
        assert lipschitz_constant(np.diag([1.0, 3.0])) == pytest.approx(3.0, rel=1e-10)

    def test_identity(self):
        assert lipschitz_constant(np.eye(4)) == pytest.approx(1.0, rel=1e-10)

    def test_shear_matches_svd_oracle(self):
        # M^T M = [[1,2],[2,5]]: eigenvalues 3 +- 2*sqrt(2), so the top
        # singular value is sqrt(3 + 2*sqrt(2)) = 1 + sqrt(2)
        M = [[1.0, 2.0], [0.0, 1.0]]
        _, hi = sym_eig_2x2([[1.0, 2.0], [2.0, 5.0]])
        oracle = math.sqrt(hi)
        assert oracle == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)
        assert oracle == pytest.approx(np.linalg.svd(np.asarray(M), compute_uv=False)[0], rel=1e-13)
        got = lipschitz_constant(M)
        assert got == pytest.approx(2.414213562373095, rel=1e-10)
        assert got >= oracle * (1 - 1e-12)

    def test_upper_bounds_random_directions(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((40, 40))
        L = lipschitz_constant(M)
        for _ in range(1000):
            x = rng.standard_normal(40)
            x /= np.linalg.norm(x)
            assert np.linalg.norm(M @ x) <= L * (1 + 1e-10)

    def test_upper_bounds_svds_witness_on_bench_instance(self):
        # I + c*S with S skew: the singular values of M crowd at the top, where
        # an iterative estimate of ||M|| stalls below it
        op, _, _ = _bench_instance(3000, 10, 0)
        n = op.dim
        _, _, vt = scipy.sparse.linalg.svds(op.M, k=1, random_state=0)
        v = vt[0]
        witness = np.linalg.norm(op.M @ v) / np.linalg.norm(v)
        assert lipschitz_constant(op.M) >= witness * (1 - n * np.finfo(float).eps)


class TestContractionParams:
    def test_scaled_identity(self):
        p = contraction_params(2.0 * np.eye(3))
        assert p.beta == pytest.approx(2.0, rel=1e-12)
        assert p.lipschitz == pytest.approx(2.0, rel=1e-12)
        assert p.alpha == pytest.approx(0.5, rel=1e-10)
        assert p.gamma == pytest.approx(0.0, abs=1e-7)

    def test_paper_step_rule_on_diag(self):
        p = contraction_params(np.diag([1.0, 2.0]))
        assert p.beta == pytest.approx(1.0, rel=1e-12)
        assert p.lipschitz == pytest.approx(2.0, rel=1e-10)
        assert p.alpha == pytest.approx(0.25, rel=1e-9)
        assert p.gamma == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-9)

    def test_skew_rejected(self):
        with pytest.raises(NotStronglyMonotone) as exc:
            contraction_params([[0.0, -1.0], [1.0, 0.0]])
        assert exc.value.beta == pytest.approx(0.0, abs=1e-12)

    def test_contraction_law_holds(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            M = random_spd_plus_skew(50, rng)
            p = contraction_params(M)
            T = np.eye(50) - p.alpha * M
            for _ in range(100):
                x = rng.standard_normal(50)
                y = rng.standard_normal(50)
                assert np.linalg.norm(T @ (x - y)) <= p.gamma * np.linalg.norm(x - y) + 1e-12

    def test_scale_consistency(self):
        rng = np.random.default_rng(14)
        M = random_spd_plus_skew(20, rng)
        base = contraction_params(M)
        for c in (2.0, 0.5, 3.7):
            scaled = contraction_params(c * M)
            assert scaled.beta == pytest.approx(c * base.beta, rel=1e-12)
            assert scaled.lipschitz == pytest.approx(c * base.lipschitz, rel=1e-12)
            assert scaled.alpha == pytest.approx(base.alpha / c, rel=1e-12)
            assert scaled.gamma == pytest.approx(base.gamma, rel=1e-12)


class TestIterationBound:
    def test_one_halving(self):
        assert iteration_bound(0.5, 0.5) == 1

    def test_frozen_log_ratio(self):
        # oracle: ceil(ln(1e-6)/ln(0.9)) = ceil(131.13...) = 132
        assert math.ceil(math.log(1e-6) / math.log(0.9)) == 132
        assert iteration_bound(0.9, 1e-6) == 132

    def test_two_halvings(self):
        assert iteration_bound(0.5, 0.25) == 2

    def test_rejects_out_of_range(self):
        for gamma, eps in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)):
            with pytest.raises(ValueError):
                iteration_bound(gamma, eps)


class TestCallableOperator:
    def test_declared_params(self):
        op = CallableOperator(lambda x: 2.0 * x, dim=3, beta=2.0, lipschitz=2.0)
        np.testing.assert_array_equal(op(np.ones(3)), 2.0 * np.ones(3))
        assert op.contraction().alpha == pytest.approx(0.5)

    def test_rejects_inconsistent_declaration(self):
        with pytest.raises(ValueError):
            CallableOperator(lambda x: x, dim=2, beta=2.0, lipschitz=1.0)
        with pytest.raises(ValueError):
            CallableOperator(lambda x: x, dim=2, beta=-1.0, lipschitz=1.0)
