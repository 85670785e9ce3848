import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from conevi import operators
from conevi.bench import _bench_instance
from conevi.operators import (
    AffineOperator,
    CallableOperator,
    NotStronglyMonotone,
    iteration_bound,
    lipschitz_constant,
    monotone_modulus,
)
from conevi.transforms import PolyhedralVI, polyhedron_to_cone


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

    def test_bit_identical_to_symmetric_part_and_m_untouched(self):
        rng = np.random.default_rng(17)
        # 257 and 600 are not multiples of the tile of the transposed add
        for n in (1, 2, 7, 60, 257, 600):
            M = rng.standard_normal((n, n))
            op = AffineOperator(M, np.zeros(n))
            before = op.M.copy()
            assert operators._transpose_sum(M).tobytes() == (M + M.T).tobytes()
            oracle = scipy.linalg.eigvalsh(0.5 * (M + M.T), subset_by_index=[0, 0])[0]
            assert op.beta == oracle
            np.testing.assert_array_equal(op.M, before)


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The order of every matrix handed to scipy.linalg.eigvalsh."""
    sizes = []
    real = scipy.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", counted)
    return sizes


def scattered_blocks(sizes, rng, gap=0.0):
    """M whose symmetric part is exactly symmetric blocks of the given sizes,
    scattered by a random permutation, plus a skew part off the blocks.

    Returns M and, per block, its coordinates in increasing order. gap is
    added to the diagonal of every block but the first.
    """
    n = sum(sizes)
    perm = rng.permutation(n)
    S = np.zeros((n, n))
    blocks, start = [], 0
    for b, size in enumerate(sizes):
        G = rng.standard_normal((size, size))
        idx = perm[start:start + size]
        S[np.ix_(idx, idx)] = 0.5 * (G + G.T) + (gap if b else 0.0) * np.eye(size)
        blocks.append(np.sort(idx))
        start += size
    K = rng.standard_normal((n, n))
    skew = K - K.T  # exactly skew: fl(a - b) = -fl(b - a)
    skew[S != 0.0] = 0.0  # so fl(s + k) + fl(s - k) never rounds
    np.fill_diagonal(skew, 0.0)
    return S + skew, blocks


class TestBlockModulus:
    def test_diagonal_plus_skew_needs_no_eigensolve(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("dense eigensolve on an uncoupled symmetric part")

        monkeypatch.setattr(scipy.linalg, "eigvalsh", refused)
        rng = np.random.default_rng(71)
        d = rng.uniform(-2.0, 3.0, 200)
        K = rng.standard_normal((200, 200))
        assert monotone_modulus(np.diag(d) + (K - K.T)) == d.min()

    @pytest.mark.parametrize("lowest", range(4))
    def test_scattered_blocks_one_eigensolve(self, lowest, eigvalsh_sizes):
        sizes = [1, 3, 5, 40]
        sizes.insert(0, sizes.pop(lowest))  # the first block holds beta
        M, blocks = scattered_blocks(sizes, np.random.default_rng(72 + lowest), gap=8.0)
        S = 0.5 * (M + M.T)
        coupled = np.sort(np.concatenate([b for b in blocks if b.size > 1]))
        (single,) = [b for b in blocks if b.size == 1]
        expected = min(S[single[0], single[0]],
                       scipy.linalg.eigvalsh(S[np.ix_(coupled, coupled)], subset_by_index=[0, 0])[0])
        del eigvalsh_sizes[:]
        beta = monotone_modulus(M)
        assert beta == expected
        assert eigvalsh_sizes == [coupled.size]
        assert beta == pytest.approx(scipy.linalg.eigvalsh(S)[0], abs=1e-12)

    def test_one_symmetric_pair_couples_two_coordinates(self, eigvalsh_sizes):
        rng = np.random.default_rng(73)
        n = 12
        d = rng.uniform(1.0, 2.0, n)
        K = rng.standard_normal((n, n))
        M = np.diag(d) + (K - K.T)
        i, j = 2, 9
        M[i, j] = M[j, i] = 0.75  # symmetric, so the skew part there is gone
        pair = [i, j]
        S = 0.5 * (M + M.T)
        expected = scipy.linalg.eigvalsh(S[np.ix_(pair, pair)], subset_by_index=[0, 0])[0]
        del eigvalsh_sizes[:]
        beta = monotone_modulus(M)
        assert beta == min(expected, np.delete(d, pair).min())
        assert eigvalsh_sizes == [2]
        assert beta == pytest.approx(scipy.linalg.eigvalsh(S)[0], abs=1e-12)

    @pytest.mark.parametrize("shift", [1.0, -1.0])
    def test_polyhedral_reduction(self, shift, eigvalsh_sizes):
        from conevi.transforms import PolyhedralVI, polyhedron_to_cone

        rng = np.random.default_rng(74)
        n, m = 12, 7
        G = rng.standard_normal((n, n))
        M = shift * np.eye(n) + 0.1 * (G + G.T) + (G - G.T)
        layout = polyhedron_to_cone(PolyhedralVI(M, rng.standard_normal(n),
                                                 rng.standard_normal((m, n)), np.zeros(m)))
        sym = scipy.linalg.eigvalsh(0.5 * (M + M.T), subset_by_index=[0, 0])[0]
        del eigvalsh_sizes[:]
        assert layout.op.beta == min(0.0, sym)
        assert eigvalsh_sizes == [n]

    def test_zero_matrix(self):
        assert monotone_modulus(np.zeros((5, 5))) == 0.0

    def test_connected_pattern_keeps_the_dense_eigensolve(self, eigvalsh_sizes):
        # a path couples every coordinate though most pairs are zero
        n = 30
        M = np.diag(np.linspace(1.0, 2.0, n)) + np.diag(np.full(n - 1, 0.4), k=1)
        S = 0.5 * (M + M.T)
        expected = scipy.linalg.eigvalsh(S, subset_by_index=[0, 0])[0]
        del eigvalsh_sizes[:]
        assert monotone_modulus(M) == expected
        assert eigvalsh_sizes == [n]


class TestExtremeModulus:
    @pytest.mark.parametrize("M", [1e308 * np.diag([1.5, 1.0]),
                                   [[1e308, 1.7e308], [-1.7e308, 1e308]]])
    def test_entries_near_the_largest_double(self, M):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert monotone_modulus(M) == 1e308

    @pytest.mark.parametrize("scale", [1e308, 1e200, 1e-300])
    def test_coupled_extremes_match_the_scaled_matrix(self, scale):
        M = scale * np.array([[1.5, 0.6], [0.2, -0.25]])
        shift = -math.frexp(1.5 * scale)[1]  # brings the largest entry into [1/2, 1)
        A = np.ldexp(M, shift)
        S = 0.5 * (A + A.T)
        expected = math.ldexp(scipy.linalg.eigvalsh(S, subset_by_index=[0, 0])[0], -shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert monotone_modulus(M) == expected

    def test_below_the_largest_double_is_minus_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert monotone_modulus(np.full((2, 2), -1.5e308)) == -math.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_entries_raise_without_warnings(bad):
    M = np.eye(3)
    M[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (monotone_modulus, lipschitz_constant):
            with pytest.raises(ValueError, match="non-finite"):
                f(M)
        with pytest.raises(ValueError, match="non-finite"):
            AffineOperator(M, np.zeros(3))


def test_operator_constants_go_through_the_public_functions(monkeypatch):
    # the traced benchmark times beta and L by wrapping these module attributes
    calls = []
    for name in ("monotone_modulus", "lipschitz_constant"):
        real = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda M, real=real, name=name: calls.append(name) or real(M))
    M = random_spd_plus_skew(20, np.random.default_rng(75))
    AffineOperator(M, np.zeros(20)).contraction()
    assert calls == ["monotone_modulus", "lipschitz_constant"]


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


def _certificate_cases():
    rng = np.random.default_rng(18)
    G = rng.standard_normal((50, 50))
    jordan = 2.0 * np.eye(40) + np.eye(40, k=1)
    return {
        "random": rng.standard_normal((60, 60)),
        "rank_deficient": rng.standard_normal((70, 3)) @ rng.standard_normal((3, 70)),
        "psd": G.T @ G,
        "jordan_block": jordan,
        "skew_saddle": _bench_instance(400, 10, 0)[0].M,
    }


@pytest.fixture
def potrf_infos(monkeypatch):
    """The info code of every Cholesky attempt the certificate makes."""
    infos = []
    real = operators.dpotrf

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        infos.append(out[1])
        return out

    monkeypatch.setattr(operators, "dpotrf", counted)
    return infos


class TestCertifiedLipschitz:
    @pytest.mark.parametrize("name", sorted(_certificate_cases()))
    def test_upper_bounds_top_singular_value(self, name):
        M = _certificate_cases()[name]
        assert lipschitz_constant(M) >= scipy.linalg.svdvals(M)[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_within_1e12_of_svd_for_small_n(self, n):
        rng = np.random.default_rng(19 + n)
        for M in (rng.standard_normal((n, n)), random_spd_plus_skew(n, rng)):
            sigma = np.linalg.svd(M, compute_uv=False)[0]
            L = lipschitz_constant(M)
            assert sigma <= L <= sigma * (1 + 1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_extreme_scales_match_svd(self, scale):
        M = scale * np.array([[2.0, 1.0], [0.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = lipschitz_constant(M)
        sigma = np.linalg.svd(M, compute_uv=False)[0]
        assert sigma <= L <= sigma * (1 + 1e-12)

    def test_zero_matrix(self):
        assert lipschitz_constant(np.zeros((4, 4))) == 0.0

    def test_deterministic(self):
        M = _bench_instance(300, 10, 1)[0].M
        assert lipschitz_constant(M) == lipschitz_constant(M)

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_low_estimate_is_moved_up_until_it_certifies(self, fraction, potrf_infos):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((30, 30))
        sigma = scipy.linalg.svdvals(A)[0]
        L = operators._certified_norm(A, operators._neg_gram(A), (fraction * sigma) ** 2)
        assert len(potrf_infos) > 1 and potrf_infos[-1] == 0 and all(potrf_infos[:-1])
        assert L >= sigma

    def test_frobenius_bound_ends_the_loop(self, potrf_infos):
        # rank one: ||A||_2 = ||A||_F, so the headroom steps past the narrow
        # window where s I - A^T A is definite but s is below the Frobenius bound
        A = np.outer(np.arange(1.0, 21.0), np.linspace(-1.0, 2.0, 20))
        sigma = np.linalg.norm(A)
        L = operators._certified_norm(A, operators._neg_gram(A), 0.0)
        assert potrf_infos and all(potrf_infos)
        assert sigma <= L <= sigma * math.sqrt(1.02)

    def test_lanczos_without_convergence_still_certifies(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array([]), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        M = np.random.default_rng(21).standard_normal((300, 300))
        assert lipschitz_constant(M) >= scipy.linalg.svdvals(M)[0]


def contraction_of(M):
    """Operator.contraction() of F(x) = Mx."""
    M = np.asarray(M, dtype=float)
    return AffineOperator(M, np.zeros(M.shape[0])).contraction()


class TestContractionParams:
    def test_scaled_identity(self):
        p = contraction_of(2.0 * np.eye(3))
        assert p.beta == pytest.approx(2.0, rel=1e-12)
        assert p.lipschitz == pytest.approx(2.0, rel=1e-12)
        assert p.alpha == pytest.approx(0.5, rel=1e-10)
        assert p.gamma == pytest.approx(0.0, abs=1e-7)

    def test_paper_step_rule_on_diag(self):
        p = contraction_of(np.diag([1.0, 2.0]))
        assert p.beta == pytest.approx(1.0, rel=1e-12)
        assert p.lipschitz == pytest.approx(2.0, rel=1e-10)
        assert p.alpha == pytest.approx(0.25, rel=1e-9)
        assert p.gamma == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-9)

    def test_skew_rejected(self):
        with pytest.raises(NotStronglyMonotone) as exc:
            contraction_of([[0.0, -1.0], [1.0, 0.0]])
        assert exc.value.beta == pytest.approx(0.0, abs=1e-12)

    def test_refused_before_lipschitz_is_read(self, monkeypatch):
        # beta <= 0 is refused before L is computed: a skew operator (beta = 0)
        # and a polyhedral reduction, whose dense .M is then never built
        def no_lipschitz(M):
            raise AssertionError("L computed for a refused operator")

        monkeypatch.setattr(operators, "lipschitz_constant", no_lipschitz)
        rng = np.random.default_rng(15)
        skew = AffineOperator([[0.0, -1.0], [1.0, 0.0]], np.zeros(2))
        reduction = polyhedron_to_cone(PolyhedralVI(np.eye(3), np.zeros(3),
                                                    rng.standard_normal((4, 3)), np.ones(4))).op
        for op in (skew, reduction):
            with pytest.raises(NotStronglyMonotone):
                op.contraction()
        assert "M" not in vars(reduction)

    def test_contraction_law_holds(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            M = random_spd_plus_skew(50, rng)
            p = contraction_of(M)
            T = np.eye(50) - p.alpha * M
            for _ in range(100):
                x = rng.standard_normal(50)
                y = rng.standard_normal(50)
                assert np.linalg.norm(T @ (x - y)) <= p.gamma * np.linalg.norm(x - y) + 1e-12

    def test_scale_consistency(self):
        rng = np.random.default_rng(14)
        M = random_spd_plus_skew(20, rng)
        base = contraction_of(M)
        for c in (2.0, 0.5, 3.7):
            scaled = contraction_of(c * M)
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
