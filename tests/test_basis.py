import numpy as np
import pytest
import scipy.linalg

import conevi.basis
from conevi.basis import Basis, EmptyBasis, orthonormalize


class TestOrthonormalize:
    def test_single_axis(self):
        b = orthonormalize(np.array([[1.0], [0.0]]))
        assert b.rank == 1
        np.testing.assert_allclose(np.abs(b.ortho), [[1.0], [0.0]], atol=1e-15)

    def test_duplicate_column_dropped(self):
        b = orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert b.rank == 1
        np.testing.assert_allclose(np.abs(b.ortho), [[1.0], [0.0]], atol=1e-12)

    def test_gram_schmidt_oracle(self):
        # hand Gram-Schmidt of (1,1,0), (0,1,1): u1 = (1,1,0)/sqrt(2),
        # u2 = ((0,1,1) - u1/sqrt(2)*...) -> (-1,1,2)/sqrt(6); only the span matters
        raw = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        b = orthonormalize(raw)
        assert b.rank == 2
        np.testing.assert_allclose(b.ortho.T @ b.ortho, np.eye(2), atol=1e-12)
        u1 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        u2 = np.array([-1.0, 1.0, 2.0]) / np.sqrt(6.0)
        for u in (u1, u2):
            np.testing.assert_allclose(b.project_span(u), u, atol=1e-12)

    def test_all_zero_rejected(self):
        for zero in (0.0, -0.0):
            with pytest.raises(EmptyBasis):
                orthonormalize(np.full((3, 2), zero))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        # also where the rest of the basis is zero, or as its largest entry
        for rest in (0.0, 1.0, -1e300):
            raw = np.full((3, 2), rest)
            raw[1, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                orthonormalize(raw)

    def test_span_preserved_within_drop_tol(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            raw = rng.standard_normal((15, 6))
            raw[:, 3] = 2.0 * raw[:, 0] - raw[:, 1]  # force rank deficiency
            b = orthonormalize(raw)
            resid = np.linalg.norm(raw - b.ortho @ (b.ortho.T @ raw))
            assert resid <= conevi.basis.DROP_TOL * np.linalg.norm(raw)
            np.testing.assert_allclose(b.ortho.T @ b.ortho, np.eye(b.rank), atol=1e-12)

    def test_rank_deficient_reduced_not_rejected(self):
        raw = np.ones((4, 3))
        b = orthonormalize(raw)
        assert b.rank == 1

    def test_smallest_rank_within_drop_tol(self):
        # ten unit columns and 1.5e-10 e_11: dropping the last column leaves
        # 4.7e-11 of the norm although its pivot is above DROP_TOL, so the rank
        # is 10; e_1 and 29 columns 6e-11 e_j keep 28 columns
        for raw, rank in ((np.diag([1.0] * 10 + [1.5e-10]), 10),
                          (np.diag([1.0] + [6e-11] * 29), 28)):
            b = orthonormalize(raw)
            assert b.rank == rank
            bound = conevi.basis.DROP_TOL * np.linalg.norm(raw)
            for r, within in ((rank, True), (rank - 1, False)):
                Q = b.ortho[:, :r]
                assert (np.linalg.norm(raw - Q @ (Q.T @ raw)) <= bound) == within

    def test_extreme_scales(self):
        # squares of 1e200 overflow and squares of 1e-200 underflow unless scaled
        for scale in (1e200, 1e-200):
            assert orthonormalize(scale * np.eye(3)).rank == 3
            assert orthonormalize(scale * np.array([[1.0, 1.0], [0.0, 1e-12]])).rank == 1

    def test_wide_matrix_rank_capped_by_dimension(self):
        rng = np.random.default_rng(26)
        raw = rng.standard_normal((3, 7))
        b = orthonormalize(raw)
        assert b.rank == 3
        z = rng.standard_normal(3)
        np.testing.assert_allclose(b.project_span(z), z, atol=1e-12)


def pivoted_qr(raw):
    """Reference: the factor of the pivoted QR under the rank rule, written out."""
    Q, R, _ = scipy.linalg.qr(raw, mode="economic", pivoting=True)
    R = R / abs(R[0, 0])
    residual = np.cumsum(np.sum(R * R, axis=1)[::-1])[::-1]
    return Q[:, :int(np.sum(residual > conevi.basis.DROP_TOL**2 * residual[0]))]


def disjoint_support_cases():
    """Raw bases with at most one nonzero per row."""
    rng = np.random.default_rng(27)
    yield np.eye(7)
    perm = rng.permutation(9)
    signed = rng.choice([-1.0, 1.0], 9) * 10.0 ** rng.uniform(-3, 3, 9)
    yield np.diag(signed)[perm]
    # 0/1 aggregation: 40 states in 6 of 8 groups, so two columns are zero,
    # and every fifth state in no group, so its row is zero
    agg = np.zeros((40, 8))
    agg[np.arange(40), rng.integers(0, 6, 40)] = 1.0
    agg[::5] = 0.0
    yield agg
    # a column of relative norm 1e-11 is dropped and one of 1e-9 kept; each
    # comes first so that the kept columns' order shows
    for rel in (1e-11, 1e-9):
        small = np.eye(6)
        small[0, 0] = rel * np.sqrt(5.0)
        yield small
    for scale in (1e200, 1e-200):
        yield scale * agg
        yield scale * np.diag(signed)[perm]


class TestDisjointSupport:
    def test_matches_pivoted_qr(self, monkeypatch):
        cases = list(disjoint_support_cases())
        refs = [pivoted_qr(raw) for raw in cases]

        def no_qr(*args, **kwargs):
            raise AssertionError("a basis with one nonzero per row took the QR route")

        monkeypatch.setattr(scipy.linalg, "qr", no_qr)
        for raw, ref in zip(cases, refs):
            b = orthonormalize(raw)
            assert b.rank == ref.shape[1]
            np.testing.assert_allclose(b.ortho @ b.ortho.T, ref @ ref.T, rtol=0, atol=1e-15)
            np.testing.assert_allclose(b.ortho.T @ b.ortho, np.eye(b.rank), rtol=0, atol=1e-15)
            # the kept columns, each scaled to unit norm, in their input order;
            # in these cases they are those above DROP_TOL relative norm
            norms = np.linalg.norm(raw / np.abs(raw).max(), axis=0)
            kept = np.flatnonzero(norms > conevi.basis.DROP_TOL * np.linalg.norm(norms))
            np.testing.assert_allclose(b.ortho, raw[:, kept] / (np.abs(raw).max() * norms[kept]),
                                       rtol=1e-15, atol=0)

    def test_shared_row_or_dense_basis_keeps_the_qr_result(self):
        rng = np.random.default_rng(28)
        dense = rng.standard_normal((40, 6))
        dense[:, 3] = 2.0 * dense[:, 0] - dense[:, 1]
        shared = np.eye(5)
        shared[0, 1] = 0.5  # one row with two nonzeros
        for raw in (dense, shared):
            b = orthonormalize(raw)
            np.testing.assert_array_equal(b.ortho, pivoted_qr(raw))


    def test_factor_written_on_first_read(self):
        # the identity, a signed scaled permutation and a 0/1 aggregation of
        # rank 6 < 40: orthonormalize keeps only the support map, and the
        # first read of ortho writes the dense factor, bit for bit the
        # kept columns scaled to unit norm, read-only and written once
        rng = np.random.default_rng(29)
        perm = rng.permutation(9)
        signed = rng.choice([-1.0, 1.0], 9) * 10.0 ** rng.uniform(-3, 3, 9)
        agg = np.zeros((40, 8))
        agg[np.arange(40), rng.integers(0, 6, 40)] = 1.0
        agg[::5] = 0.0
        for raw, rank in ((np.eye(7), 7), (np.diag(signed)[perm], 9), (agg, 6)):
            b = orthonormalize(raw)
            assert "ortho" not in vars(b)
            assert (b.n, b.rank) == (raw.shape[0], rank)
            kept = raw[:, raw.any(axis=0)]
            eager = kept / np.sqrt((kept * kept).sum(axis=0))
            ortho = b.ortho
            assert ortho.shape == eager.shape and ortho.tobytes() == eager.tobytes()
            assert not ortho.flags.writeable
            assert b.ortho is ortho

    def test_support_maps_pinned(self):
        # (shape, rows, cols, vals) of the identity, a signed scaled
        # permutation and an aggregation with a zero row and a zero column;
        # -0.0 is a zero, alone in a row or beside its nonzero
        perm = np.zeros((3, 3))
        perm[[0, 1, 2], [2, 0, 1]] = [-2.0, 3.0, 0.5]
        agg = np.zeros((5, 3))
        agg[[0, 1, 2, 4], [0, 0, 2, 0]] = 1.0
        lone, beside = np.eye(3), np.eye(3)
        lone[1, 1] = -0.0
        beside[1, 0] = beside[2, 0] = -0.0
        third = 1 / np.sqrt(3.0)
        cases = [
            (np.eye(3), (3, 3), [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0]),
            (perm, (3, 3), [0, 1, 2], [2, 0, 1], [-1.0, 1.0, 1.0]),
            # a zero row is listed with 0 (its sign kept) when column 0 is kept
            (agg, (5, 2), [0, 1, 2, 3, 4], [0, 0, 1, 0, 0], [third, third, 1.0, 0.0, third]),
            (-agg, (5, 2), [0, 1, 2, 3, 4], [0, 0, 1, 0, 0],
             [-third, -third, -1.0, -0.0, -third]),
            (lone, (3, 2), [0, 1, 2], [0, 0, 1], [1.0, 0.0, 1.0]),
            (beside, (3, 3), [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0]),
        ]
        for raw, shape, rows, cols, vals in cases:
            support = orthonormalize(raw)._support
            assert support.shape == shape
            assert support.rows.tolist() == rows and support.cols.tolist() == cols
            assert support.vals.tobytes() == np.array(vals).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_alone_or_beside_a_nonzero(self, bad):
        # at every position: in place of a row's nonzero or in a zero row it
        # is alone, passes the one-nonzero test and is caught among the
        # picked values; beside a nonzero it sends the basis to the QR
        # route, whose full check catches it: the same error either way
        perm = np.eye(4)[[2, 0, 3, 1]]
        agg = np.zeros((5, 2))
        agg[[0, 1, 3], [0, 1, 0]] = 1.0  # rows 2 and 4 are zero
        for raw in (np.eye(4), perm, agg):
            for row, col in np.ndindex(raw.shape):
                bent = raw.copy()
                bent[row, col] = bad
                with pytest.raises(ValueError, match="^raw basis has non-finite entries$"):
                    orthonormalize(bent)

    def test_max_abs_reads_every_entry_only_on_the_qr_route(self, monkeypatch):
        # the one-nonzero test is made first; a basis that passes it has its
        # n picked values checked, and only one that fails it is scanned whole
        sizes = []
        max_abs = conevi.basis._max_abs

        def recorded(a):
            sizes.append(a.size)
            return max_abs(a)

        monkeypatch.setattr(conevi.basis, "_max_abs", recorded)
        for raw in disjoint_support_cases():
            sizes.clear()
            orthonormalize(raw)
            assert raw.size not in sizes and sizes
        dense = np.random.default_rng(30).standard_normal((40, 6))
        shared = np.eye(5)
        shared[0, 1] = 0.5
        for raw in (dense, shared):
            sizes.clear()
            orthonormalize(raw)
            assert sizes.count(raw.size) == 1

    def test_basis_takes_exactly_one_factor(self):
        support = orthonormalize(np.eye(3))._support
        with pytest.raises(TypeError):
            Basis()
        with pytest.raises(TypeError):
            Basis(np.eye(3), support=support)

