import numpy as np
import pytest

import conevi.basis
from conevi.basis import EmptyBasis, orthonormalize
from conevi.cones import orthant
from conevi.solvers import project_intersection


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
        with pytest.raises(EmptyBasis):
            orthonormalize(np.zeros((3, 2)))

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

    def test_wide_matrix_rank_capped_by_dimension(self):
        rng = np.random.default_rng(26)
        raw = rng.standard_normal((3, 7))
        b = orthonormalize(raw)
        assert b.rank == 3
        z = rng.standard_normal(3)
        np.testing.assert_allclose(b.project_span(z), z, atol=1e-12)


class TestProjection:
    def test_axis_projection(self):
        b = orthonormalize(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(b.project_span([3.0, 4.0]), [3.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(b.null_residual([3.0, 4.0]), [0.0, 4.0], atol=1e-14)
        assert b.representation_error([3.0, 4.0]) == pytest.approx(4.0, rel=1e-14)

    def test_identity_basis_is_noop(self):
        b = orthonormalize(np.eye(5))
        z = np.arange(5.0) - 2.0
        np.testing.assert_allclose(b.project_span(z), z, atol=1e-13)
        assert b.representation_error(z) == pytest.approx(0.0, abs=1e-13)

    def test_in_span_fixed(self):
        rng = np.random.default_rng(22)
        b = orthonormalize(rng.standard_normal((10, 3)))
        z = b.raw @ rng.standard_normal(3)
        np.testing.assert_allclose(b.project_span(z), z, atol=1e-12 * (1 + np.linalg.norm(z)))
        np.testing.assert_allclose(b.null_residual(z), np.zeros(10), atol=1e-12)

    def test_dimension_mismatch(self):
        b = orthonormalize(np.eye(3))
        with pytest.raises(ValueError):
            b.project_span([1.0, 2.0])

    def test_idempotent_and_orthogonal_decomposition(self):
        rng = np.random.default_rng(23)
        b = orthonormalize(rng.standard_normal((20, 7)))
        for _ in range(50):
            z = 10.0 * rng.standard_normal(20)
            pz = b.project_span(z)
            np.testing.assert_allclose(b.project_span(pz), pz, atol=1e-12)
            resid = b.null_residual(z)
            assert abs(pz @ resid) <= 1e-10 * np.linalg.norm(z) ** 2
            np.testing.assert_allclose(pz + resid, z, atol=1e-12 * (1 + np.linalg.norm(z)))
            assert b.representation_error(z) <= np.linalg.norm(z) * (1 + 1e-15)

    def test_best_approximation_in_span(self):
        rng = np.random.default_rng(24)
        b = orthonormalize(rng.standard_normal((12, 4)))
        z = rng.standard_normal(12)
        err = b.representation_error(z)
        for _ in range(100):
            w = b.raw @ rng.standard_normal(4)
            assert err <= np.linalg.norm(z - w) + 1e-10

    def test_span_error_no_larger_than_intersection_error(self):
        # span(Phi) contains C & span(Phi), so projecting onto the larger
        # set can only reduce the distance
        rng = np.random.default_rng(25)
        cone = orthant(12)
        for _ in range(10):
            b = orthonormalize(rng.standard_normal((12, 4)))
            z = 3.0 * rng.standard_normal(12)
            pc = project_intersection(cone, b, z)
            assert b.representation_error(z) <= np.linalg.norm(pc - z) + 1e-10
