import numpy as np
import pytest

from conevi import operators
from conevi.generate import generate_instance
from conevi.operators import lipschitz_constant, monotone_modulus


class TestGenerateInstance:
    def test_hits_targets(self):
        op, basis = generate_instance(10, 3, beta_target=1.0, L_target=4.0, seed=0)
        assert monotone_modulus(op.M) >= 1.0 * (1 - 1e-6)
        assert abs(lipschitz_constant(op.M) - 4.0) <= 0.05 * 4.0
        assert basis.rank == 3

    def test_constants_computed_once(self, monkeypatch):
        # the target check reads the returned operator's beta and L, so its
        # contraction parameters need no second eigensolve or certificate
        op, _ = generate_instance(10, 3, beta_target=1.0, L_target=4.0, seed=0)

        def recomputed(M):
            raise AssertionError("beta or L computed again after generation")

        monkeypatch.setattr(operators, "monotone_modulus", recomputed)
        monkeypatch.setattr(operators, "lipschitz_constant", recomputed)
        p = op.contraction()
        assert p.beta >= 1.0 * (1 - 1e-6) and abs(p.lipschitz - 4.0) <= 0.05 * 4.0

    def test_same_seed_identical(self):
        a, _ = generate_instance(8, 2, 1.0, 3.0, seed=42)
        b, _ = generate_instance(8, 2, 1.0, 3.0, seed=42)
        np.testing.assert_array_equal(a.M, b.M)
        np.testing.assert_array_equal(a.q, b.q)

    def test_different_seed_differs(self):
        a, _ = generate_instance(8, 2, 1.0, 3.0, seed=1)
        b, _ = generate_instance(8, 2, 1.0, 3.0, seed=2)
        assert not np.array_equal(a.M, b.M)

    def test_full_rank_basis(self):
        _, basis = generate_instance(6, 6, 1.0, 2.0, seed=3)
        assert basis.rank == 6

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            generate_instance(5, 2, 2.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance(5, 6, 1.0, 2.0, seed=0)
