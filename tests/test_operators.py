"""One contract for the constants every step size and error bound rests on:
beta (monotone_modulus), L (lipschitz_constant) and contraction()'s alpha
and gamma. MATRICES is the only place that builds a matrix. With
S = (M + M^T)/2, each property holds on every case it takes:
- test_lipschitz_is_certified: ||M||_2 <= L, exactly (tests/exact.py) where
  n <= 12, else against svdvals or an svds witness; L <= sigma_max
  (1 + 1e-12) where n <= 70; L is inf only above the largest double.
- test_beta_route: eigvalsh sees only the coupled block, and beta is bit for
  bit the least uncoupled diagonal entry or eigvalsh on that block.
- n <= 600: test_beta_is_within_delta (the bottom eigenvalue of S is within
  delta = 10 n eps L of beta, the operator contract's bound, exactly where
  n <= 12; above 600, S is diagonal and test_beta_route makes beta its least
  entry); test_scale_free (beta and L of cM are c beta and c L bit for
  bit, c = 1 included, contraction() keeps gamma and c alpha, nothing
  warns, and M is left as it was); test_contraction_law (alpha = beta/L^2,
  gamma^2 = 1 - beta^2/L^2, ||(I - alpha M) v|| <= gamma ||v||, and
  NotStronglyMonotone exactly when beta <= 0, before L is read).
"""
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from conevi import operators
from conevi.bench import _bench_instance
from conevi.operators import (AffineOperator, CallableOperator, NotStronglyMonotone,
                              iteration_bound, lipschitz_constant, monotone_modulus)
from conevi.transforms import PolyhedralVI, polyhedron_to_cone
from exact import gram, is_psd, shifted

EPS, BIG = np.finfo(float).eps, np.finfo(float).max
EXACT_N, TIGHT_N, DENSE_N = 12, 70, 600
SCALES = (2.0**-600, 2.0**-300, 1.0, 2.0**300, 2.0**600)


# -- the cases: the only place that builds a matrix -----------------------------

def gaussian(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def spd_plus_skew(n, seed):
    G, K = gaussian(seed, 2, n, n)
    return np.eye(n) + G.T @ G / n + 0.5 * (K - K.T)


def diagonal_plus_skew(d, seed, skew=1.0):
    """diag(d) plus an exactly skew part, fl(a - b) = -fl(b - a): S is diag(d)."""
    K = gaussian(seed, d.size, d.size)
    return np.diag(d) + skew * (K - K.T)


def scattered_blocks(lowest):
    """S is exactly blocks of orders 1, 3, 5 and 40 on permuted coordinates; the
    one of order (1, 3, 5, 40)[lowest] holds beta, the others are moved up by 8."""
    rng = np.random.default_rng(72 + lowest)
    sizes = [1, 3, 5, 40]
    sizes.insert(0, sizes.pop(lowest))
    perm, S = rng.permutation(49), np.zeros((49, 49))
    for b, (start, size) in enumerate(zip(np.cumsum([0] + sizes), sizes)):
        G, idx = rng.standard_normal((size, size)), perm[start:start + size]
        S[np.ix_(idx, idx)] = 0.5 * (G + G.T) + (8.0 if b else 0.0) * np.eye(size)
    K = rng.standard_normal((49, 49))
    skew = np.where(S != 0.0, 0.0, K - K.T)  # so fl(s + k) + fl(s - k) never rounds
    np.fill_diagonal(skew, 0.0)
    return S + skew


def symmetric_pair():
    """S couples only coordinates 2 and 9."""
    M = diagonal_plus_skew(np.random.default_rng(73).uniform(1.0, 2.0, 12), 173)
    M[2, 9] = M[9, 2] = 0.75
    return M


def polyhedral(shift):
    """The dense N of polyhedron_to_cone, whose S is diag(0, sym M, 0)."""
    rng = np.random.default_rng(74)
    G = rng.standard_normal((12, 12))
    M = shift * np.eye(12) + 0.1 * (G + G.T) + (G - G.T)
    return polyhedron_to_cone(PolyhedralVI(M, rng.standard_normal(12), rng.standard_normal((7, 12)),
                                           np.zeros(7))).op.M


def crowded_bottom_edge():
    """S = diag(d), crowded just above min d = 0.5, where iterations stall."""
    rng = np.random.default_rng(16)
    d = 0.5 + rng.uniform(0.0, 1.0, 2500) ** 3
    d[rng.integers(2500)] = 0.5
    return diagonal_plus_skew(d, 116, skew=0.1)


def draw(i):
    n = 1 + i % 12
    rng = np.random.default_rng(100 + i)
    return rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)


# name: (order n, order of the block of coordinates that S couples, build)
MATRICES = {
    "diagonal": (2, 0, lambda: np.diag([1.0, 3.0])),
    "step_rule": (2, 0, lambda: np.diag([1.0, 2.0])),
    "skew": (2, 0, lambda: np.array([[0.0, -1.0], [1.0, 0.0]])),
    # non-normal: S = [[1, 1], [1, 1]], and ||M||_2 = 1 + sqrt(2)
    "shear": (2, 2, lambda: np.array([[1.0, 2.0], [0.0, 1.0]])),
    "upper": (2, 2, lambda: np.array([[2.0, 1.0], [0.0, 2.0]])),
    "identity": (4, 0, lambda: np.eye(4)),
    "scaled_identity": (3, 0, lambda: 2.0 * np.eye(3)),
    "zero": (4, 0, lambda: np.zeros((4, 4))),
    "spd_skew_30": (30, 30, lambda: spd_plus_skew(30, 11)),
    "diagonal_skew_200": (200, 0, lambda: diagonal_plus_skew(
        np.random.default_rng(71).uniform(-2.0, 3.0, 200), 171)),
    **{f"blocks_{lowest}": (49, 48, lambda lowest=lowest: scattered_blocks(lowest))
       for lowest in range(4)},
    "symmetric_pair": (12, 2, symmetric_pair),
    # a path couples every coordinate though most pairs are zero
    "path": (30, 30, lambda: np.diag(np.linspace(1.0, 2.0, 30)) + np.diag(np.full(29, 0.4), k=1)),
    "polyhedral_+1": (26, 12, lambda: polyhedral(1.0)),
    "polyhedral_-1": (26, 12, lambda: polyhedral(-1.0)),
    "jordan": (40, 40, lambda: 2.0 * np.eye(40) + np.eye(40, k=1)),
    "rank_deficient": (70, 70, lambda: gaussian(18, 70, 3) @ gaussian(118, 3, 70)),
    "psd_gram": (50, 50, lambda: gaussian(19, 50, 50).T @ gaussian(19, 50, 50)),
    "random_60": (60, 60, lambda: gaussian(20, 60, 60)),
    # entries near the largest double; max_rotation's norm is above it
    "max_diagonal": (2, 0, lambda: 1e308 * np.diag([1.5, 1.0])),
    "max_rotation": (2, 0, lambda: np.array([[1e308, 1.7e308], [-1.7e308, 1e308]])),
    **{f"coupled_{c:g}": (2, 2, lambda c=c: c * np.array([[1.5, 0.6], [0.2, -0.25]]))
       for c in (1e308, 1e200, 1e-300)},
    "max_fill": (2, 2, lambda: np.full((2, 2), -1.5e308)),  # beta below minus the largest double
    "crowded_2500": (2500, 0, crowded_bottom_edge),
    # I + c K, K skew: singular values crowd at the top, where an iterative
    # estimate of ||M||_2 stalls below it
    "saddle_400": (400, 0, lambda: _bench_instance(400, 10, 0)[0].M),
    "saddle_3000": (3000, 0, lambda: _bench_instance(3000, 10, 0)[0].M),
    **{f"draw_{i:02d}": (1 + i % 12, 1 + i % 12 if i % 12 else 0, lambda i=i: draw(i))
       for i in range(30)},
}
BETA_ONLY = "crowded_2500"  # L has no reference here, and would cost 0.5 s
# BETA_ONLY last: each subset a property takes is a prefix, so a case keeps its
# param index in every test and pytest builds its module-scoped fixture once
CASES = sorted(MATRICES, key=lambda name: (name == BETA_ONLY, MATRICES[name][0], name))
DENSE = [name for name in CASES if MATRICES[name][0] <= DENSE_N]


def symmetric_part(M):
    """(S, k): S = (A + A^T)/2 for A = M 2**k, k as monotone_modulus documents:
    0 inside 2**(+-256), else the power of two bringing max |m_ij| into [1/2, 1)."""
    _, e = math.frexp(np.abs(M).max())
    k = -e if abs(e) > 256 else 0
    A = np.ldexp(M, k) if k else M
    return (A + A.T) * 0.5, k


def unscaled(x, k):
    """x 2**-k, as monotone_modulus scales beta back: -inf below -BIG."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, -k))


def norm_at_most(G, t, strict=False):
    """Whether ||M||_2 <= t (< t with strict), decided exactly from G = M^T M."""
    return is_psd(shifted([[-g for g in row] for row in G], -Fraction(t) ** 2), strict)


@pytest.fixture(scope="module", params=CASES)
def case(request):
    """M, beta with the orders handed to eigvalsh, L (inf on OverflowError),
    S with its scale k, and the references, each computed once."""
    n, coupled, build = MATRICES[request.param]
    M = build()
    assert M.shape == (n, n)
    sizes, real = [], scipy.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "eigvalsh",
                   lambda a, *args, **kw: sizes.append(len(a)) or real(a, *args, **kw))
        beta = monotone_modulus(M)
    S, k = symmetric_part(M)
    c = SimpleNamespace(n=n, coupled=coupled, M=M, before=M.copy() if n <= DENSE_N else None,
                        beta=beta, sizes=sizes, S=S, k=k, lip=math.inf, exact=None)
    if request.param == BETA_ONLY:
        return c
    try:
        c.lip = lipschitz_constant(M)
    except OverflowError:  # ||M||_2 may exceed the largest double
        pass
    if n <= EXACT_N:
        R = [[Fraction(float(v)) for v in row] for row in M]
        c.exact = [[(a + b) / 2 for a, b in zip(row, col)] for row, col in zip(R, zip(*R))], gram(M)
    elif n <= DENSE_N:
        c.sigma = scipy.linalg.svdvals(M)[0]
        c.bottom = unscaled(scipy.linalg.eigvalsh(S, subset_by_index=[0, 0])[0], k)
    else:
        _, _, vt = scipy.sparse.linalg.svds(M, k=1, random_state=0)
        c.sigma = np.linalg.norm(M @ vt[0]) / np.linalg.norm(vt[0])
    return c


def contraction_of(M):
    return AffineOperator(M, np.zeros(M.shape[0])).contraction()


# -- the properties --------------------------------------------------------------

@pytest.mark.parametrize("case", CASES[:-1], indirect=True)
def test_lipschitz_is_certified(case):
    if case.exact and case.lip == math.inf:
        assert not norm_at_most(case.exact[1], BIG)
    elif case.exact:  # 1/(1 - 2**-40) < 1 + 1e-12, and a dyadic keeps the arithmetic small
        G = case.exact[1]
        assert norm_at_most(G, case.lip)
        assert not norm_at_most(G, Fraction(case.lip) * (1 - Fraction(1, 2**40)), strict=True)
    elif case.n <= DENSE_N:
        assert case.sigma <= case.lip
        if case.n <= TIGHT_N:
            assert case.lip <= case.sigma * (1 + 1e-12)
    else:
        assert case.lip >= case.sigma * (1 - case.n * EPS)  # the witness's own rounding


@pytest.mark.parametrize("case", DENSE, indirect=True)
def test_beta_is_within_delta(case):
    # the largest double stands in for an L that is inf
    delta = 10 * case.n * EPS * min(case.lip, BIG)
    if not case.exact:
        assert abs(case.beta - case.bottom) <= delta
    elif case.beta == -math.inf:
        assert not is_psd(shifted(case.exact[0], -BIG))
    else:
        beta, d, S = Fraction(case.beta), Fraction(delta), case.exact[0]
        assert is_psd(shifted(S, beta - d)) and not is_psd(shifted(S, beta + d), strict=True)


def test_beta_route(case):
    S = case.S
    pattern = S != 0.0
    np.fill_diagonal(pattern, False)
    coupled = pattern.any(axis=1)
    assert coupled.sum() == case.coupled
    assert case.sizes == ([case.coupled] if case.coupled else [])
    parts = [S.diagonal()[~coupled].min()] if case.coupled < case.n else []
    if case.coupled:
        parts.append(scipy.linalg.eigvalsh(S[np.ix_(coupled, coupled)], subset_by_index=[0, 0])[0])
    assert case.beta == unscaled(min(parts), case.k)


@pytest.mark.parametrize("case", DENSE, indirect=True)
def test_scale_free(case):
    A = np.ldexp(case.M, case.k)  # what monotone_modulus adds to its transpose
    assert operators._transpose_sum(A).tobytes() == (A + A.T).tobytes()
    base = contraction_of(case.M) if case.beta > 0.0 and case.lip < math.inf else None
    for c in SCALES if 2.0**-300 <= np.abs(case.M).max() <= 2.0**300 else (1.0,):
        op = AffineOperator(c * case.M, np.zeros(case.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op.beta == c * case.beta
            if case.lip < math.inf:
                assert op.lipschitz == c * case.lip
            if base is None:
                continue
            p = op.contraction()
        assert p.gamma == pytest.approx(base.gamma, rel=1e-12)
        assert c * p.alpha == pytest.approx(base.alpha, rel=1e-12)
    np.testing.assert_array_equal(case.M, case.before)


@pytest.mark.parametrize("beta, lip", [(1e-200, 2e-200), (1e200, 2e200)])
def test_declared_constants_are_scale_free(beta, lip):
    base = CallableOperator(lambda x: x, 2, 1.0, 2.0).contraction()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = CallableOperator(lambda x: x, 2, beta, lip).contraction()
    assert p.gamma == pytest.approx(base.gamma, rel=1e-12)
    assert beta * p.alpha == pytest.approx(base.alpha, rel=1e-12)


@pytest.mark.parametrize("case", DENSE, indirect=True)
def test_contraction_law(case, monkeypatch):
    if case.beta <= 0.0:
        monkeypatch.setattr(operators, "lipschitz_constant", None)  # reading L raises TypeError
        with pytest.raises(NotStronglyMonotone) as exc:
            contraction_of(case.M)
        assert exc.value.beta == case.beta
        return
    if case.lip == math.inf:
        with pytest.raises(OverflowError):  # as lipschitz_constant documents
            contraction_of(case.M)
        return
    p = contraction_of(case.M)
    assert (p.beta, p.lipschitz) == (case.beta, case.lip)
    ratio = Fraction(p.beta) / Fraction(p.lipschitz)
    assert abs(Fraction(p.alpha) * Fraction(p.lipschitz) / ratio - 1) <= 2 * EPS
    assert abs(Fraction(p.gamma) ** 2 - (1 - ratio**2)) <= 8 * EPS
    V = np.random.default_rng(13).standard_normal((case.n, 20))
    T = np.eye(case.n) - p.alpha * case.M
    assert (np.linalg.norm(T @ V, axis=0) <= p.gamma * np.linalg.norm(V, axis=0) + 1e-12).all()


# -- pins kept by name -------------------------------------------------------------

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
    AffineOperator(spd_plus_skew(20, 75), np.zeros(20)).contraction()
    assert calls == ["monotone_modulus", "lipschitz_constant"]


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
