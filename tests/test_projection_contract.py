"""One contract for the three projections that the methods rest on: P_C
(SeparableCone.project), P_span (Basis.project_span) and P_{C & span}
(project_intersection). The two-projection Galerkin method needs only the
first two, Bertsekas's method the third. Every property holds for each
projection it applies to on every case; CASES is the only place that builds
a (cone, basis) pair, so a new projection route (an NNLS warm start,
support-map products, a matrix-free basis) adds one case and nothing else."""
import numpy as np
import pytest

from conevi import orthonormalize, parse_cone_spec, project_intersection, solvers
from conevi.basis import DROP_TOL

N, EPS = 20, np.finfo(float).eps
SPECS = ["nn:20", "nn:10,free:6,zero:4", "zero:3,nn:17", "nn:8,zero:2,nn:6,free:4",
         "free:10,nn:6,zero:4"]


def gaussian(rng, i):
    return rng.standard_normal((N, int(rng.integers(2, 9))))


def forcing_rows(rng, i):
    # rows of opposite sign on two nonnegative coordinates force both to zero;
    # with rounding noise, NNLS meets that implicit equality with multipliers
    # near 1e15 unless the rows are held: draws 163 and 199 of the 200
    raw = rng.standard_normal((20, 8)) * (rng.random((20, 8)) < 0.3)
    raw[14] = -rng.uniform(0.5, 2.0) * raw[13]  # the first two orthant rows
    raw[0, 0] += 1.0
    return raw


def wide_aggregation(rng, i):
    # k = 4, 8 or 16 groups, none empty; restricting to null(Q_Z) leaves rows
    # of Q_B at ~1e-33
    k = (4, 8, 16)[i % 3]
    groups = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, 40 - k)]))
    return 1.0 * (groups[:, None] == np.arange(k))


FAMILIES = {
    "gaussian": gaussian,
    "abs_gaussian": lambda rng, i: np.abs(gaussian(rng, i)),
    # rows scaled by 10^U(-9, -4), where a projection once raised on 1 of 3,000 draws
    "row_scaled": lambda rng, i: gaussian(rng, i) * 10.0 ** rng.uniform(-9, -4, (N, 1)),
    "row_scaled_abs": lambda rng, i: np.abs(gaussian(rng, i)) * 10.0 ** rng.uniform(-9, -4, (N, 1)),
    # 0/1 aggregation, some rows and columns zero: the disjoint-support route
    "aggregation": lambda rng, i: 1.0 * (rng.integers(0, 8, (N, 1)) == np.arange(6)),
    "identity": lambda rng, i: np.eye(N),
    "rank_deficient": lambda rng, i: rng.standard_normal((N, 3)) @ rng.standard_normal((3, 6)),
}
# name: (cone spec, raw basis of draw i, seed, draws, scale of the points z)
CASES = {f"{family}-{spec}": (spec, raw, 42, 8, 3.0)
         for spec in SPECS for family, raw in FAMILIES.items()}
CASES |= {
    # Phi vanishes on the zero coordinate, so that constraint is void; QR
    # leaves ~1e-16 in its row of Q, which a relative rank test would keep
    "zero_row_at_rounding_level": (
        "zero:1,free:11", lambda rng, i: np.where(np.arange(12)[:, None] > 0,
                                                  rng.standard_normal((12, 3)), 0.0), 32, 5, 1.0),
    "forcing_rows": ("zero:4,free:9,nn:3,zero:1,nn:1,zero:2", forcing_rows, 36, 200, 3.0),
    "wide_aggregation": ("nn:30,free:6,zero:4", wide_aggregation, 33, 12, 5.0),
}
PROJECTIONS = {"cone": lambda cone, basis, z: cone.project(z),
               "span": lambda cone, basis, z: basis.project_span(z),
               "cone_and_span": project_intersection}


def unit_rows(R):
    """The distinct rows of R with norm above DROP_TOL, the tolerance that
    defines span(Phi), each scaled to unit norm."""
    norms = np.linalg.norm(R, axis=1)
    return np.unique(R[norms > DROP_TOL] / norms[norms > DROP_TOL, None], axis=0)


def projection_bruteforce(cone, basis, z):
    """Oracle: P_C(Q w), w the point nearest c = Q^T z with Z w = 0 and B w >= 0
    (Z, B: the unit_rows of Q on the zero and the orthant rows). In each block of
    w that no row couples to another, the nearest feasible projection of c onto
    {Z w = 0, B_S w = 0} over all subsets S of B; None if a block has over 10."""
    Q = basis.ortho
    c = Q.T @ z
    Z, B = unit_rows(Q[cone.zero_mask]), unit_rows(Q[cone.nonneg_mask])
    label, rows = np.arange(len(c)), np.vstack([Z, B]) != 0
    for row in rows:  # one label for the columns each row couples
        label[np.isin(label, label[row])] = label[row].min()
    w = c.copy()
    for block in map(label.__eq__, np.unique(label[rows.any(axis=0)])):
        Zb, Bb = (R[(R[:, block] != 0).any(axis=1)][:, block] for R in (Z, B))
        if len(Bb) > 10:
            return None
        subsets = (np.arange(2 ** len(Bb))[:, None] >> np.arange(len(Bb)) & 1).astype(bool)
        E = np.concatenate([np.broadcast_to(Zb, (len(subsets), *Zb.shape)),
                            Bb * subsets[:, :, None]], axis=1)
        W = c[block] - np.linalg.pinv(E, DROP_TOL) @ E @ c[block]  # near-parallel rows count once
        feasible = (W @ Bb.T >= -1e-12 * (1.0 + np.linalg.norm(c))).all(axis=1)
        w[block] = W[np.argmin(np.where(feasible, np.linalg.norm(W - c[block], axis=1), np.inf))]
    return cone.project(Q @ w)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """Per draw: the cone, the basis, points z and y (the next draw's z) and (Pz, Py)
    for each projection; and every (C, d, lam) that project_intersection's _nnls returned."""
    spec, raw, seed, draws, scale = CASES[request.param]
    rng = np.random.default_rng(seed)
    cone = parse_cone_spec(spec)
    pairs = [(orthonormalize(raw(rng, i)), scale * rng.standard_normal(cone.dim))
             for i in range(draws)]
    duals, nnls, out = [], solvers._nnls, []

    def recorded(C, d):
        lam = nnls(C, d)
        duals.append((C, d, lam))
        return lam

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_nnls", recorded)
        for i, (basis, z) in enumerate(pairs):
            y = pairs[(i + 1) % draws][1]
            out.append((cone, basis, z, y, {name: (P(cone, basis, z), P(cone, basis, y))
                                            for name, P in PROJECTIONS.items()}))
    return out, duals


def test_cone_projection_is_its_formula(case):
    # bit for bit: max(z, 0) on the orthant rows, z on the free rows, 0 on the zero rows
    for cone, _, z, y, proj in case[0]:
        for point, got in zip((z, y), proj["cone"]):
            ref = np.where(cone.nonneg_mask, np.maximum(point, 0.0), point)
            assert got.tobytes() == np.where(cone.zero_mask, 0.0, ref).tobytes()


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_lands_in_its_set(case, projection):
    # in C exactly, and in span(Phi) within the tolerance that defines it
    for cone, basis, z, y, proj in case[0]:
        for point, got in zip((z, y), proj[projection]):
            assert projection == "span" or cone.contains(got, 0.0)
            if projection != "cone":
                assert basis.representation_error(got) <= DROP_TOL * (1.0 + np.linalg.norm(point))


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_idempotent(case, projection):
    for cone, basis, z, _, proj in case[0]:
        pz = proj[projection][0]
        ppz = PROJECTIONS[projection](cone, basis, pz)
        if projection == "cone":
            assert np.array_equal(ppz, pz)
        assert np.linalg.norm(ppz - pz) <= 1e-12 * (1.0 + np.linalg.norm(z))


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_firmly_nonexpansive(case, projection):
    for _, _, z, y, proj in case[0]:
        d = proj[projection][0] - proj[projection][1]
        assert d @ d <= d @ (z - y) + 1e-13 * (1.0 + np.linalg.norm(z) + np.linalg.norm(y)) ** 2


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_variational_inequality(case, projection):
    # <z - Pz, v - Pz> <= 0 for v in the set: here 0, 2 Pz and Py
    for _, _, z, y, proj in case[0]:
        pz, py = proj[projection]
        bound = 1e-13 * (1.0 + np.linalg.norm(z) + np.linalg.norm(y)) ** 2
        assert all((z - pz) @ (v - pz) <= bound for v in (0.0 * pz, 2.0 * pz, py))


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_scale_equivariant(case, projection):
    # each projection is onto a cone, so P(c z) = c P(z) for c > 0; for c a
    # power of two every step is the c = 1 one, scaled, bit for bit, also at
    # 2**+-540, where a plain norm of c z overflows (a RuntimeWarning, which
    # the suite makes an error) or underflows
    for cone, basis, z, _, proj in case[0]:
        for c in (2.0**-540, 2.0**540):
            got = PROJECTIONS[projection](cone, basis, c * z)
            assert np.array_equal(got, c * proj[projection][0])


def test_span_identities(case):
    # span(Phi) contains C & span(Phi), so projecting onto it moves z no farther.
    # representation_error is the residual's norm, taken in units of its
    # largest entry so that it cannot overflow: the plain norm up to rounding
    for _, basis, z, _, proj in case[0]:
        residual, error = basis.null_residual(z), basis.representation_error(z)
        assert np.array_equal(residual, z - proj["span"][0])
        assert abs(error - np.linalg.norm(residual)) <= 4 * EPS * error
        distance = np.linalg.norm(z - proj["cone_and_span"][0])
        assert error <= distance + 1e-13 * (1.0 + np.linalg.norm(z))


def test_intersection_matches_enumeration(case):
    for cone, basis, z, _, proj in case[0]:
        ref = projection_bruteforce(cone, basis, z)
        if ref is not None:
            assert np.linalg.norm(proj["cone_and_span"][0] - ref) <= 1e-11 * (1 + np.linalg.norm(z))


def test_every_nnls_dual_passes_its_stopping_test(case):
    # lam >= 0 and the gradient w = C^T (d - C lam) at most _nnls's own tol
    # off the passive set and within it on the set, up to the rounding of
    # evaluating w from lam: C has unit columns, so about eps per unit of
    # sum(lam), which only the multipliers of held rows (near 1e15) make large
    for C, d, lam in case[1]:
        tol = 10 * max(C.shape) * EPS * (np.linalg.norm(C) * np.linalg.norm(d) + lam.sum())
        w = C.T @ (d - C @ lam)
        assert (lam >= 0.0).all()
        assert (w[lam == 0.0] <= tol).all() and (np.abs(w[lam > 0.0]) <= tol).all()
