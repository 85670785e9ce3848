"""Acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible under `pytest -s`), so the
module doubles as a release checklist. Tolerances are pinned here and
nowhere else.
"""
import time

import numpy as np
import pytest

from conevi.basis import orthonormalize
from conevi.bench import bench_ipm
from conevi.cones import orthant
from conevi.generate import generate_instance
from conevi.operators import iteration_bound
from conevi.projective import (IpmConfig, ProjectiveLcp, _newton, build_projective, solve_ipm,
                               verify_pd)
from conevi.solvers import SolveConfig, bound_report, solve_bertsekas, solve_exact, solve_galerkin
from conevi.transforms import PolyhedralVI, polyhedron_to_cone


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"CRITERION {name}: {'PASS' if ok else 'FAIL'}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def galerkin_sweep():
    """Seeds 0-49 (n=40, k in {4,8,16}) solved by all three methods."""
    start = time.perf_counter()
    out = []
    cfg = SolveConfig(tol=1e-12)
    for seed in range(50):
        k = (4, 8, 16)[seed % 3]
        op, basis = generate_instance(40, k, 1.0, 2.0, seed=seed)
        cone = orthant(40)
        comp = bound_report(op, cone, basis, cfg)
        rep_gal = solve_galerkin(op, cone, basis, cfg)
        out.append((op, basis, comp, rep_gal))
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def reduction_sweep():
    """30 seeded instances (n=40, k=8): Galerkin solve, reduction, and IPM."""
    out = []
    for seed in range(30):
        op, basis = generate_instance(40, 8, 1.0, 2.0, seed=100 + seed)
        cone = orthant(40)
        x_bar = solve_galerkin(op, cone, basis, SolveConfig(tol=1e-12)).x
        plcp = build_projective(op, basis, op.contraction().alpha)
        rep = solve_ipm(plcp, cone, IpmConfig(tol=1e-11))
        out.append((plcp, x_bar, rep))
    return out


def test_c01_contraction_law():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for seed in range(20):
        op, _ = generate_instance(50, 5, 1.0, 4.0, seed=seed)
        p = op.contraction()
        T = np.eye(50) - p.alpha * op.M
        for _ in range(100):
            diff = rng.standard_normal(50) - rng.standard_normal(50)
            ok &= np.linalg.norm(T @ diff) <= p.gamma * np.linalg.norm(diff) + 1e-12
    elapsed = time.perf_counter() - start
    check("01 contraction-law", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_c02_convergence_rate_law():
    ok = True
    worst = ""
    for seed in range(20):
        op, _ = generate_instance(50, 5, 1.0, 2.0, seed=200 + seed)
        rep = solve_exact(op, orthant(50), SolveConfig(trace=True, tol=1e-13))
        ok &= rep.converged
        d = rep.distances_to_final()
        for t in range(len(d) - 1):
            if d[t + 1] > rep.gamma * d[t] + 1e-10:
                ok = False
                worst = f"seed {seed} step {t}"
        if d[0] > 0.0:
            reached = int(np.argmax(d <= 1e-8 * d[0]))
            if reached > iteration_bound(rep.gamma, 1e-8):
                ok = False
                worst = f"seed {seed}: {reached} iterations"
    check("02 convergence-rate-law", ok, worst)


def test_c03_bertsekas_error_bound(galerkin_sweep):
    # a Gaussian basis meets the orthant only at 0, so there x_hat = 0 and the
    # bound holds for any x*; the same operators with |Gaussian| bases give
    # the intersection method a nonzero x_hat to bound on most instances
    rows, build_seconds = galerkin_sweep
    start = time.perf_counter()
    cfg = SolveConfig(tol=1e-12)
    comps = [comp for _, _, comp, _ in rows]
    nonzero = 0
    for seed, (op, _, _, _) in enumerate(rows):
        k = (4, 8, 16)[seed % 3]
        raw = np.abs(np.random.default_rng(1000 + seed).standard_normal((40, k)))
        comp = bound_report(op, orthant(40), orthonormalize(raw), cfg)
        comps.append(comp)
        nonzero += comp.x_hat is not None and np.linalg.norm(comp.x_hat) > 1e-12
    ok = len(rows) == 50 and nonzero >= 40
    for comp in comps:
        ok &= comp.err_bertsekas is not None and comp.err_bertsekas <= comp.bound_bertsekas + 1e-8
    seconds = build_seconds + time.perf_counter() - start
    check("03 bertsekas-error-bound", ok and seconds < 60.0,
          f"{len(rows)} instances, {nonzero} with x_hat != 0, {seconds:.1f}s")


def test_c04_new_error_bound(galerkin_sweep):
    rows, _ = galerkin_sweep
    ok = True
    for _, _, comp, _ in rows:
        ok &= comp.err_new_z <= comp.bound_new + 1e-8
        ok &= comp.err_new_x <= comp.bound_new + 1e-8
    check("04 new-error-bound", ok)


def test_c05_optimality_certificate(galerkin_sweep):
    rows, _ = galerkin_sweep
    ok = True
    for _, _, _, rep in rows:
        ok &= rep.converged
        cert = rep.certificate
        ok &= cert.null_space_violation <= 1e-8 * (1 + np.linalg.norm(cert.epsilon))
        ok &= cert.normal_cone_ok
    check("05 optimality-certificate", ok)


def test_c06_projective_reduction_equivalence(reduction_sweep):
    ok = True
    worst = 0.0
    for _, x_bar, rep in reduction_sweep:
        ok &= rep.converged
        err = np.linalg.norm(rep.x - x_bar) / (1 + np.linalg.norm(x_bar))
        worst = max(worst, err)
        ok &= err <= 1e-6
    check("06 projective-reduction-equivalence", ok, f"worst rel err {worst:.2e}")


def test_c07_pd_lemma(reduction_sweep):
    smallest = min(verify_pd(plcp) for plcp, _, _ in reduction_sweep)
    check("07 pd-lemma", smallest > 0.0, f"min eigenvalue {smallest:.3e}")


def test_c08_identity_basis_collapse():
    ok = True
    cfg = SolveConfig(tol=1e-12)
    for seed in range(5):
        op, _ = generate_instance(30, 6, 1.0, 2.0, seed=300 + seed)
        cone = orthant(30)
        eye = orthonormalize(np.eye(30))
        x_star = solve_exact(op, cone, cfg).x
        scale = 1 + np.linalg.norm(x_star)
        ok &= np.linalg.norm(solve_bertsekas(op, cone, eye, cfg).x - x_star) <= 1e-8 * scale
        ok &= np.linalg.norm(solve_galerkin(op, cone, eye, cfg).x - x_star) <= 1e-8 * scale
    check("08 identity-basis-collapse", ok)


def test_c09_woodbury_solver():
    rng = np.random.default_rng(9)
    n, k = 60, 6
    ok = True
    done = 0
    while done < 100:
        D = rng.uniform(0.5, 2.0, size=n)
        Q = rng.standard_normal((n, k)) / np.sqrt(n)
        W = rng.standard_normal((k, n)) / np.sqrt(n)
        A = np.diag(D) + Q @ W
        if np.linalg.cond(A) > 1e6:
            continue
        rhs = rng.standard_normal(n)
        ref = np.linalg.solve(A, rhs)
        got = _newton(ProjectiveLcp(Q, W, np.zeros(n)), D)(rhs)
        ok &= np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        done += 1
    check("09 woodbury-solver", ok)


def test_c10_cost_structure():
    results = bench_ipm([1000, 4000], k=10, repeats=5, seed=0)
    per_iter = {res.n: res.per_iter_median_s for res in results}
    ratio = per_iter[4000] / per_iter[1000]
    ok = all(res.converged for res in results) and ratio <= 8.0
    check("10 cost-structure", ok, f"per-iteration ratio {ratio:.2f}")


def test_c11_transform_roundtrip():
    ok = True
    worst = 0.0
    for seed in range(20):
        op, _ = generate_instance(10, 3, 1.0, 2.0, seed=400 + seed)
        direct = solve_exact(op, orthant(10), SolveConfig(tol=1e-12)).x
        layout = polyhedron_to_cone(PolyhedralVI(op.M, op.q, np.eye(10), np.zeros(10)))
        plcp = build_projective(layout.op, orthonormalize(np.eye(layout.cone.dim)), 1.0)
        rep = solve_ipm(plcp, layout.cone, IpmConfig(tol=1e-12))
        ok &= rep.converged
        err = np.linalg.norm(layout.extract("x", rep.x) - direct) / (1 + np.linalg.norm(direct))
        worst = max(worst, err)
        ok &= err <= 1e-6
    check("11 transform-roundtrip", ok, f"worst rel err {worst:.2e}")
