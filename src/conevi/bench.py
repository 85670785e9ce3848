"""Timing benchmarks for the interior-point path.

The point being measured is the cost structure: one IPM iteration is
O(n k^2), so per-iteration time at fixed k must grow roughly linearly in n.
Instances here are built without any O(n^3) eigensolve or slow spectral
estimation: M = beta*I + c*S with S skew keeps the monotone modulus at
exactly beta, and bounding ||S|| by its Frobenius norm gives a safe
contraction step analytically.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .basis import orthonormalize
from .cones import orthant
from .operators import AffineOperator
from .projective import build_projective, solve_ipm

__all__ = ["BenchResult", "bench_ipm"]


@dataclass
class BenchResult:
    n: int
    k: int
    iterations: int
    per_iter_median_s: float
    total_median_s: float
    converged: bool


def _bench_instance(n: int, k: int, seed: int):
    beta, skew = 1.0, 2.0
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    S = 0.5 * (G - G.T)
    # Frobenius normalization upper-bounds the spectral norm in O(n^2),
    # which keeps alpha safely inside the contraction range
    M = beta * np.eye(n) + (skew / float(np.linalg.norm(S))) * S
    L_bound = float(np.sqrt(beta**2 + skew**2))
    alpha = beta / L_bound**2
    q = rng.standard_normal(n)
    basis = orthonormalize(rng.standard_normal((n, k)))
    return AffineOperator(M, q), basis, alpha


def bench_ipm(sizes: list[int], k: int, repeats: int, seed: int = 0) -> list[BenchResult]:
    """Median per-iteration IPM wall time for each problem size, with the
    default IpmConfig."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = []
    for n in sizes:
        op, basis, alpha = _bench_instance(n, k, seed)
        plcp = build_projective(op, basis, alpha)
        cone = orthant(n)
        per_iter, totals = [], []
        report = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = solve_ipm(plcp, cone)
            dt = time.perf_counter() - t0
            totals.append(dt)
            per_iter.append(dt / max(report.iterations, 1))
        results.append(BenchResult(
            n=n,
            k=k,
            iterations=report.iterations,
            per_iter_median_s=statistics.median(per_iter),
            total_median_s=statistics.median(totals),
            converged=report.converged,
        ))
    return results
