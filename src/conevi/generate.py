"""Seeded random instance generation with prescribed (beta, L) targets."""
from __future__ import annotations

import math

import numpy as np

from .basis import Basis, orthonormalize
from .operators import AffineOperator, lipschitz_constant

__all__ = ["GenerationError", "generate_instance"]


class GenerationError(Exception):
    """Could not hit the requested (beta, L) targets."""


def generate_instance(n: int, k: int, beta_target: float, L_target: float,
                      seed: int) -> tuple[AffineOperator, Basis]:
    """Random strongly monotone instance with a random basis.

    M = beta*I + c*A + s*S with A a normalized Gaussian Gram matrix and S a
    normalized skew part, so the monotone modulus is beta + c*lambda_min(A)
    >= beta by construction; c is tuned so the spectral norm lands within
    5% of L_target. The same seed reproduces the instance bit for bit
    within one build of this library.
    """
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if not (0.0 < beta_target < L_target < math.inf):
        raise ValueError(f"need 0 < beta_target < L_target < inf, got {beta_target}, {L_target}")
    # imported here, so that importing conevi does not load scipy.optimize
    from scipy.optimize import brentq

    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G.T @ G
    A /= lipschitz_constant(A)
    G2 = rng.standard_normal((n, n))
    S = 0.5 * (G2 - G2.T)
    norm_S = lipschitz_constant(S)
    if norm_S > 0:
        S /= norm_S
    s_amp = 0.25 * (L_target - beta_target)

    def norm_at(c: float) -> float:
        return lipschitz_constant(beta_target * np.eye(n) + c * A + s_amp * S)

    # beta*I + s_amp*S is normal with norm sqrt(beta**2 + s_amp**2) < L_target,
    # and ||c*A|| = c moves the norm by at most c, so the doubling stops by
    # hi = 2*L_target and [0, hi] brackets c
    hi = L_target - beta_target
    while norm_at(hi) < L_target:
        hi *= 2.0
    try:
        c = brentq(lambda c: norm_at(c) - L_target, 0.0, hi, xtol=1e-4 * L_target)
    except ValueError as exc:
        raise GenerationError(
            f"no bracket for beta={beta_target}, L={L_target}: {exc}") from exc
    # the target check reads the returned operator's cached beta and L, so
    # its callers reuse them; it draws nothing from rng
    op = AffineOperator(beta_target * np.eye(n) + c * A + s_amp * S, rng.standard_normal(n))
    beta, lip = op.beta, op.lipschitz
    if not (beta >= beta_target * (1 - 1e-6) and abs(lip - L_target) <= 0.05 * L_target):
        raise GenerationError(
            f"instance for beta={beta_target}, L={L_target} has beta={beta}, L={lip}")

    basis = orthonormalize(rng.standard_normal((n, k)))
    return op, basis
