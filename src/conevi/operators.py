"""Affine operators and their monotonicity / Lipschitz / contraction constants.

The monotone modulus beta is the smallest eigenvalue of the symmetric part
of M; the Lipschitz constant L is the spectral norm. With the step size
alpha = beta/L**2 the map I - alpha*F contracts with factor
gamma = sqrt(1 - beta**2/L**2) < 1, which every solver in this library
leans on.

Both constants come from LAPACK's dense symmetric eigensolver for every n.
Their error is its backward error, a small multiple of n*eps*||M||; they are
not padded into a rigorous enclosure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg

__all__ = [
    "NotStronglyMonotone",
    "ContractionParams",
    "Operator",
    "AffineOperator",
    "CallableOperator",
    "monotone_modulus",
    "lipschitz_constant",
    "contraction_params",
    "iteration_bound",
]


class NotStronglyMonotone(Exception):
    """Contraction parameters were requested for an operator with beta <= 0."""

    def __init__(self, beta: float):
        super().__init__(f"operator is not strongly monotone (beta={beta:.6g})")
        self.beta = beta


@dataclass(frozen=True)
class ContractionParams:
    beta: float
    lipschitz: float
    alpha: float
    gamma: float


def _check_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def monotone_modulus(M) -> float:
    """beta = smallest eigenvalue of (M + M^T)/2; negative means not monotone.

    Dense LAPACK symmetric eigensolver for every n: accurate to its backward
    error, a small multiple of n*eps*||M||, in either direction.
    """
    M = _check_square(M)
    S = 0.5 * (M + M.T)
    return float(scipy.linalg.eigvalsh(S, subset_by_index=[0, 0])[0])


def lipschitz_constant(M) -> float:
    """Spectral norm of M: the square root of the top eigenvalue of M^T M.

    Dense LAPACK symmetric eigensolver on the Gram matrix for every n:
    accurate to its backward error, a small multiple of n*eps*||M||, in
    either direction; it is not rounded up into an enclosure.
    """
    M = _check_square(M)
    n = M.shape[0]
    top = scipy.linalg.eigvalsh(M.T @ M, subset_by_index=[n - 1, n - 1])[0]
    return float(math.sqrt(max(top, 0.0)))


def _gamma(alpha: float, beta: float, lip: float) -> float:
    """Lipschitz constant of I - alpha*F, sqrt(1 - 2*alpha*beta + alpha**2 * L**2);
    with alpha = beta/L**2 it is sqrt(1 - beta**2/L**2)."""
    return math.sqrt(max(1.0 - 2.0 * alpha * beta + (alpha * lip) ** 2, 0.0))


def _params_from(beta: float, lip: float) -> ContractionParams:
    if beta <= 0.0:
        raise NotStronglyMonotone(beta)
    if lip <= 0.0:
        raise ValueError("Lipschitz constant must be positive")
    alpha = beta / lip**2
    return ContractionParams(beta=beta, lipschitz=lip, alpha=alpha, gamma=_gamma(alpha, beta, lip))


def contraction_params(M) -> ContractionParams:
    """(beta, L, alpha, gamma) for a strongly monotone matrix operator.

    Raises NotStronglyMonotone when beta <= 0; callers that only need
    monotonicity (the interior-point path) should catch it.
    """
    M = _check_square(M)
    return _params_from(monotone_modulus(M), lipschitz_constant(M))


def iteration_bound(gamma: float, eps: float) -> int:
    """Steps guaranteeing ||x_t - x*|| <= eps * ||x_0 - x*|| for a gamma-contraction."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return int(math.ceil(math.log(eps) / math.log(gamma)))


class Operator:
    """Evaluation x -> F(x) together with declared (beta, lipschitz) parameters."""

    dim: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def beta(self) -> float:
        raise NotImplementedError

    @property
    def lipschitz(self) -> float:
        raise NotImplementedError

    def contraction(self) -> ContractionParams:
        return _params_from(self.beta, self.lipschitz)


class AffineOperator(Operator):
    """F(x) = M x + q with derived monotonicity and Lipschitz parameters."""

    def __init__(self, M, q):
        M = _check_square(M)
        q = np.asarray(q, dtype=float)
        if q.shape != (M.shape[0],):
            raise ValueError(f"q has shape {q.shape}, expected ({M.shape[0]},)")
        if not np.all(np.isfinite(q)):
            raise ValueError("q has non-finite entries")
        self.M = M
        self.q = q

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x has shape {x.shape}, operator dimension is {self.dim}")
        return self.M @ x + self.q

    @cached_property
    def beta(self) -> float:
        return monotone_modulus(self.M)

    @cached_property
    def lipschitz(self) -> float:
        return lipschitz_constant(self.M)

    def __repr__(self) -> str:
        return f"AffineOperator(dim={self.dim})"


class CallableOperator(Operator):
    """Nonlinear operator with caller-declared (beta, lipschitz).

    The library does not estimate parameters for nonlinear maps; the caller
    vouches for 0 <= beta <= lipschitz.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int,
                 beta: float, lipschitz: float):
        if not 0 <= beta < math.inf:
            raise ValueError("declared beta must be finite and >= 0")
        if not 0 < lipschitz < math.inf or lipschitz < beta:
            raise ValueError("declared lipschitz must be finite, positive and >= beta")
        self._fn = fn
        self.dim = int(dim)
        self._beta = float(beta)
        self._lipschitz = float(lipschitz)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x has shape {x.shape}, operator dimension is {self.dim}")
        return np.asarray(self._fn(x), dtype=float)

    @property
    def beta(self) -> float:
        return self._beta

    @property
    def lipschitz(self) -> float:
        return self._lipschitz
