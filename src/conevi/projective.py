"""Reduction of the Galerkin fixed point to a projective LCP and its
interior-point solver.

For a linear operator F(x) = Mx + q the two-projection Galerkin fixed point
solves CP(Nx + r, K) with N = I - P_span + alpha*P_span*M and
r = alpha*P_span*q. Storing N as I + Q W (Q the orthonormal basis factor,
W = alpha*Q^T M - Q^T) lets each interior-point Newton step run through a
Woodbury solve in O(n k'^2) instead of a dense O(n^3) factorization, and
the positive-definiteness check work on the rank <= 2k' symmetric part of
Q W in O(n k'^2) as well. Each Newton step forms and factors its k'xk'
Woodbury system once; the refinement pass reuses those factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import Basis
from .cones import SeparableCone
from .operators import AffineOperator

__all__ = [
    "IpmBreakdown",
    "ProjectiveLcp",
    "IpmConfig",
    "IpmReport",
    "build_projective",
    "verify_pd",
    "solve_diag_plus_lowrank",
    "solve_ipm",
]


class IpmBreakdown(Exception):
    """The interior-point Newton system lost positivity or became singular."""


@dataclass(frozen=True)
class ProjectiveLcp:
    """The reduced problem CP(Nx + r, K) in identity-plus-low-rank form.

    N = I + ortho @ W is never materialized; apply() costs O(n k').
    """

    n: int
    rank: int
    ortho: np.ndarray
    W: np.ndarray
    r: np.ndarray
    alpha: float

    def apply(self, x) -> np.ndarray:
        """N @ x in O(n k')."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, problem dimension is {self.n}")
        return x + self.ortho @ (self.W @ x)


@dataclass
class IpmConfig:
    """Path-following parameters.

    sigma is the centering weight; step_fraction the fraction-to-boundary
    factor keeping (x, s) strictly positive on orthant components.
    """

    mu_tol: float = 1e-10
    feas_tol: float = 1e-10
    max_iter: int = 200
    step_fraction: float = 0.99
    sigma: float = 0.1

    def __post_init__(self) -> None:
        if self.mu_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.step_fraction < 1.0):
            raise ValueError("step_fraction must be in (0, 1)")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("sigma must be in (0, 1)")


@dataclass
class IpmReport:
    """Outcome of one interior-point solve.

    mu is the mean complementarity product x_i s_i over the orthant
    components and feasibility the largest residual of Nx + r = s (and of
    s = 0 on free components), both at the last iterate.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    mu: float
    feasibility: float
    final_step_norm: float
    alpha: float


def build_projective(op: AffineOperator, basis: Basis, alpha: float) -> ProjectiveLcp:
    """Assemble the reduced problem for F(x) = Mx + q and the given basis.

    The only O(n^2 k') work (forming W) happens here, once.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if basis.n != op.dim:
        raise ValueError(f"basis dimension {basis.n} != operator dimension {op.dim}")
    Q = basis.ortho
    W = alpha * (Q.T @ op.M) - Q.T
    r = alpha * (Q @ (Q.T @ op.q))
    return ProjectiveLcp(n=op.dim, rank=basis.rank, ortho=Q, W=W, r=r, alpha=float(alpha))


def verify_pd(plcp: ProjectiveLcp) -> float:
    """Smallest eigenvalue of (N + N^T)/2; positive when M is PD and
    alpha comes from the contraction parameters.

    N - I = Q W has its range and row space in range(U), U = qr([Q, W^T]),
    so the symmetric part is I + U sym(C) U^T with C = U^T Q W U. Its
    eigenvalues are 1 + eig(sym C), plus 1 on the complement of range(U)
    when U has fewer than n columns. Cost O(n k'^2).
    """
    U, _ = np.linalg.qr(np.hstack([plcp.ortho, plcp.W.T]))
    C = (U.T @ plcp.ortho) @ (plcp.W @ U)
    smallest = 1.0 + float(scipy.linalg.eigvalsh(0.5 * (C + C.T), subset_by_index=[0, 0])[0])
    return smallest if U.shape[1] == plcp.n else min(1.0, smallest)


def solve_diag_plus_lowrank(D: np.ndarray, Q: np.ndarray, W: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(D) + Q W) y = rhs by the Woodbury identity.

    u = D^-1 rhs; solve the k'xk' system (I + W D^-1 Q) t = W u; return
    u - D^-1 Q t. The small system is formed and LU-factored once; one
    refinement pass then solves for the residual rhs - (D y + Q W y) with
    the same factors. Cost O(n k'^2 + k'^3) for the factorization plus
    O(n k' + k'^2) per solve. Raises IpmBreakdown on a nonpositive D or an
    exactly singular small system.
    """
    D = np.asarray(D, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if np.any(D <= 0):
        raise IpmBreakdown("diagonal lost positivity")
    k = Q.shape[1] if Q.ndim == 2 else 0
    if k == 0:
        return rhs / D
    lu, piv, info = scipy.linalg.lapack.dgetrf(np.eye(k) + W @ (Q / D[:, None]))
    if info > 0:
        raise IpmBreakdown(f"singular {k}x{k} Woodbury system")

    def solve(b: np.ndarray) -> np.ndarray:
        u = b / D
        t, _ = scipy.linalg.lapack.dgetrs(lu, piv, W @ u)
        return u - (Q @ t) / D

    y = solve(rhs)
    # one refinement pass; in the IPM the diagonal spread grows like 1/mu near the end
    return y + solve(rhs - (D * y + Q @ (W @ y)))


def solve_ipm(plcp: ProjectiveLcp, cone: SeparableCone,
              cfg: IpmConfig | None = None) -> IpmReport:
    """Primal-dual path following on CP(Nx + r, K) for a separable K.

    Orthant components carry complementarity pairs (x_i, s_i); free
    components are handled as pure equations (Nx + r)_i = 0. Each Newton
    step eliminates ds and solves ((I + D) + Q W) dx with one call to
    solve_diag_plus_lowrank, which factors the k'xk' Woodbury system once
    and reuses it for its refinement pass, so an iteration costs
    O(n k'^2). A common primal-dual step length with the
    fraction-to-boundary rule keeps the linear residual shrinking by
    (1 - step) each iteration.
    """
    cfg = cfg or IpmConfig()
    if cone.dim != plcp.n:
        raise ValueError(f"cone dimension {cone.dim} != problem dimension {plcp.n}")
    if cone.zero_mask.any():
        raise ValueError("zero-constrained segments are not a feasible set for the IPM")

    B = cone.nonneg_mask
    F = cone.free_mask
    n_orth = int(B.sum())
    Q, W, r = plcp.ortho, plcp.W, plcp.r

    x = np.where(B, 1.0, 0.0)
    s = plcp.apply(x) + r
    if n_orth:
        s[B] = np.maximum(s[B], 1.0)

    def gap_ok(xv, sv) -> tuple[bool, float]:
        if not n_orth:
            return True, 0.0
        total = float(xv[B] @ sv[B])
        mu_val = total / n_orth
        scale = 1.0 + float(np.linalg.norm(xv)) * float(np.linalg.norm(sv))
        return (mu_val <= cfg.mu_tol and total <= cfg.mu_tol * scale), mu_val

    step_norm = 0.0
    mu = math.inf
    feas = math.inf
    converged = False
    iters = 0
    for it in range(1, cfg.max_iter + 1):
        iters = it
        g = plcp.apply(x) + r - s
        feas = float(np.linalg.norm(g, np.inf))
        if F.any():
            feas = max(feas, float(np.linalg.norm(s[F], np.inf)))
        ok, mu = gap_ok(x, s)
        if ok and feas <= cfg.feas_tol:
            converged = True
            break

        if n_orth and np.any(x[B] <= 0.0):
            raise IpmBreakdown("orthant iterate lost positivity")
        d = np.zeros(plcp.n)
        h = np.empty(plcp.n)
        if n_orth:
            d[B] = s[B] / x[B]
            h[B] = cfg.sigma * mu / x[B] - s[B]
        h[F] = -s[F]

        dx = solve_diag_plus_lowrank(1.0 + d, Q, W, h - g)
        ds = -d * dx + h

        step = 1.0
        if n_orth:
            for vec, dvec in ((x[B], dx[B]), (s[B], ds[B])):
                neg = dvec < 0
                if np.any(neg):
                    step = min(step, cfg.step_fraction * float(np.min(-vec[neg] / dvec[neg])))
        x = x + step * dx
        s = s + step * ds
        step_norm = step * float(np.linalg.norm(dx))

    return IpmReport(
        x=x,
        iterations=iters,
        converged=converged,
        mu=mu,
        feasibility=feas,
        final_step_norm=step_norm,
        alpha=plcp.alpha,
    )
