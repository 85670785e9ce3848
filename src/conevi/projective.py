"""Reduction of the Galerkin fixed point to a projective LCP and its
interior-point solver.

For a linear operator F(x) = Mx + q the two-projection Galerkin fixed point
solves CP(Nx + r, K) with N = I - P_span + alpha*P_span*M and
r = alpha*P_span*q. Storing N as I + Q W (Q the orthonormal basis factor,
W = alpha*Q^T M - Q^T) lets each interior-point Newton step run through a
Woodbury solve in O(n k'^2) instead of a dense O(n^3) factorization, and
the positive-definiteness check work on the rank <= 2k' symmetric part of
Q W in O(n k'^2) as well. Each Newton step forms and factors its k'xk'
Woodbury system once and solves with those factors twice, for Mehrotra's
predictor and corrector. The Newton diagonal varies only on the |B|
orthant components and is 1 on the |F| free ones, so the free rows' share
of the Woodbury system is formed once per solve in O(|F| k'^2), and a step
costs O(|B| k'^2 + k'^3). Once the guessed active set settles, an
active-set finish solves the LCP on it exactly with one more system of the
same size.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

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
    "woodbury_split",
    "factor_diag_plus_lowrank",
    "solve_diag_plus_lowrank",
    "solve_ipm",
]


# fraction-to-boundary factor: keeps (x, s) strictly positive on orthant rows
_STEP_FRACTION = 0.99


class IpmBreakdown(Exception):
    """The interior-point Newton system lost positivity or became singular."""


@dataclass(frozen=True)
class ProjectiveLcp:
    """The reduced problem CP(Nx + r, K) in identity-plus-low-rank form.

    N = I + ortho @ W is never materialized; apply() costs O(n k').
    """

    ortho: np.ndarray
    W: np.ndarray
    r: np.ndarray

    @property
    def n(self) -> int:
        return self.ortho.shape[0]

    def apply(self, x) -> np.ndarray:
        """N @ x in O(n k')."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, problem dimension is {self.n}")
        return x + self.ortho @ (self.W @ x)


@dataclass
class IpmConfig:
    """Stopping rule: mu <= mu_tol with x.s <= mu_tol (1 + ||x|| ||s||), and
    feasibility <= feas_tol (both as in IpmReport); or max_iter iterations.
    Both tolerances must be positive and finite."""

    mu_tol: float = 1e-10
    feas_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (0 < self.mu_tol < math.inf and 0 < self.feas_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class IpmReport:
    """Outcome of one interior-point solve.

    mu is the mean complementarity product x_i s_i over the orthant
    components and feasibility the largest residual of Nx + r = s (s is 0
    on free components), both at the returned x, also when the solve stops
    at max_iter; after an accepted active-set finish they are those of the
    finish point, so mu is 0.
    history holds one (mu, feasibility, step, sigma) row per Newton step:
    the first two at the iterate the step starts from, then its step length
    and centring weight. iterations counts the iterates measured, one more
    than the Newton steps taken. finish_attempts counts the active-set
    finishes tried and finish_accepted says whether one ended the solve.
    """

    x: np.ndarray
    converged: bool
    mu: float
    feasibility: float
    final_step_norm: float
    finish_attempts: int = 0
    finish_accepted: bool = False
    history: list[tuple[float, float, float, float]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.history) + 1


def build_projective(op: AffineOperator, basis: Basis, alpha: float) -> ProjectiveLcp:
    """Assemble the reduced problem for F(x) = Mx + q and the given basis.

    The only O(n^2 k') work (forming W) happens here, once.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if basis.n != op.dim:
        raise ValueError(f"basis dimension {basis.n} != operator dimension {op.dim}")
    Q = basis.ortho
    W = alpha * (Q.T @ op.M) - Q.T
    r = alpha * (Q @ (Q.T @ op.q))
    return ProjectiveLcp(ortho=Q, W=W, r=r)


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


def woodbury_split(Q: np.ndarray, W: np.ndarray, fixed: np.ndarray) -> tuple:
    """Precompute the share of the Woodbury system from rows where D is 1.

    Returns (fixed, I + W[:, fixed] Q[fixed], Q[~fixed], W[:, ~fixed]) for
    factor_diag_plus_lowrank, which then forms only the ~fixed rows' term at
    each call. Cost O(|fixed| k'^2), once.
    """
    fixed = np.asarray(fixed, dtype=bool)
    if fixed.shape != (Q.shape[0],):
        raise ValueError(f"fixed has shape {fixed.shape}, problem dimension is {Q.shape[0]}")
    k = Q.shape[1]
    return fixed, np.eye(k) + W[:, fixed] @ Q[fixed], Q[~fixed], W[:, ~fixed]


def factor_diag_plus_lowrank(D: np.ndarray, Q: np.ndarray, W: np.ndarray,
                             split: tuple | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """Factor diag(D) + Q W for the Woodbury identity; return its solve.

    The returned solve(b) computes u = D^-1 b, solves the k'xk' system
    (I + W D^-1 Q) t = W u with the LU factors formed here, and returns
    u - D^-1 Q t, in O(n k' + k'^2) per call. `split`, from
    woodbury_split(Q, W, F), carries the share I + W[:, F] Q[F] of the small
    system for rows F on which D must equal 1 exactly (ValueError
    otherwise), formed once in O(|F| k'^2). Forming and factoring then costs
    O(|B| k'^2 + k'^3), B the other rows (all n without a split). D_i = inf
    is allowed: it drops row i from the small system and pins y_i = 0, so
    the solve restricted to the other rows runs through the same path.
    Raises IpmBreakdown on a nonpositive D or an exactly singular small
    system.
    """
    D = np.asarray(D, dtype=float)
    if np.any(D <= 0):
        raise IpmBreakdown("diagonal lost positivity")
    k = Q.shape[1] if Q.ndim == 2 else 0
    if k == 0:
        return lambda b: np.asarray(b, dtype=float) / D
    fixed, G, Q_var, W_var = split if split is not None else woodbury_split(
        Q, W, np.zeros(D.shape, dtype=bool))
    if np.any(D[fixed] != 1.0):
        raise ValueError("D differs from 1 on the rows fixed by the split")
    lu, piv, info = scipy.linalg.lapack.dgetrf(G + W_var @ (Q_var / D[~fixed, None]))
    if info > 0:
        raise IpmBreakdown(f"singular {k}x{k} Woodbury system")

    def solve(b: np.ndarray) -> np.ndarray:
        u = np.asarray(b, dtype=float) / D
        t, _ = scipy.linalg.lapack.dgetrs(lu, piv, W @ u)
        return u - (Q @ t) / D

    return solve


def solve_diag_plus_lowrank(D: np.ndarray, Q: np.ndarray, W: np.ndarray,
                            rhs: np.ndarray, split: tuple | None = None) -> np.ndarray:
    """Solve (diag(D) + Q W) y = rhs by the Woodbury identity: one
    factor_diag_plus_lowrank call and one solve with its factors."""
    return factor_diag_plus_lowrank(D, Q, W, split)(rhs)


def _boundary_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t with v + t dv >= 0 for v > 0 (inf when dv >= 0)."""
    neg = dv < 0
    return float(np.min(-v[neg] / dv[neg])) if np.any(neg) else math.inf


def _newton_directions(solve, d: np.ndarray, x: np.ndarray, s: np.ndarray,
                       g: np.ndarray, B: np.ndarray, mu: float) -> tuple:
    """Mehrotra's affine predictor and centred corrector, both through `solve`.

    Each direction solves (N + diag(d)) dx = h - g, ds = h - d dx, which
    linearizes N dx - ds = -g, s dx + x ds = x h on B and keeps ds = 0 on
    the free rows, where s is 0. The predictor takes h = -s. The corrector
    adds (sigma mu - dx_aff ds_aff) / x on B, with sigma = (mu_aff / mu)^3 from
    the complementarity the predictor reaches at its longest feasible step.
    Returns (dx_aff, ds_aff, dx, ds, sigma); without orthant components
    the predictor is the whole step and sigma is 0.
    """
    h = -s
    dx_aff = solve(h - g)
    ds_aff = h - d * dx_aff
    if not B.any():
        return dx_aff, ds_aff, dx_aff, ds_aff, 0.0
    xb, sb, dxb, dsb = x[B], s[B], dx_aff[B], ds_aff[B]
    t = min(1.0, _boundary_step(xb, dxb), _boundary_step(sb, dsb))
    mu_aff = float((xb + t * dxb) @ (sb + t * dsb)) / xb.size
    sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3
    h[B] += (sigma * mu - dxb * dsb) / xb
    dx = solve(h - g)
    return dx_aff, ds_aff, dx, h - d * dx, sigma


def _active_guess(x: np.ndarray, s: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthant components the iterate predicts to end at x_i = 0."""
    return B & (x < s)


def _finish_candidate(plcp: ProjectiveLcp, active: np.ndarray, B: np.ndarray,
                      split: tuple) -> tuple | None:
    """The LCP point for a guessed active set A, or None if its system is
    singular or its signs fail.

    Sets x_A = 0 and solves (Nx + r)_I = 0 on I = ~A: D = inf on A and 1 on
    I restricts diag(D) + Q W to N_II, so the small system is the cached
    free rows' share plus the B \\ A rows, at the cost of one Newton step.
    Returns (x, feasibility), feasibility the largest |Nx + r| on I, when
    x_B >= 0 and (Nx + r)_A >= 0 for the orthant components B. Its slack
    s = Nx + r on A and 0 elsewhere meets x = 0 on A, so x.s is exactly 0:
    the point is complementary and only its feasibility needs a test.
    """
    try:
        x = solve_diag_plus_lowrank(np.where(active, np.inf, 1.0), plcp.ortho, plcp.W,
                                    -plcp.r, split)
    except IpmBreakdown:
        return None
    x = np.where(active, 0.0, x)  # -r_i / inf leaves -0.0 on A
    y = plcp.apply(x) + plcp.r
    if np.any(x[B] < 0.0) or np.any(y[active] < 0.0):
        return None
    return x, float(np.linalg.norm(y[~active], np.inf))


def solve_ipm(plcp: ProjectiveLcp, cone: SeparableCone,
              cfg: IpmConfig | None = None) -> IpmReport:
    """Primal-dual path following on CP(Nx + r, K) for a separable K, with an
    exact active-set finish.

    Orthant components carry complementarity pairs (x_i, s_i); free
    components are handled as pure equations (Nx + r)_i = 0. Each Newton
    step LU-factors its k'xk' Woodbury system once (factor_diag_plus_lowrank)
    and solves twice with the factors: Mehrotra's affine predictor and the
    corrector centred by sigma = (mu_aff / mu)^3. D is 1 on the |F| free
    components, so their share of that system is formed once per solve in
    O(|F| k'^2), and an iteration costs O(|B| k'^2 + k'^3) for the |B|
    orthant components. A common primal-dual step length with the
    fraction-to-boundary rule keeps the linear residual shrinking by
    (1 - step) each iteration.

    When the guessed active set A = {i in B : x_i < s_i} repeats from one
    iteration to the next and differs from the last rejected guess (the
    candidate depends on A alone, so retrying one would repeat it), one
    more factorization tries the finish: x_A = 0 and (Nx + r)_I = 0 on the
    rest. It ends the solve with mu = 0 if x_B >= 0, (Nx + r)_A >= 0 and its
    feasibility is within feas_tol, and takes precedence over an IPM point
    that passes the stopping test too; otherwise the iteration continues
    unchanged.
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
    split = woodbury_split(Q, W, F)

    # s stays 0 on the free rows: their Newton equations read N dx = -(Nx + r)
    # whatever s is, so a slack there would only track (Nx + r)_F
    x = np.where(B, 1.0, 0.0)
    s = np.where(B, np.maximum(plcp.apply(x) + r, 1.0), 0.0)

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
    history: list[tuple[float, float, float, float]] = []
    attempts = 0
    accepted = False
    guess = rejected = None
    for it in range(1, cfg.max_iter + 1):
        g = plcp.apply(x) + r - s
        feas = float(np.linalg.norm(g, np.inf))
        ok, mu = gap_ok(x, s)
        # tried before the stopping test: an accepted finish is exact where the
        # path stops about sqrt(mu) from degenerate components (an all-free
        # cone has no active set, and its finish would repeat a Newton step)
        previous, guess = guess, _active_guess(x, s, B)
        if (n_orth and np.array_equal(guess, previous)
                and not np.array_equal(guess, rejected)):
            attempts += 1
            finish = _finish_candidate(plcp, guess, B, split)
            if finish is not None and finish[1] <= cfg.feas_tol:
                step_norm = float(np.linalg.norm(finish[0] - x))
                x, feas = finish
                mu = 0.0
                converged = accepted = True
                break
            rejected = guess
        if ok and feas <= cfg.feas_tol:
            converged = True
            break
        if it == cfg.max_iter:
            break  # no step past the cap: x, mu and feas stay one iterate

        if np.any(x[B] <= 0.0):
            raise IpmBreakdown("orthant iterate lost positivity")
        d = np.zeros(plcp.n)
        d[B] = s[B] / x[B]
        _, _, dx, ds, sigma = _newton_directions(
            factor_diag_plus_lowrank(1.0 + d, Q, W, split), d, x, s, g, B, mu)

        bound = min(_boundary_step(x[B], dx[B]), _boundary_step(s[B], ds[B]))
        step = min(1.0, _STEP_FRACTION * bound)
        history.append((mu, feas, step, sigma))
        x = x + step * dx
        s = s + step * ds
        step_norm = step * float(np.linalg.norm(dx))

    return IpmReport(
        x=x,
        converged=converged,
        mu=mu,
        feasibility=feas,
        final_step_norm=step_norm,
        finish_attempts=attempts,
        finish_accepted=accepted,
        history=history,
    )
