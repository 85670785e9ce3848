"""Reduction of the Galerkin fixed point to a projective LCP and its
interior-point solver.

For a linear operator F(x) = Mx + q the two-projection Galerkin fixed point
solves CP(Nx + r, K) with N = I - P_span + alpha*P_span*M and
r = alpha*P_span*q, an affine monotone problem like any other: the reduced
problem is an AffineOperator with matrix N and offset r, and solve_ipm and
verify_pd take any AffineOperator.

Below rank n it is a ProjectiveLcp, which stores N as I + Q W (Q the
orthonormal basis factor, W = alpha*Q^T M - Q^T), and the
positive-definiteness check works on the rank <= 2k' symmetric part of
Q W in O(n k'^2). Each interior-point Newton step factors its system
N + diag(D - 1) once and solves with those factors twice, for Mehrotra's
predictor and corrector. The system is a function of D alone, and the
reduced problem's class chooses how to factor it: its _newton_factor(D)
returns the solve and states its route and cost. Once the guessed active
set settles, an active-set finish solves the LCP on it exactly with one
more system of the same kind.

When the basis spans all of R^n (k' = n), Q is square and orthogonal, so
N = alpha*M and r = alpha*q, which only rescale CP(Mx + q): build_projective
returns the operator itself. A plain operator's M is read in place, never
copied; a polyhedral reduction's operator (conevi.transforms) applies N
and forms its Newton systems from its blocks M, A and E, and no
(2m + n + p)^2 array is made. The positive-definiteness check is then the
operator's beta, with no product with Q and no n x n copy made at set-up.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import Basis
from .cones import (SeparableCone, _finite, _max_abs, _norm, _positive, _positive_int,
                    _same_dim, _vector)
from .operators import AffineOperator, IpmBreakdown, _lu, monotone_modulus

__all__ = [
    "IpmBreakdown",
    "ProjectiveLcp",
    "IpmConfig",
    "IpmReport",
    "build_projective",
    "verify_pd",
    "solve_ipm",
]


# fraction-to-boundary factor: keeps (x, s) strictly positive on orthant rows
_STEP_FRACTION = 0.99


def _plus_identity(A: np.ndarray) -> np.ndarray:
    """A + I for a square A, added in place."""
    A[np.diag_indices(A.shape[0])] += 1.0
    return A


class ProjectiveLcp(AffineOperator):
    """The reduced problem of a basis below rank n, F(x) = Nx + r with
    N = I + ortho @ W, in identity-plus-low-rank form.

    ortho is the dense n x k' factor Q with k' >= 1, W is k' x n, and r,
    the operator's q, has shape (n,). N @ x costs O(n k'); the dense N is
    written on the first read of .M. beta is the smallest eigenvalue of
    (N + N^T)/2, found in O(n k'^2) and cached: N - I = Q W has its range
    and row space in range(U), U = qr([Q, W^T]), so the symmetric part is
    I + U sym(C) U^T with C = U^T Q W U, whose eigenvalues are
    1 + eig(sym C), plus 1 on the complement of range(U) when U has fewer
    than n columns. The smallest eigenvalue of sym C is the monotone
    modulus of C (see conevi.operators).
    ValueError naming the input that has the wrong shape or a NaN or
    infinite entry.
    """

    def __init__(self, ortho, W, r):
        ortho = np.asarray(ortho, dtype=float)
        if ortho.ndim != 2:
            raise ValueError(f"ortho must be 2-D, got shape {ortho.shape}")
        n, k = ortho.shape
        if not k:
            raise ValueError("ortho has no columns; a basis has rank >= 1")
        W = np.asarray(W, dtype=float)
        if W.shape != (k, n):
            raise ValueError(f"W has shape {W.shape}, expected ({k}, {n})")
        self.ortho, self.W = _finite(ortho, "ortho"), _finite(W, "W")
        self.q = _finite(_vector(r, n, "r"), "r")

    @property
    def dim(self) -> int:
        return self.ortho.shape[0]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return x + self.ortho @ (self.W @ x)

    @cached_property
    def M(self) -> np.ndarray:
        return _plus_identity(self.ortho @ self.W)

    @cached_property
    def beta(self) -> float:
        Q = self.ortho
        U, _ = np.linalg.qr(np.hstack([Q, self.W.T]))
        C = (U.T @ Q) @ (self.W @ U)
        smallest = 1.0 + monotone_modulus(C)
        return smallest if C.shape[0] == self.dim else min(1.0, smallest)

    def _newton_factor(self, D: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The solve of (N + diag(D - 1)) y = b, N = I + Q W, for any positive
        D (see AffineOperator._newton_factor).

        By the Woodbury identity y = u - D^-1 Q G(D)^-1 W u, u = D^-1 b, with
        the k' x k' G(D) = I + W D^-1 Q: formed in O(n k'^2) and factored in
        O(k'^3), with no n x n array.
        """
        Q, W = self.ortho, self.W
        solve_small = _lu(_plus_identity(W @ (Q * (1.0 / D)[:, None])))

        def solve(b: np.ndarray) -> np.ndarray:
            u = b / D
            return u - Q @ solve_small(W @ u) / D

        return solve


@dataclass
class IpmConfig:
    """Stopping rule: mu <= tol with x.s <= tol (1 + ||x|| ||s||), and
    feasibility <= tol (both as in IpmReport); or max_iter iterations. An
    active-set finish is accepted when its feasibility is within tol.
    tol must be positive and finite, max_iter a positive integer."""

    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        _positive(self.tol, "tol")
        self.max_iter = _positive_int(self.max_iter, "max_iter")


@dataclass
class IpmReport:
    """Outcome of one interior-point solve.

    mu is the mean complementarity product x_i s_i over the orthant
    components and feasibility the largest residual of Nx + r = s (s is 0
    on free components; zero-segment rows, where x is pinned at 0 and
    Nx + r is free, are left out), both at the returned x, also when the
    solve stops at max_iter; after an accepted active-set finish they are
    those of the finish point, so mu is 0.
    history holds one (mu, feasibility, step, sigma) row per Newton step:
    the first two at the iterate the step starts from, then its step length
    and centring weight. iterations counts the iterates measured, one more
    than the Newton steps taken. finish_attempts counts the active-set
    finishes tried and finish_accepted says whether one ended the solve.
    residual is the natural residual of the returned x in CP(F, K) (see
    _residual), with y = F @ x + F.q: ||min(x_B, y_B), y_F||_inf over
    ||x||_inf + ||F.q||_inf, 0 on the zero rows. It is unchanged when x and
    F.q scale together with N fixed, but not when F is multiplied by c > 0 at
    a fixed x.
    """

    x: np.ndarray
    converged: bool
    mu: float
    feasibility: float
    finish_attempts: int = 0
    finish_accepted: bool = False
    history: list[tuple[float, float, float, float]] = field(default_factory=list)
    residual: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.history) + 1


def _residual(x: np.ndarray, x_next: np.ndarray, g0: float) -> float:
    """The natural residual rho = ||x - x_next||_inf / (||x||_inf + g0) of x
    in VI(G, K), where x_next = P_K(x - G(x)) and g0 = ||G(0)||_inf: 0 exactly
    at a solution, 0 for a zero step (which a zero denominator forces), and
    unchanged when x, x_next and g0 scale together. At a fixed x it changes
    when G is multiplied by c > 0: on orthant(1) at x = 1 it is 1/3 for
    G = 0.5 and 1/2 for G = 1. The projection methods' reports are unchanged
    under F -> cF only because alpha = beta/L**2 absorbs c, so that
    G = alpha F does not change. The one measure of how well a report's x
    solves its problem, and the stopping test of the projection methods,
    for all four methods.
    """
    step = _max_abs(x - x_next)
    return step / (_max_abs(x) + g0) if step else 0.0


def build_projective(op: AffineOperator, basis: Basis,
                     alpha: float | None = None) -> AffineOperator:
    """The reduced problem CP(Nx + r) for F(x) = Mx + q and the given basis.

    A basis of rank n gives N = alpha M and r = alpha q, whose CP has the
    solutions of CP(Mx + q) for every alpha > 0: op itself is returned,
    whatever alpha is, and op.M is not read, so a polyhedral reduction
    (conevi.transforms) builds no dense array. Below rank n it returns the
    ProjectiveLcp of Q = basis.ortho, W = alpha Q^T M - Q^T and
    r = alpha Q Q^T q; alpha defaults to op.contraction().alpha
    (NotStronglyMonotone when beta = 0), and forming W is the only
    O(n^2 k') work. TypeError when op is not an AffineOperator.
    """
    if not isinstance(op, AffineOperator):
        raise TypeError(f"build_projective needs an AffineOperator, got {type(op).__name__}")
    if alpha is not None:
        _positive(alpha, "alpha")
    _same_dim("basis", basis.n, "operator", op.dim)
    if basis.rank == basis.n:
        return op
    if alpha is None:
        alpha = op.contraction().alpha
    Q = basis.ortho
    W = Q.T @ op.M
    W *= alpha
    W -= Q.T
    return ProjectiveLcp(Q, W, alpha * (Q @ (Q.T @ op.q)))


def verify_pd(F: AffineOperator) -> float:
    """Smallest eigenvalue of (N + N^T)/2 for the reduced problem F with
    matrix N: its beta, which F caches. Positive when M is PD and, on a
    proper subspace, alpha comes from the contraction parameters. A
    ProjectiveLcp finds it in O(n k'^2) with no n x n array; a full span's
    operator is the original one, whose beta needs no product with Q.
    """
    return F.beta


def _newton(F: AffineOperator, D: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of the Newton system (N + diag(D - 1)) y = b on the reduced
    problem F with matrix N, factored once: F's own system,
    F._newton_factor(D), whose docstring states it and its cost
    (AffineOperator, ProjectiveLcp and a polyhedral reduction's operator
    each have one, and each reads its route from D alone).
    IpmBreakdown on a D that is not positive (NaN included), before any
    factorization, or on an exactly singular system.
    """
    if not np.all(D > 0):
        raise IpmBreakdown("diagonal lost positivity")
    return F._newton_factor(D)


def solve_diag_plus_lowrank(F: AffineOperator, D: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """_newton(F, D)(rhs), one system factored for one solve: the active-set
    finish's call, under its own name so that a profiler can time it."""
    return _newton(F, D)(rhs)


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
    the predictor is the whole step and sigma is 0. IpmBreakdown when the
    corrector's right-hand side is not finite.
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
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the test below
        h[B] += (sigma * mu - dxb * dsb) / xb
    if not math.isfinite(_max_abs(h)):
        raise IpmBreakdown("Newton corrector is not finite")
    dx = solve(h - g)
    return dx_aff, ds_aff, dx, h - d * dx, sigma


def _active_guess(x: np.ndarray, s: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthant components the iterate predicts to end at x_i = 0."""
    return B & (x < s)


def _finish_candidate(F: AffineOperator, active: np.ndarray, B: np.ndarray) -> tuple | None:
    """The CP point for a guessed active set A, or None if its system is
    singular or its signs fail.

    F(x) = Nx + r is the reduced problem and A holds the orthant components
    guessed at 0 and every zero-segment row. Sets x_A = 0 and solves
    (Nx + r)_I = 0 on I = ~A: D = inf on A and 1 on I restricts
    N + diag(D - 1) to N_II. It goes through _newton at the cost of one
    Newton step.
    Returns (x, feasibility), feasibility the largest |Nx + r| on I, when
    x_B >= 0 and (Nx + r)_i >= 0 on A's orthant components i in B; a zero
    row's (Nx + r)_i has no sign to test. Its slack s = Nx + r on A and 0
    elsewhere meets x = 0 on A, so x.s is exactly 0: the point is
    complementary and only its feasibility needs a test.
    """
    try:
        x = solve_diag_plus_lowrank(F, np.where(active, np.inf, 1.0), -F.q)
    except IpmBreakdown:
        return None
    x = np.where(active, 0.0, x)  # -r_i / inf leaves -0.0 on A
    y = F @ x + F.q
    if np.any(x[B] < 0.0) or np.any(y[active & B] < 0.0):
        return None
    return x, _max_abs(y[~active])


def solve_ipm(F: AffineOperator, cone: SeparableCone,
              cfg: IpmConfig | None = None) -> IpmReport:
    """Primal-dual path following on CP(Nx + r, K) for a separable K and the
    reduced problem F(x) = Nx + r, any AffineOperator, with an exact
    active-set finish.

    Orthant components carry complementarity pairs (x_i, s_i); free
    components are handled as pure equations (Nx + r)_i = 0. A zero-segment
    row is a row pinned at x_i = 0, as the finish pins its active set: D is
    inf there in every Newton step, so x_i never moves from 0, its
    (Nx + r)_i is left out of the residual and the feasibility, and it joins
    every finish's active set with no sign test. Each Newton step factors
    its system N + diag(D - 1) once and solves twice with the factors:
    Mehrotra's affine predictor and the corrector centred by
    sigma = (mu_aff / mu)^3. The Newton diagonal D = 1 + s/x is 1 on the
    free components and >= 1 on the orthant ones; F's _newton_factor(D),
    through _newton once per Newton step and per finish attempt, factors
    the system and states its cost. N is applied as F @ x + F.q, so F(x),
    which a profiler may count as an evaluation of the original operator,
    is never called.
    A common primal-dual step length with the fraction-to-boundary rule
    keeps the linear residual shrinking by (1 - step) each iteration.

    When the guessed active set A = {i in B : x_i < s_i} repeats from one
    iteration to the next and differs from the last rejected guess (the
    candidate depends on A alone, so retrying one would repeat it), one
    more factorization tries the finish: x = 0 on A and the zero rows, and
    (Nx + r)_I = 0 on the rest I. It ends the solve with mu = 0 if x_B >= 0,
    (Nx + r)_A >= 0 and its feasibility is within tol, and takes precedence
    over an IPM point that passes the stopping test too; otherwise the
    iteration continues unchanged. TypeError when F is not an AffineOperator.
    """
    if not isinstance(F, AffineOperator):
        raise TypeError(f"solve_ipm needs an AffineOperator, got {type(F).__name__}")
    cfg = cfg or IpmConfig()
    _same_dim("cone", cone.dim, "problem", F.dim)

    B, Z = cone.nonneg_mask, cone.zero_mask
    n_orth = int(B.sum())
    r = F.q

    # s stays 0 on the free rows: their Newton equations read N dx = -(Nx + r)
    # whatever s is, so a slack there would only track Nx + r there
    x = np.where(B, 1.0, 0.0)
    s = np.where(B, np.maximum(F @ x + r, 1.0), 0.0)

    def gap_ok(xv, sv) -> tuple[bool, float]:
        if not n_orth:
            return True, 0.0
        total = float(xv[B] @ sv[B])
        mu_val = total / n_orth
        scale = 1.0 + _norm(xv) * _norm(sv)
        return (mu_val <= cfg.tol and total <= cfg.tol * scale), mu_val

    mu = math.inf
    feas = math.inf
    converged = False
    history: list[tuple[float, float, float, float]] = []
    attempts = 0
    accepted = False
    guess = rejected = None
    for it in range(1, cfg.max_iter + 1):
        g = F @ x + r - s
        g[Z] = 0.0  # a zero row's equation is free: its (Nx + r)_i is never a slack
        feas = _max_abs(g)
        ok, mu = gap_ok(x, s)
        # tried before the stopping test: an accepted finish is exact where the
        # path stops about sqrt(mu) from degenerate components (an all-free
        # cone has no active set, and its finish would repeat a Newton step)
        previous, guess = guess, _active_guess(x, s, B)
        if (n_orth and np.array_equal(guess, previous)
                and not np.array_equal(guess, rejected)):
            attempts += 1
            finish = _finish_candidate(F, guess | Z, B)
            if finish is not None and finish[1] <= cfg.tol:
                x, feas = finish
                mu = 0.0
                converged = accepted = True
                break
            rejected = guess
        if ok and feas <= cfg.tol:
            converged = True
            break
        if it == cfg.max_iter:
            break  # no step past the cap: x, mu and feas stay one iterate

        if not np.all(x[B] > 0.0):
            raise IpmBreakdown("orthant iterate lost positivity")
        d = np.zeros(F.dim)
        with np.errstate(over="ignore"):  # an overflow is caught by the test below
            d[B] = s[B] / x[B]
        if not math.isfinite(_max_abs(d)):
            raise IpmBreakdown("Newton diagonal D = 1 + s/x is not finite")
        # D = inf pins a zero row, where d, h and g are 0: dx = ds = 0 there, so
        # x and s stay exactly 0 and no inf * 0 is formed
        _, _, dx, ds, sigma = _newton_directions(_newton(F, np.where(Z, np.inf, 1.0 + d)),
                                                 d, x, s, g, B, mu)

        bound = min(_boundary_step(x[B], dx[B]), _boundary_step(s[B], ds[B]))
        step = min(1.0, _STEP_FRACTION * bound)
        history.append((mu, feas, step, sigma))
        x = x + step * dx
        s = s + step * ds

    return IpmReport(
        x=x,
        converged=converged,
        mu=mu,
        feasibility=feas,
        finish_attempts=attempts,
        finish_accepted=accepted,
        history=history,
        residual=_residual(x, cone.project(x - (F @ x + r)), _max_abs(r)),
    )
