"""Reduction of the Galerkin fixed point to a projective LCP and its
interior-point solver.

For a linear operator F(x) = Mx + q the two-projection Galerkin fixed point
solves CP(Nx + r, K) with N = I - P_span + alpha*P_span*M and
r = alpha*P_span*q. Storing N as I + Q W (Q the orthonormal basis factor,
W = alpha*Q^T M - Q^T) lets each interior-point Newton step run through a
Woodbury solve in O(n k'^2) instead of a dense O(n^3) factorization, and
the positive-definiteness check work on the rank <= 2k' symmetric part of
Q W in O(n k'^2) as well. Each Newton step factors its system once and
solves with those factors twice, for Mehrotra's predictor and corrector,
on the smaller side of the Woodbury identity (woodbury_split states the
rule and its costs). Once the guessed active set settles, an active-set
finish solves the LCP on it exactly with one more system of the same size.

When the basis spans all of R^n (k' = n), Q is square and orthogonal, so
N = alpha*M and r = alpha*q, which only rescale CP(Mx + q): the original CP
is stored, Q as None (the identity) and W = M - I, in O(n^2) instead of
O(n^3), and every product with Q in the Woodbury solve and the
positive-definiteness check is dropped or becomes a row gather or a column
scaling.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import Basis
from .cones import SeparableCone, _positive_int
from .operators import AffineOperator, _smallest_eigenvalue, _transpose_sum

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
    """The interior-point Newton system lost positivity or finiteness, or
    became singular."""


@dataclass(frozen=True)
class ProjectiveLcp:
    """The reduced problem CP(Nx + r, K) in identity-plus-low-rank form.

    N = I + ortho @ W is never materialized; apply() costs O(n k').
    ortho is None for the identity, which build_projective stores for a
    basis of rank n (N = I + W = M there), else the dense n x k' factor Q.
    """

    ortho: np.ndarray | None
    W: np.ndarray
    r: np.ndarray

    @property
    def n(self) -> int:
        return self.W.shape[1]

    def apply(self, x) -> np.ndarray:
        """N @ x in O(n k')."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, problem dimension is {self.n}")
        Wx = self.W @ x
        return x + (Wx if self.ortho is None else self.ortho @ Wx)


@dataclass
class IpmConfig:
    """Stopping rule: mu <= tol with x.s <= tol (1 + ||x|| ||s||), and
    feasibility <= tol (both as in IpmReport); or max_iter iterations. An
    active-set finish is accepted when its feasibility is within tol.
    tol must be positive and finite, max_iter a positive integer."""

    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        self.max_iter = _positive_int(self.max_iter, "max_iter")


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


def build_projective(op: AffineOperator, basis: Basis,
                     alpha: float | None = None) -> ProjectiveLcp:
    """Assemble the reduced problem for F(x) = Mx + q and the given basis.

    A basis of rank n gives N = alpha M and r = alpha q, whose CP has the
    solutions of CP(Mx + q) for every alpha > 0: the original CP is returned
    (ortho None, W = M - I, r = q) in O(n^2), whatever alpha is. Below rank
    n, alpha defaults to op.contraction().alpha (NotStronglyMonotone when
    beta = 0), and forming W = alpha Q^T M - Q^T is the only O(n^2 k') work.
    """
    if alpha is not None and not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if basis.n != op.dim:
        raise ValueError(f"basis dimension {basis.n} != operator dimension {op.dim}")
    if basis.rank == basis.n:
        W = np.array(op.M)
        W[np.diag_indices(basis.n)] -= 1.0
        return ProjectiveLcp(ortho=None, W=W, r=np.array(op.q))
    if alpha is None:
        alpha = op.contraction().alpha
    Q = basis.ortho
    W = Q.T @ op.M
    W *= alpha
    W -= Q.T
    return ProjectiveLcp(ortho=Q, W=W, r=alpha * (Q @ (Q.T @ op.q)))


def verify_pd(plcp: ProjectiveLcp) -> float:
    """Smallest eigenvalue of (N + N^T)/2; positive when M is PD and, on a
    proper subspace, alpha comes from the contraction parameters.

    N - I = Q W has its range and row space in range(U), U = qr([Q, W^T]),
    so the symmetric part is I + U sym(C) U^T with C = U^T Q W U. Its
    eigenvalues are 1 + eig(sym C), plus 1 on the complement of range(U)
    when U has fewer than n columns. Cost O(n k'^2). The smallest
    eigenvalue of sym C skips the coordinates it does not couple, as for
    beta (see conevi.operators).
    On a full span Q is the identity (ortho is None), so U = I and C = W,
    with no QR: the result is 1 + lambda_min(sym(M - I)) = lambda_min(sym M).
    """
    Q = plcp.ortho
    if Q is None:
        C = plcp.W
    else:
        U, _ = np.linalg.qr(np.hstack([Q, plcp.W.T]))
        C = (U.T @ Q) @ (plcp.W @ U)
    S = np.asarray_chkfinite(_transpose_sum(C))
    S *= 0.5
    smallest = 1.0 + _smallest_eigenvalue(S)
    return smallest if C.shape[0] == plcp.n else min(1.0, smallest)


def _lu(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """LU-factor the square A once and return its solve; IpmBreakdown when A
    is exactly singular.

    A is overwritten by the factors: every caller passes a matrix it has
    just built and never reads again. A C-ordered A is factored as its
    Fortran-ordered transpose, A^T = P L U, so LAPACK gets it without a
    copy, and the solve applies the factors transposed.
    """
    lu, piv, info = scipy.linalg.lapack.dgetrf(A.T, overwrite_a=True)
    if info > 0:
        raise IpmBreakdown(f"singular {A.shape[0]}x{A.shape[0]} Woodbury system")
    return lambda c: scipy.linalg.lapack.dgetrs(lu, piv, c, trans=1)[0]


def _times_ortho(A: np.ndarray, Q: np.ndarray | None, w: np.ndarray) -> np.ndarray:
    """A @ diag(w) @ Q as a new array; a column scaling of A when Q is None,
    the identity."""
    return A * w if Q is None else A @ (Q * w[:, None])


def _plus_identity(A: np.ndarray) -> np.ndarray:
    """A + I for a square A, added in place."""
    A[np.diag_indices(A.shape[0])] += 1.0
    return A


def _split(Q: np.ndarray | None, W: np.ndarray, fixed: np.ndarray,
           small_side: bool) -> tuple:
    """woodbury_split's (fixed, factor) on the side it names: the |V|x|V|
    system when small_side, else the k'xk' one.

    The k'xk' side is taken for Q = None only when every row varies (k' = n
    there), so Q[V] is then the whole identity and W serves as W[:, V], with
    no copy. A dense Q keeps the copies: W[:, V] is Fortran-ordered, and
    BLAS sums a product with the C-ordered W in another order."""
    varying = ~fixed
    Q_var = None if Q is None else Q[varying]
    W_var = W if Q is None and not fixed.any() else W[:, varying]
    G_c = _plus_identity(_times_ortho(W, Q, np.where(fixed, 1.0, 0.5)))
    if not small_side:
        def factor_k(D_var: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
            S = _times_ortho(W_var, Q_var, 1.0 / D_var - 0.5)
            S += G_c
            return _lu(S)

        return fixed, factor_k
    solve_c = _lu(G_c)
    T = solve_c(W_var)
    Z = T[varying] if Q is None else Q_var @ T

    def factor(D_var: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        if not D_var.size:  # no varying rows: the system is G_c itself
            return solve_c
        e = 1.0 / D_var - 0.5
        solve_var = _lu(_plus_identity(e[:, None] * Z))

        def solve(c):
            y = solve_c(c)
            return y - T @ solve_var(e * (y[varying] if Q is None else Q_var @ y))

        return solve

    return fixed, factor


def woodbury_split(Q: np.ndarray | None, W: np.ndarray, fixed: np.ndarray) -> tuple:
    """Precompute the per-solve share of the Woodbury system for diagonals D
    that are 1 on the rows `fixed` and >= 1 on the varying rows V = ~fixed.

    Returns (fixed, factor) for factor_diag_plus_lowrank, which calls
    factor(D[V]) once per D. Both sides start from one base matrix,
    G_c = I + W diag(1/D_c) Q with D_c = 1 on the fixed rows and 2 on V,
    formed once in O(n k'^2); any such D then gives
    I + W D^-1 Q = G_c + W[:, V] diag(e) Q[V], e = 1/D_V - 1/2. The side is
    min(k', |V|):
    - |V| >= k': each D forms that k'xk' sum and LU-factors it in
      O(|V| k'^2 + k'^3);
    - |V| < k': G_c is LU-factored once, with T = G_c^-1 W[:, V] and
      Z = Q[V] T, in O(k'^3 + |V|^2 k'); each D then LU-factors only the
      |V|x|V| system I + diag(e) Z in O(|V|^3) (the Woodbury identity
      applied a second time; |e| <= 1/2 because D_V >= 1, inf included),
      and a solve costs O(n k' + k'^2 + k' |V|).
    Q = None stands for the identity (k' = n, see ProjectiveLcp): every
    product with Q becomes a column scaling or a row gather of the other
    factor, so G_c costs O(n^2), Z O(|V| n) and the k'xk' sum O(n^2); the
    LU factorizations and T keep their costs.
    diag(D_c) + Q W is the Newton matrix N + diag(d) at d = 1 on V. For
    monotone N (N + N^T PSD), N + diag(d) with d > 0 on V is singular
    exactly when N has a null vector x with x_V = 0, whatever d is; so G_c
    is singular only if every such Newton matrix is, and on the |V| side
    IpmBreakdown is raised here in that case.
    """
    fixed = np.asarray(fixed, dtype=bool)
    k, n = W.shape
    if fixed.shape != (n,):
        raise ValueError(f"fixed has shape {fixed.shape}, problem dimension is {n}")
    return _split(Q, W, fixed, int((~fixed).sum()) < k)


def factor_diag_plus_lowrank(D: np.ndarray, Q: np.ndarray | None, W: np.ndarray,
                             split: tuple | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """Factor diag(D) + Q W for the Woodbury identity; return its solve.
    Q = None stands for the identity (W is then n x n, see ProjectiveLcp).

    The returned solve(b) computes u = D^-1 b, solves the k'xk' system
    (I + W D^-1 Q) t = W u with the factors formed here, and returns
    u - D^-1 Q t. Without a split, D may be any positive vector and the
    k'xk' system is formed and LU-factored here, O(n k'^2 + k'^3).
    `split`, from woodbury_split(Q, W, F), requires D = 1 exactly on the
    rows F and D >= 1 on the others (ValueError otherwise) and factors on
    the side woodbury_split chose.
    D_i = inf is allowed: it drops row i from the system and pins y_i = 0,
    so the solve restricted to the other rows runs through the same path.
    Raises IpmBreakdown on a D that is not positive (NaN included) or an
    exactly singular system.
    """
    D = np.asarray(D, dtype=float)
    if not np.all(D > 0):
        raise IpmBreakdown("diagonal lost positivity")
    if W.shape[0] == 0:
        return lambda b: np.asarray(b, dtype=float) / D
    if split is None:
        fixed, factor = _split(Q, W, np.zeros(D.shape, dtype=bool), small_side=False)
    else:
        fixed, factor = split
        if np.any(D[fixed] != 1.0):
            raise ValueError("D differs from 1 on the rows fixed by the split")
        if not np.all(D[~fixed] >= 1.0):
            raise ValueError("D is below 1 on the rows the split varies")
    solve_small = factor(D[~fixed])

    def solve(b: np.ndarray) -> np.ndarray:
        u = np.asarray(b, dtype=float) / D
        t = solve_small(W @ u)
        return u - (t if Q is None else Q @ t) / D

    return solve


def solve_diag_plus_lowrank(D: np.ndarray, Q: np.ndarray | None, W: np.ndarray,
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
    I restricts diag(D) + Q W to N_II. It goes through the solve's split at
    the cost of one Newton step.
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
    step factors its system once (factor_diag_plus_lowrank) and solves twice
    with the factors: Mehrotra's affine predictor and the corrector centred
    by sigma = (mu_aff / mu)^3. The Newton diagonal D = 1 + s/x is 1 on the
    free components and >= 1 on the orthant ones, so woodbury_split(Q, W, F),
    made once per solve, sets the side and the cost of each step. A common
    primal-dual step length with the fraction-to-boundary rule keeps the
    linear residual shrinking by (1 - step) each iteration.

    When the guessed active set A = {i in B : x_i < s_i} repeats from one
    iteration to the next and differs from the last rejected guess (the
    candidate depends on A alone, so retrying one would repeat it), one
    more factorization tries the finish: x_A = 0 and (Nx + r)_I = 0 on the
    rest. It ends the solve with mu = 0 if x_B >= 0, (Nx + r)_A >= 0 and its
    feasibility is within tol, and takes precedence over an IPM point
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
        return (mu_val <= cfg.tol and total <= cfg.tol * scale), mu_val

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
            if finish is not None and finish[1] <= cfg.tol:
                step_norm = float(np.linalg.norm(finish[0] - x))
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
        d = np.zeros(plcp.n)
        with np.errstate(over="ignore"):  # an overflow is caught by the test below
            d[B] = s[B] / x[B]
        if not np.all(np.isfinite(d)):
            raise IpmBreakdown("Newton diagonal D = 1 + s/x is not finite")
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
