"""Reduction of the Galerkin fixed point to a projective LCP and its
interior-point solver.

For a linear operator F(x) = Mx + q the two-projection Galerkin fixed point
solves CP(Nx + r, K) with N = I - P_span + alpha*P_span*M and
r = alpha*P_span*q. Storing N as I + Q W (Q the orthonormal basis factor,
W = alpha*Q^T M - Q^T) lets each interior-point Newton step run through a
Woodbury solve in O(n k'^2) instead of a dense O(n^3) factorization, and
the positive-definiteness check work on the rank <= 2k' symmetric part of
Q W in O(n k'^2) as well. Each Newton step factors its system
N + diag(D - 1) once (_newton states which system and its cost) and solves
with those factors twice, for Mehrotra's predictor and corrector. Once the
guessed active set settles, an active-set finish solves the LCP on it
exactly with one more system of the same size.

When the basis spans all of R^n (k' = n), Q is square and orthogonal, so
N = alpha*M and r = alpha*q, which only rescale CP(Mx + q): the original CP
is stored, Q as None and W as N = M itself, the operator's array, shared and
not copied. The positive-definiteness check is then beta of N, with no
product with Q and no n x n copy made at set-up. A polyhedral reduction
(conevi.transforms) is such a full span, with k' = 2m + n.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import Basis
from .cones import SeparableCone, _max_abs, _norm, _positive_int, _vector
from .operators import AffineOperator, monotone_modulus

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


class IpmBreakdown(Exception):
    """The interior-point Newton system lost positivity or finiteness, or
    became singular."""


@dataclass(frozen=True)
class ProjectiveLcp:
    """The reduced problem CP(Nx + r, K) in identity-plus-low-rank form.

    ortho is the dense n x k' factor Q, and N = I + ortho @ W is never
    materialized: apply() costs O(n k'). ortho is None for a basis of rank
    n, where W is N itself (n x n): build_projective stores the operator's
    M there, shared and never written. Either way every Newton matrix is
    N + diag(D - 1).
    """

    ortho: np.ndarray | None
    W: np.ndarray
    r: np.ndarray

    @property
    def n(self) -> int:
        return self.W.shape[1]

    def apply(self, x) -> np.ndarray:
        """N @ x in O(n k')."""
        x = _vector(x, self.n, "x")
        Wx = self.W @ x
        return Wx if self.ortho is None else x + self.ortho @ Wx


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
    (ortho None, W = op.M itself, r = q) in O(n), whatever alpha is. Below rank
    n, alpha defaults to op.contraction().alpha (NotStronglyMonotone when
    beta = 0), and forming W = alpha Q^T M - Q^T is the only O(n^2 k') work.
    """
    if alpha is not None and not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if basis.n != op.dim:
        raise ValueError(f"basis dimension {basis.n} != operator dimension {op.dim}")
    if basis.rank == basis.n:
        return ProjectiveLcp(ortho=None, W=op.M, r=np.array(op.q))
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
    eigenvalue of sym C is the monotone modulus of C (see
    conevi.operators).
    On a full span (ortho is None) W is N itself, and the result is its
    monotone modulus lambda_min(sym N), with no QR: op.beta when W is op.M.
    With k' = 0, N = I and the result is 1.
    """
    Q = plcp.ortho
    if Q is None:
        return monotone_modulus(plcp.W)
    if not plcp.W.shape[0]:
        return 1.0
    U, _ = np.linalg.qr(np.hstack([Q, plcp.W.T]))
    C = (U.T @ Q) @ (plcp.W @ U)
    smallest = 1.0 + monotone_modulus(C)
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
        raise IpmBreakdown(f"singular {A.shape[0]}x{A.shape[0]} Newton system")
    return lambda c: scipy.linalg.lapack.dgetrs(lu, piv, c, trans=1)[0]


def _plus_identity(A: np.ndarray) -> np.ndarray:
    """A + I for a square A, added in place."""
    A[np.diag_indices(A.shape[0])] += 1.0
    return A


def _over_diagonal(N: np.ndarray, D: np.ndarray) -> np.ndarray:
    """(N + diag(D - 1)) D^-1 = N diag(1/D) + diag(1 - 1/D) as one new array:
    I + (N - I) D^-1, with N - I never formed."""
    w = 1.0 / D
    G = N * w
    G[np.diag_indices(D.size)] += 1.0 - w
    return G


def _slack_pairs(N: np.ndarray, fixed: np.ndarray) -> np.ndarray | None:
    """The columns c of N's slack pairs, or None when N lacks the pattern.

    The pattern, checked in O(n |V|) from N's entries for the rows
    V = ~fixed (at least one): row V[j] of N is e_c[j] and column V[j] is
    -e_c[j], the c[j] are distinct fixed rows, and N[c, c] = 0. A polyhedral
    reduction has it, with V the slacks and c their multipliers (see
    conevi.transforms), also after eliminate_equalities.
    """
    V = np.flatnonzero(~fixed)
    if not V.size:
        return None
    j = np.arange(V.size)
    rows = N[V]
    c = rows.argmax(axis=1)
    if (np.count_nonzero(rows) != V.size or not np.all(rows[j, c] == 1.0)
            or not fixed[c].all() or np.unique(c).size != V.size):
        return None
    cols = N[:, V]
    if np.count_nonzero(cols) != V.size or not np.all(cols[c, j] == -1.0):
        return None
    return None if np.any(N[np.ix_(c, c)]) else c


def _pair_factor(N: np.ndarray, fixed: np.ndarray,
                 c: np.ndarray) -> Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """factor(D) for N with the slack pairs (V, c) of _slack_pairs: the solve
    of (N + diag(D - 1)) y = b, by eliminating each pair exactly.

    With d = D_V - 1, row V[j] reads y_c[j] + d_j y_V[j] = b_V[j] and row c[j]
    reads -y_V[j] + N[c[j], R] y_R = b_c[j]; no other row meets y_V. On the
    remaining rows R this leaves K y_R = b_R - N[R, c](b_V + d b_c) with
    K = N[R, R] - N[R, c] diag(d) N[c, R], M + A^T diag(d) A on a reduction.
    A pinned row (D = inf) drops out with y_V[j] = 0, and c[j] joins R as an
    equality row. Both eliminations pivot on +-I, so K is singular exactly
    when N + diag(D - 1) is; IpmBreakdown then, or when K overflows. The
    blocks of N with no row pinned, those of every Newton step, are taken
    once here.
    """
    V = np.flatnonzero(~fixed)

    def blocks(pinned: np.ndarray) -> tuple:
        keep = fixed.copy()
        keep[c[~pinned]] = False
        R, cv = np.flatnonzero(keep), c[~pinned]
        N_R = N[R]  # rows first: a gather of whole rows is the cheap one
        return R, N_R[:, R], N_R[:, cv], N[cv][:, R]

    unpinned = blocks(np.zeros(V.size, dtype=bool))

    def factor(D: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        pinned = np.isinf(D[V])
        R, N_RR, N_Rc, N_cR = blocks(pinned) if pinned.any() else unpinned
        v, cv = V[~pinned], c[~pinned]
        d = D[v] - 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            K = N_RR - (N_Rc * d) @ N_cR
        if not math.isfinite(_max_abs(K)):
            raise IpmBreakdown("Newton system is not finite")
        solve_K = _lu(K)

        def solve(b: np.ndarray) -> np.ndarray:
            y = np.zeros(b.size)
            with np.errstate(over="ignore", invalid="ignore"):
                y[R] = solve_K(b[R] - N_Rc @ (b[v] + d * b[cv]))
                y[v] = N_cR @ y[R] - b[cv]
                y[cv] = b[v] - d * y[v]
            if not math.isfinite(_max_abs(y)):
                raise IpmBreakdown("Newton solve is not finite")
            return y

        return solve

    return factor


def _newton(Q: np.ndarray | None, W: np.ndarray,
            fixed: np.ndarray) -> Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """factor(D) for the Newton matrices N + diag(D - 1) of one solve, with
    D = 1 on the rows `fixed` and >= 1 on V = ~fixed: it factors one system
    and returns the solve of (N + diag(D - 1)) y = b. D_i = inf pins y_i = 0.

    By the Woodbury identity y = u - D^-1 Q G(D)^-1 W u, u = D^-1 b, with
    G(D) = I + W D^-1 Q; for Q = None (N = W, k' = n) the same rule with Q = I
    and N - I in the place of W gives G(D) = (N + diag(D - 1)) D^-1. The
    route is chosen here, once per solve; each D then factors:
    - a dense Q: the k'xk' G(D), in O(n k'^2 + k'^3), for any positive D;
    - Q with k' = 0: nothing, N = I;
    - Q = None and N with slack pairs (_slack_pairs, a polyhedral reduction):
      each pair is eliminated exactly, and K on the other rows R is formed
      and factored in O(|R|^2 |V| + |R|^3) (see _pair_factor);
    - any other Q = None: G(D), n x n, formed from N in O(n^2) and factored
      in O(n^3), whichever rows are fixed.
    IpmBreakdown on a D that is not positive (NaN included) or an exactly
    singular system.
    """
    pair_factor = None
    if Q is not None and W.shape[0]:
        small = lambda D: _lu(_plus_identity(W @ (Q * (1.0 / D)[:, None])))
    elif Q is not None:  # k' = 0: N = I
        small = lambda D: lambda c: c
    elif fixed.any() and (pairs := _slack_pairs(W, fixed)) is not None:
        pair_factor = _pair_factor(W, fixed, pairs)
    else:
        small = lambda D: _lu(_over_diagonal(W, D))

    def factor(D: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        if not np.all(D > 0):
            raise IpmBreakdown("diagonal lost positivity")
        if pair_factor is not None:
            return pair_factor(D)
        solve_small = small(D)
        if Q is None:
            return lambda b: solve_small(b) / D

        def solve(b: np.ndarray) -> np.ndarray:
            u = b / D
            return u - Q @ solve_small(W @ u) / D

        return solve

    return factor


def solve_diag_plus_lowrank(factor: Callable, D: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """factor(D)(rhs), one system factored for one solve: the active-set
    finish's call, under its own name so that a profiler can time it."""
    return factor(D)(rhs)


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
                      factor: Callable) -> tuple | None:
    """The LCP point for a guessed active set A, or None if its system is
    singular or its signs fail.

    Sets x_A = 0 and solves (Nx + r)_I = 0 on I = ~A: D = inf on A and 1 on
    I restricts N + diag(D - 1) to N_II. It goes through the solve's
    factor (see _newton) at the cost of one Newton step.
    Returns (x, feasibility), feasibility the largest |Nx + r| on I, when
    x_B >= 0 and (Nx + r)_A >= 0 for the orthant components B. Its slack
    s = Nx + r on A and 0 elsewhere meets x = 0 on A, so x.s is exactly 0:
    the point is complementary and only its feasibility needs a test.
    """
    try:
        x = solve_diag_plus_lowrank(factor, np.where(active, np.inf, 1.0), -plcp.r)
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
    step factors its system N + diag(D - 1) once and solves twice with the
    factors: Mehrotra's affine predictor and the corrector centred by
    sigma = (mu_aff / mu)^3. The Newton diagonal D = 1 + s/x is 1 on the
    free components F and >= 1 on the orthant ones, so _newton(Q, W, F),
    made once per solve, sets the system each step factors: k'xk' for a
    dense Q; on a polyhedral reduction, whose slack pairs it eliminates,
    the system on the rows left; on any other full span n x n (its
    docstring has the costs). A common primal-dual step length with the
    fraction-to-boundary rule keeps the linear residual shrinking by
    (1 - step) each iteration.

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
    r = plcp.r
    factor = _newton(plcp.ortho, plcp.W, F)

    # s stays 0 on the free rows: their Newton equations read N dx = -(Nx + r)
    # whatever s is, so a slack there would only track (Nx + r)_F
    x = np.where(B, 1.0, 0.0)
    s = np.where(B, np.maximum(plcp.apply(x) + r, 1.0), 0.0)

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
            finish = _finish_candidate(plcp, guess, B, factor)
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
        d = np.zeros(plcp.n)
        with np.errstate(over="ignore"):  # an overflow is caught by the test below
            d[B] = s[B] / x[B]
        if not math.isfinite(_max_abs(d)):
            raise IpmBreakdown("Newton diagonal D = 1 + s/x is not finite")
        _, _, dx, ds, sigma = _newton_directions(factor(1.0 + d), d, x, s, g, B, mu)

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
    )
