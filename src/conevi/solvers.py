"""Fixed-point solvers: exact projection, intersection-Galerkin, and
two-projection Galerkin, plus error bounds and optimality certificates.

All three methods are one update x <- P(x - G(x)) from x = 0, run by one
driver, for one pair (G, P) each:

  exact:      (alpha F, P_C)
  Galerkin:   (G_S, P_C), reporting z_bar = x_T - G_S(x_T), x_bar = P_C(z_bar)
  Bertsekas:  (G_S, P_{C & span}), valid since P_{C & S} = P_{C & S} o P_S

where x - G_S(x) = P_span(x - alpha F(x)). For an AffineOperator below
rank n, G_S is the reduced operator build_projective(op, basis, alpha),
applied in O(n k') per step; otherwise it is x - P_span(x - alpha F(x)).
The driver stops at the first iterate x_t whose natural residual
||x_t - P(x_t - G(x_t))||_inf / (||x_t||_inf + ||G(0)||_inf), the step it
takes anyway, is at most tol (Facchinei & Pang 2003, ch. 1.5 and 6), and
reports it: the same answer when F is multiplied by c > 0, and c times it
when q alone is.
For strongly monotone F with alpha = beta/L**2 every update contracts with
factor gamma = sqrt(1 - beta**2/L**2), which yields the a-priori error
bounds reported by bound_report. bound_report and the optimality
certificate of certify check within one allowance in the units of that
stop, _allowance = 1e-8 (||x||_inf + alpha ||F(0)||_inf), so their
verdicts do not change with the problem's scale either. The projection
onto C & span(Phi) is exact: a k'-variable quadratic program whose dual
is a nonnegative least squares problem, solved by Lawson and Hanson's
active-set method (_nnls).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.linalg.lapack import dgelsy

from . import projective
from .basis import DROP_TOL, Basis
from .cones import (SeparableCone, _finite, _max_abs, _norm, _positive, _positive_int,
                    _same_dim, _vector)
from .operators import AffineOperator, NotStronglyMonotone, Operator, _gamma, iteration_bound

# the one relative tolerance of the optimality certificate and of
# bound_report's bound checks; see _allowance
_TOL = 1e-8
_EPS = float(np.finfo(float).eps)

__all__ = [
    "IntersectionProjectionFailed",
    "SolveConfig",
    "OptimalityCertificate",
    "SolveReport",
    "BoundComparison",
    "solve_exact",
    "solve_bertsekas",
    "solve_galerkin",
    "project_intersection",
    "certify",
    "bound_report",
]


class IntersectionProjectionFailed(Exception):
    """The projection onto C & span(Phi) failed: NNLS hit its iteration cap,
    or the result missed C by more than basis.DROP_TOL."""


@dataclass
class SolveConfig:
    """Knobs shared by the fixed-point solvers.

    alpha_override runs an explicit step size without the strong-monotonicity
    guarantee: there converged means only rho_t <= tol, which a diverging
    run can meet, since rho's denominator grows with ||x_t||_inf while the
    step stays alpha (on F(x) = 0x - 1 over orthant(1), which has no
    solution, alpha_override=1 and tol=1e-3 report converged after 1000
    evaluations at x = 999). tol is the threshold on the scale-free residual
    rho_t = ||x_t - P(x_t - G(x_t))||_inf / (||x_t||_inf + ||G(0)||_inf)
    that every method stops on (see _fixed_point). A step to a point
    x - G(x) with a NaN or infinite entry stops every method at once,
    unconverged, with a NaN residual. max_iter caps the evaluations of G
    and defaults to 100x the certified iteration bound when a contraction
    factor is available, else 10000. Every method starts from x = 0, which
    lies in every separable cone. alpha_override and tol must be positive
    and finite, max_iter a positive integer.
    """

    alpha_override: float | None = None
    tol: float = 1e-10
    max_iter: int | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.alpha_override is not None:
            _positive(self.alpha_override, "alpha_override")
        _positive(self.tol, "tol")
        if self.max_iter is not None:
            self.max_iter = _positive_int(self.max_iter, "max_iter")


@dataclass
class OptimalityCertificate:
    """Residual-based certificate for a two-projection Galerkin fixed point.

    epsilon is the residual that shifts -F(x_bar) into the normal cone at
    x_bar = P_C(z_bar); normal_cone_ok says that x_bar is P_C(z_bar) within
    the allowance of certify, and allowance is that allowance over alpha,
    the one bound on null_space_violation = ||Phi^T epsilon||. A valid
    certificate passes both.
    """

    epsilon: np.ndarray
    normal_cone_ok: bool
    null_space_violation: float
    complementarity_gap: float
    allowance: float

    @property
    def valid(self) -> bool:
        return self.normal_cone_ok and self.null_space_violation <= self.allowance


@dataclass
class SolveReport:
    """Outcome of one solve: iterate(s), convergence data, and certificates.

    residuals holds the residual rho_t of every iterate x_t the solve
    measured, one per evaluation of G (see _fixed_point); iterations is its
    length, and iterates (with cfg.trace) are those x_0, ..., x_T. residual
    is rho_T, NaN when x_T - G(x_T) is not finite, and converged is
    residual <= tol. For exact and Bertsekas x is x_T. A Galerkin solve
    reports z = x_T - G_S(x_T) and x = P_C(z), one update past x_T, with
    the certificate of that pair; its residual is still that of x_T. rho is
    that of the step the method takes: of alpha F over C for exact, of G_S
    over C for Galerkin, and of alpha F over C & span for Bertsekas, since
    P_{C & span} o P_span = P_{C & span}.
    """

    x: np.ndarray
    gamma: float
    alpha: float
    converged: bool
    z: np.ndarray | None = None
    certificate: OptimalityCertificate | None = None
    residuals: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def residual(self) -> float:
        return self.residuals[-1] if self.residuals else math.nan

    def distances_to_final(self) -> np.ndarray:
        """||x_t - x_T|| for every logged iterate; needs trace=True."""
        if not self.iterates:
            raise ValueError("no iterates were logged; solve with trace=True")
        last = self.iterates[-1]
        return np.array([_norm(it - last) for it in self.iterates])

    def trace_rows(self) -> list[tuple[int, float, float]]:
        """(t, residual, distance_to_final) for evaluation t = 1, ..., T, of
        the iterate that evaluation measured."""
        return [(t, rho, float(d)) for t, (rho, d)
                in enumerate(zip(self.residuals, self.distances_to_final()), 1)]


def _step_params(op: Operator, cfg: SolveConfig) -> tuple[float, float]:
    """(alpha, gamma): the operator's contraction parameters, or the override
    step with gamma the Lipschitz constant of I - alpha*F at that step."""
    if cfg.alpha_override is None:
        params = op.contraction()
        return params.alpha, params.gamma
    alpha = float(cfg.alpha_override)
    return alpha, _gamma(alpha, float(op.beta), float(op.lipschitz))


def _allowance(op: Operator, x: np.ndarray, alpha: float) -> float:
    """_TOL * (||x||_inf + alpha ||F(0)||_inf): the allowance at x of the
    certificate and of bound_report, in the units of the solves' relative
    stop. It is unchanged when F is multiplied by c > 0, and c times as
    large when x and q are."""
    return _TOL * (_max_abs(x) + alpha * _max_abs(op(np.zeros(op.dim))))


def _max_iter(cfg: SolveConfig, gamma: float) -> int:
    if cfg.max_iter is not None:
        return cfg.max_iter
    if 0.0 < gamma < 1.0:
        return 100 * iteration_bound(gamma, 1e-10)
    if gamma == 0.0:
        return 100
    return 10000


def _check_dims(op: Operator, cone: SeparableCone, basis: Basis | None = None) -> None:
    _same_dim("operator", op.dim, "cone", cone.dim)
    if basis is not None:
        _same_dim("basis", basis.n, "cone", cone.dim)


def _fixed_point(op: Operator, cone: SeparableCone, basis: Basis | None, P,
                 cfg: SolveConfig | None) -> tuple[SolveReport, np.ndarray | None, np.ndarray]:
    """Iterate x <- P(x - G(x)) from x_0 = 0 and stop at the first iterate
    x_T whose residual rho_T is at most cfg.tol, or at the cap; returns the
    report, whose x is x_T, and the v_T = x_T - G(x_T) and P(v_T) of that
    last evaluation (v_T None when it is not finite).

    rho_t = projective._residual(x_t, P(v_t), ||G(0)||_inf): the step the
    loop takes anyway, over ||x_t||_inf + ||G(0)||_inf, with G(0) = -v_0.
    It is unchanged when x_t, x_{t+1} and G(0) scale together, as they do
    when q alone is; the run is unchanged when F is multiplied by c > 0
    because alpha = beta/L**2 absorbs c, so G = alpha F does not change.
    Whatever ends the run, the report's residual is the rho of its x.

    The one set-up of the three methods: cfg defaults to SolveConfig(), the
    dimensions are checked, (alpha, gamma) come from _step_params, and G is
    alpha F with no basis and _span_step's G_S with one. A point
    v = x - G(x) with a NaN or infinite entry ends the run before P sees
    it, whatever P is: its residual is logged as NaN, x stays the iterate
    it came from, and the run is reported unconverged, not raised; the
    overflow or NaN on the way there does not warn. With cfg.trace every
    iterate measured is logged.
    """
    cfg = cfg or SolveConfig()
    _check_dims(op, cone, basis)
    alpha, gamma = _step_params(op, cfg)
    G = (lambda x: alpha * op(x)) if basis is None else _span_step(op, basis, alpha)
    x_next = np.zeros(cone.dim)
    residuals: list[float] = []
    iterates = [] if cfg.trace else None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_max_iter(cfg, gamma)):
            x = x_next
            if iterates is not None:
                iterates.append(x)
            v = x - G(x)
            if not math.isfinite(_max_abs(v)):
                residuals.append(math.nan)
                v = None
                break
            if not residuals:
                g0 = _max_abs(v)  # x_0 = 0, so v_0 = -G(0)
            x_next = P(v)
            residuals.append(projective._residual(x, x_next, g0))
            if residuals[-1] <= cfg.tol:
                break
    rep = SolveReport(x=x, gamma=gamma, alpha=alpha, converged=residuals[-1] <= cfg.tol,
                      residuals=residuals, iterates=iterates)
    return rep, v, x_next


def _span_step(op: Operator, basis: Basis, alpha: float):
    """G_S with x - G_S(x) = P_span(x - alpha F(x)).

    For an AffineOperator below rank n this is the reduced operator
    F = build_projective(op, basis, alpha), applied as F @ x + F.q in
    O(n k') with no call of op; otherwise (a CallableOperator, or a basis of
    rank n, where build_projective drops alpha) x - P_span(x - alpha F(x)).
    """
    if isinstance(op, AffineOperator) and basis.rank < basis.n:
        F = projective.build_projective(op, basis, alpha)
        return lambda x: F @ x + F.q

    # an infinite alpha F(x) meets a zero of Q as inf * 0: the NaN that
    # _fixed_point stops on (and an overflow the inf it stops on)
    return lambda x: x - basis.project_span(x - alpha * op(x))


def solve_exact(op: Operator, cone: SeparableCone, cfg: SolveConfig | None = None) -> SolveReport:
    """Projection method: iterate x <- P_C(x - alpha F(x)) to the unique solution.

    Starts from 0 and stops at the first iterate whose residual (see
    _fixed_point) is at most cfg.tol. Non-convergence is reported
    (converged=False), not raised; so is a step to a point with a NaN or
    infinite entry, which ends the run at once with x the last finite
    iterate.
    """
    return _fixed_point(op, cone, None, cone.project, cfg)[0]


def _passive_solution(C: np.ndarray, d: np.ndarray, P: np.ndarray) -> np.ndarray:
    """s with s_P the minimum-norm least-squares solution of C_P s_P = d and
    0 off P, by LAPACK's complete orthogonal factorization (dgelsy, QR with
    column pivoting), which also takes more passive columns than rows."""
    s = np.zeros(C.shape[1])
    m, p = C.shape[0], int(np.count_nonzero(P))
    if p:
        b = np.zeros((max(m, p), 1))
        b[:m, 0] = d
        lwork = max(min(m, p) + 3 * p + 1, 2 * min(m, p) + 1)
        s[P] = dgelsy(C[:, P], b, np.zeros(p, np.int32), _EPS * max(m, p), lwork)[1][:p, 0]
    return s


def _nnls(C: np.ndarray, d: np.ndarray) -> np.ndarray:
    """argmin over lam >= 0 of ||C lam - d||, by Lawson and Hanson's active set.

    Every passive subproblem is a least-squares solve on the passive columns
    C_P (_passive_solution), never the normal equations, which square the
    condition number of nearly parallel columns. lam is optimal when it
    passes the method's stopping test: lam > 0 on the passive set P and the
    gradient w = C^T (d - C lam) at most tol off it, with
    tol = 10 max(C.shape) eps ||C||_F ||d||. The guessed start
    P = {j : (C^T d)_j > tol} is kept when its least-squares solution passes
    that test, which on the projections of bound_report is the usual case;
    otherwise the loop runs from P = {}. A column whose passive solution is
    not positive as it joins P adds nothing measurable and is set aside
    until lam next moves. Raises RuntimeError after 3 * C.shape[1] inner
    steps (each one moves lam back to the boundary and drops a column).
    """
    n = C.shape[1]
    tol = 10 * max(C.shape) * _EPS * np.linalg.norm(C) * np.linalg.norm(d)
    w = C.T @ d
    P = w > tol
    lam = _passive_solution(C, d, P)
    if (lam[P] > 0).all() and not (C.T @ (d - C @ lam))[~P].max(initial=-np.inf) > tol:
        return lam
    lam, P = np.zeros(n), np.zeros(n, dtype=bool)
    steps = 0
    while True:
        j = int(np.argmax(w))
        if not w[j] > tol:
            return lam
        P[j] = True
        s = _passive_solution(C, d, P)
        if not s[j] > 0:
            P[j], w[j] = False, -np.inf
            continue
        while not (s[P] > 0).all():
            steps += 1
            if steps > 3 * n:
                raise RuntimeError(f"NNLS reached its cap of {3 * n} inner steps")
            neg = np.flatnonzero(P & (s <= 0))
            ratios = lam[neg] / (lam[neg] - s[neg])
            lam = lam + ratios.min() * (s - lam)
            lam[neg[np.argmin(ratios)]] = 0.0
            P &= lam > 0
            lam[~P] = 0.0
            s = _passive_solution(C, d, P)
        lam = s
        w = C.T @ (d - C @ lam)
        w[P] = -np.inf


def project_intersection(cone: SeparableCone, basis: Basis, z) -> np.ndarray:
    """Exact Euclidean projection onto C & span(Phi).

    With x = Q w (Q = basis.ortho) this is the k'-variable problem
    min ||w - Q^T z||^2 subject to Q_B w >= 0 on the nonnegative rows and
    Q_H w = 0 on the held rows, at first the zero segments. w is restricted
    to null(Q_H) = range(V), with V = I while no row is held, and A u >= 0
    with A = Q_B V is solved through its dual, the NNLS problem
    min_{lam >= 0} ||A^T lam + d|| with d = V^T Q^T z, as u = d + A^T lam.
    _nnls solves it by Lawson and Hanson's active set, from the guess that
    lam is positive exactly where A d < 0, and falls back to the method's
    own loop when that guess fails its stopping test. The rank of Q_H and
    the vanishing rows of A are judged against basis.DROP_TOL, the
    tolerance that defines span(Phi); the kept rows are normalised.

    u = d + A^T lam loses about eps * lam to cancellation. Rows whose
    multipliers would push that past DROP_TOL * (1 + ||d||) are active at
    the optimum (typically rows that force each other to zero, which NNLS
    meets with multipliers near 1/eps), so they join the held rows and the
    problem is solved again in fewer variables. All of this runs on z
    divided by the power of two 2**e that brings its largest entry into
    [1/2, 1), an exact scaling, so the answer is c times the answer at z
    when z is multiplied by a power of two c. Returns 2**e P_C(Q V u): in C
    exactly and in span(Phi) within DROP_TOL * (2**e + ||z||). Raises
    IntersectionProjectionFailed when NNLS reaches its iteration cap or
    Q V u misses C by more than that.
    """
    z = _finite(_vector(z, cone.dim, "z"), "z")
    _same_dim("basis", basis.n, "cone", cone.dim)
    _, shift = math.frexp(_max_abs(z))
    z = np.ldexp(z, -shift)
    Q, tol = basis.ortho, DROP_TOL
    held = cone.zero_mask.copy()
    while True:
        if held.any():
            Q_H = Q[held]
            _, sv, vt = np.linalg.svd(Q_H, full_matrices=Q_H.shape[0] < Q_H.shape[1])
            V = vt[int(np.sum(sv > tol)):].T
        else:
            V = np.eye(Q.shape[1])  # what the SVD of an empty Q_H returns, exactly
        u = V.T @ (Q.T @ z)
        rows = np.flatnonzero(cone.nonneg_mask & ~held)
        A = Q[rows] @ V
        norms = np.linalg.norm(A, axis=1)
        keep = norms > tol
        A, rows = A[keep] / norms[keep, None], rows[keep]
        if not A.size:
            break
        try:
            lam = _nnls(A.T, -u)
        except RuntimeError as exc:
            raise IntersectionProjectionFailed(f"NNLS dual of the projection: {exc}") from exc
        huge = lam * _EPS > tol * (1.0 + np.linalg.norm(u))
        if not huge.any():
            u = u + A.T @ lam
            break
        held[rows[huge]] = True
    x = Q @ (V @ u)
    y = cone.project(x)
    miss = float(np.linalg.norm(x - y))
    if miss > tol * (1.0 + float(np.linalg.norm(z))):
        raise IntersectionProjectionFailed(f"projection misses the cone by {miss:.3g}")
    return np.ldexp(y, shift)


def solve_bertsekas(op: Operator, cone: SeparableCone, basis: Basis,
                    cfg: SolveConfig | None = None) -> SolveReport:
    """Intersection-Galerkin method: x <- P_{C&span}(x - G_S(x)), that is
    P_{C&span}(x - alpha F(x)), since P_{C&span} = P_{C&span} o P_span.

    Its a-priori bound ||P_{C&span}(x*) - x*|| / (1 - gamma) needs the exact
    solution x*; bound_report computes it as bound_bertsekas.
    """
    return _fixed_point(op, cone, basis, partial(project_intersection, cone, basis), cfg)[0]


def solve_galerkin(op: Operator, cone: SeparableCone, basis: Basis,
                   cfg: SolveConfig | None = None) -> SolveReport:
    """Two-projection Galerkin method.

    Iterates x <- P_C(x - G_S(x)) = P_C(P_span(x - alpha F(x))) from x = 0,
    stopping on the residual of x_T (see _fixed_point), which the report's
    residual is. Returns z_bar = x_T - G_S(x_T) and the feasible solution
    x_bar = P_C(z_bar), the point and the step of that last evaluation,
    with the optimality certificate of the pair attached. When that step is
    not finite, x is x_T and z and the certificate stay None.
    """
    rep, z, x_bar = _fixed_point(op, cone, basis, cone.project, cfg)
    if z is not None:
        rep.z, rep.x = z, x_bar
        rep.certificate = certify(op, cone, basis, x_bar, z, rep.alpha)
    return rep


def certify(op: Operator, cone: SeparableCone, basis: Basis,
            x_bar: np.ndarray, z_bar: np.ndarray, alpha: float) -> OptimalityCertificate:
    """Optimality certificate for an (approximate) Galerkin fixed point.

    Computes the residual eps = (z_bar - x_bar + alpha*F(x_bar)) / alpha,
    for which x_bar = P_C(z_bar) solves the VI with F replaced by F - eps,
    and passes when ||x_bar - P_C(z_bar)||_inf and alpha ||Phi^T eps|| are
    both within _allowance at x_bar, so the verdict is the same when F, or
    x_bar, z_bar and q together, are multiplied by c > 0. The gap
    |x_bar . (F(x_bar) - eps)| and the norm of Phi^T eps are taken in units
    of the largest entries, so none overflows. Violations are reported,
    never raised; an operator or a basis whose dimension is not the cone's
    is a ValueError. alpha must be positive and finite, as in SolveConfig.
    """
    _check_dims(op, cone, basis)
    _positive(alpha, "alpha")
    x_bar = _vector(x_bar, cone.dim, "x_bar")
    z_bar = _vector(z_bar, cone.dim, "z_bar")
    fx = op(x_bar)
    eps = (z_bar - (x_bar - alpha * fx)) / alpha
    y = fx - eps
    a, b = _max_abs(x_bar), _max_abs(y)
    allowance = _allowance(op, x_bar, alpha)
    return OptimalityCertificate(
        epsilon=eps,
        normal_cone_ok=_max_abs(x_bar - cone.project(z_bar)) <= allowance,
        null_space_violation=_norm(basis.ortho.T @ eps),
        complementarity_gap=abs(float((x_bar / a) @ (y / b))) * a * b if a and b else 0.0,
        allowance=allowance / alpha,
    )


@dataclass
class BoundComparison:
    """Both a-priori error bounds next to the errors actually achieved."""

    gamma: float
    x_star: np.ndarray
    z_star: np.ndarray
    x_bar: np.ndarray
    z_bar: np.ndarray
    bound_new: float
    err_new_x: float
    err_new_z: float
    new_ok: bool
    exact_iterations: int = 0
    x_hat: np.ndarray | None = None
    bound_bertsekas: float | None = None
    err_bertsekas: float | None = None
    bertsekas_ok: bool | None = None
    bertsekas_skipped: bool = False
    exact_converged: bool = True
    bertsekas_converged: bool | None = None
    galerkin_converged: bool = True


def bound_report(op: Operator, cone: SeparableCone, basis: Basis,
                 cfg: SolveConfig | None = None) -> BoundComparison:
    """Solve with all three methods and compare errors against their bounds.

    The intersection method's bound uses ||P_{C&span}(x*) - x*|| / (1-gamma);
    the two-projection method's bound uses ||z* - P_span(z*)|| / (1-gamma)
    and covers both the z and x errors. Each comparison allows _allowance at
    x* on top of the bound, for the solves' relative stop; the norms are
    taken in units of the largest entry, so none overflows. cfg sets
    the solves being measured; the reference x* is solved at cfg.tol or the
    default tol, whichever is tighter. NotStronglyMonotone, before any
    solve, unless gamma < 1. Solver failures are reported as flags, not
    exceptions.
    """
    cfg = cfg or SolveConfig()
    alpha, gamma = _step_params(op, cfg)
    if not gamma < 1.0:
        raise NotStronglyMonotone(op.beta)
    rep_exact = solve_exact(op, cone, replace(cfg, tol=min(cfg.tol, SolveConfig.tol)))
    x_star = rep_exact.x
    z_star = x_star - alpha * op(x_star)
    slack = _allowance(op, x_star, alpha)

    rep_gal = solve_galerkin(op, cone, basis, cfg)
    bound_new = basis.representation_error(z_star) / (1.0 - gamma)
    err_new_x = _norm(rep_gal.x - x_star)
    err_new_z = _norm(rep_gal.z - z_star)

    result = BoundComparison(
        gamma=gamma,
        x_star=x_star,
        z_star=z_star,
        x_bar=rep_gal.x,
        z_bar=rep_gal.z,
        bound_new=bound_new,
        err_new_x=err_new_x,
        err_new_z=err_new_z,
        new_ok=err_new_x <= bound_new + slack and err_new_z <= bound_new + slack,
        exact_iterations=rep_exact.iterations,
        exact_converged=rep_exact.converged,
        galerkin_converged=rep_gal.converged,
    )

    try:
        proj_star = project_intersection(cone, basis, x_star)
        rep_b = solve_bertsekas(op, cone, basis, cfg)
    except IntersectionProjectionFailed:
        result.bertsekas_skipped = True
        return result

    result.x_hat = rep_b.x
    result.bound_bertsekas = _norm(proj_star - x_star) / (1.0 - gamma)
    result.err_bertsekas = _norm(rep_b.x - x_star)
    result.bertsekas_ok = result.err_bertsekas <= result.bound_bertsekas + slack
    result.bertsekas_converged = rep_b.converged
    return result
