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
For strongly monotone F with alpha = beta/L**2 every update contracts with
factor gamma = sqrt(1 - beta**2/L**2), which yields the a-priori error
bounds reported by bound_report. The projection onto C & span(Phi) is
exact: a k'-variable quadratic program whose dual is a nonnegative least
squares problem (Lawson & Hanson).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from . import projective
from .basis import DROP_TOL, Basis
from .cones import SeparableCone, _norm, _positive_int, _vector
from .operators import AffineOperator, NotStronglyMonotone, Operator, _gamma, iteration_bound

# the tolerance of every optimality certificate, relative to 1 + ||epsilon||
# in the null-space test and to 1 + ||z_bar - x_bar|| in the normal-cone test
_CERT_TOL = 1e-8
# bound_report's allowance on each bound, for the solves' stopping tolerance
_BOUND_SLACK = 1e-8

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
    guarantee; tol is the fixed-point step-norm stopping threshold. max_iter
    defaults to 100x the certified iteration bound when a contraction factor
    is available, else 10000. Every method starts from x = 0, which lies in
    every separable cone. alpha_override and tol must be positive and
    finite, max_iter a positive integer.
    """

    alpha_override: float | None = None
    tol: float = 1e-10
    max_iter: int | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.alpha_override is not None and not 0 < self.alpha_override < math.inf:
            raise ValueError("alpha_override must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter is not None:
            self.max_iter = _positive_int(self.max_iter, "max_iter")


@dataclass
class OptimalityCertificate:
    """Residual-based certificate for a two-projection Galerkin fixed point.

    epsilon is the residual that shifts -F(x_bar) into the normal cone;
    a valid certificate has epsilon (numerically) in null(Phi^T) and the
    shifted direction passing the normal-cone test, both at the relative
    tolerance _CERT_TOL.
    """

    epsilon: np.ndarray
    normal_cone_ok: bool
    null_space_violation: float
    complementarity_gap: float

    @property
    def valid(self) -> bool:
        bound = _CERT_TOL * (1.0 + _norm(self.epsilon))
        return self.normal_cone_ok and self.null_space_violation <= bound


@dataclass
class SolveReport:
    """Outcome of one solve: iterate(s), convergence data, and certificates.

    step_norms holds the x steps ||x_t - x_{t-1}|| for every iteration
    t = 1, 2, ...; iterations is its length, and iterates (with cfg.trace)
    are x_0, ..., x_T. A Galerkin solve reports z = x_T - G_S(x_T) and
    x = P_C(z), one update past x_T, with the certificate of that pair.
    """

    x: np.ndarray
    gamma: float
    alpha: float
    converged: bool
    z: np.ndarray | None = None
    certificate: OptimalityCertificate | None = None
    step_norms: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    def distances_to_final(self) -> np.ndarray:
        """||x_t - x_T|| for every logged iterate; needs trace=True."""
        if not self.iterates:
            raise ValueError("no iterates were logged; solve with trace=True")
        last = self.iterates[-1]
        return np.array([float(np.linalg.norm(it - last)) for it in self.iterates])

    def trace_rows(self) -> list[tuple[int, float, float]]:
        """(t, step_norm, distance_to_final) per iteration, for t >= 1."""
        dists = self.distances_to_final()
        return [(t + 1, self.step_norms[t], float(dists[t + 1])) for t in range(len(self.step_norms))]


def _step_params(op: Operator, cfg: SolveConfig) -> tuple[float, float]:
    """(alpha, gamma): the operator's contraction parameters, or the override
    step with gamma the Lipschitz constant of I - alpha*F at that step."""
    if cfg.alpha_override is None:
        params = op.contraction()
        return params.alpha, params.gamma
    alpha = float(cfg.alpha_override)
    return alpha, _gamma(alpha, float(op.beta), float(op.lipschitz))


def _max_iter(cfg: SolveConfig, gamma: float) -> int:
    if cfg.max_iter is not None:
        return cfg.max_iter
    if 0.0 < gamma < 1.0:
        return 100 * iteration_bound(gamma, 1e-10)
    if gamma == 0.0:
        return 100
    return 10000


def _check_dims(op: Operator, cone: SeparableCone, basis: Basis | None = None) -> None:
    if op.dim != cone.dim:
        raise ValueError(f"operator dimension {op.dim} != cone dimension {cone.dim}")
    if basis is not None and basis.n != cone.dim:
        raise ValueError(f"basis dimension {basis.n} != cone dimension {cone.dim}")


def _fixed_point(G, P, n: int, cfg: SolveConfig, gamma: float, alpha: float) -> SolveReport:
    """Iterate x <- P(x - G(x)) from x = 0 in R^n until the x step norm
    drops to cfg.tol.

    With cfg.trace every iterate x_t is logged. Non-convergence is reported
    (converged=False), not raised.
    """
    x = np.zeros(n)
    step_norms: list[float] = []
    iterates = [x] if cfg.trace else None
    for _ in range(_max_iter(cfg, gamma)):
        x_new = P(x - G(x))
        step_norms.append(float(np.linalg.norm(x_new - x)))
        x = x_new
        if iterates is not None:
            iterates.append(x)
        if step_norms[-1] <= cfg.tol:
            break
    return SolveReport(x=x, gamma=gamma, alpha=alpha, converged=step_norms[-1] <= cfg.tol,
                       step_norms=step_norms, iterates=iterates)


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
    return lambda x: x - basis.project_span(x - alpha * op(x))


def solve_exact(op: Operator, cone: SeparableCone, cfg: SolveConfig | None = None) -> SolveReport:
    """Projection method: iterate x <- P_C(x - alpha F(x)) to the unique solution.

    Starts from 0 and stops when the fixed-point step norm falls below
    cfg.tol. Non-convergence is reported (converged=False), not raised.
    """
    cfg = cfg or SolveConfig()
    _check_dims(op, cone)
    alpha, gamma = _step_params(op, cfg)
    return _fixed_point(lambda x: alpha * op(x), cone.project, cone.dim, cfg, gamma, alpha)


def project_intersection(cone: SeparableCone, basis: Basis, z) -> np.ndarray:
    """Exact Euclidean projection onto C & span(Phi).

    With x = Q w (Q = basis.ortho) this is the k'-variable problem
    min ||w - Q^T z||^2 subject to Q_B w >= 0 on the nonnegative rows and
    Q_H w = 0 on the held rows, at first the zero segments. w is restricted
    to null(Q_H) = range(V), and A u >= 0 with A = Q_B V is solved through
    its dual, the NNLS problem min_{lam >= 0} ||A^T lam + d|| with
    d = V^T Q^T z, as u = d + A^T lam. The rank of Q_H and the vanishing
    rows of A are judged against basis.DROP_TOL, the tolerance that defines
    span(Phi); the kept rows are normalised.

    u = d + A^T lam loses about eps * lam to cancellation. Rows whose
    multipliers would push that past DROP_TOL * (1 + ||d||) are active at
    the optimum (typically rows that force each other to zero, which NNLS
    meets with multipliers near 1/eps), so they join the held rows and the
    problem is solved again in fewer variables. Returns P_C(Q V u): in C
    exactly and in span(Phi) within DROP_TOL * (1 + ||z||). Raises
    IntersectionProjectionFailed when NNLS reaches its iteration cap or
    Q V u misses C by more than that.
    """
    z = _vector(z, cone.dim, "z")
    if basis.n != cone.dim:
        raise ValueError(f"basis dimension {basis.n} != cone dimension {cone.dim}")
    Q, tol = basis.ortho, DROP_TOL
    held = cone.zero_mask.copy()
    while True:
        Q_H = Q[held]
        _, sv, vt = np.linalg.svd(Q_H, full_matrices=Q_H.shape[0] < Q_H.shape[1])
        V = vt[int(np.sum(sv > tol)):].T
        u = V.T @ (Q.T @ z)
        rows = np.flatnonzero(cone.nonneg_mask & ~held)
        A = Q[rows] @ V
        norms = np.linalg.norm(A, axis=1)
        keep = norms > tol
        A, rows = A[keep] / norms[keep, None], rows[keep]
        if not A.size:
            break
        try:
            lam, _ = scipy.optimize.nnls(A.T, -u)
        except RuntimeError as exc:
            raise IntersectionProjectionFailed(f"NNLS dual of the projection: {exc}") from exc
        huge = lam * np.finfo(float).eps > tol * (1.0 + np.linalg.norm(u))
        if not huge.any():
            u = u + A.T @ lam
            break
        held[rows[huge]] = True
    x = Q @ (V @ u)
    y = cone.project(x)
    miss = float(np.linalg.norm(x - y))
    if miss > tol * (1.0 + float(np.linalg.norm(z))):
        raise IntersectionProjectionFailed(f"projection misses the cone by {miss:.3g}")
    return y


def solve_bertsekas(op: Operator, cone: SeparableCone, basis: Basis,
                    cfg: SolveConfig | None = None) -> SolveReport:
    """Intersection-Galerkin method: x <- P_{C&span}(x - G_S(x)), that is
    P_{C&span}(x - alpha F(x)), since P_{C&span} = P_{C&span} o P_span.

    Its a-priori bound ||P_{C&span}(x*) - x*|| / (1 - gamma) needs the exact
    solution x*; bound_report computes it as bound_bertsekas.
    """
    cfg = cfg or SolveConfig()
    _check_dims(op, cone, basis)
    alpha, gamma = _step_params(op, cfg)
    return _fixed_point(_span_step(op, basis, alpha),
                        lambda y: project_intersection(cone, basis, y), cone.dim, cfg, gamma, alpha)


def solve_galerkin(op: Operator, cone: SeparableCone, basis: Basis,
                   cfg: SolveConfig | None = None) -> SolveReport:
    """Two-projection Galerkin method.

    Iterates x <- P_C(x - G_S(x)) = P_C(P_span(x - alpha F(x))) from x = 0,
    stopping on the x step norm. Returns z_bar = x_T - G_S(x_T) and the
    feasible solution x_bar = P_C(z_bar), with the optimality certificate
    of that pair attached.
    """
    cfg = cfg or SolveConfig()
    _check_dims(op, cone, basis)
    alpha, gamma = _step_params(op, cfg)
    G = _span_step(op, basis, alpha)
    rep = _fixed_point(G, cone.project, cone.dim, cfg, gamma, alpha)
    rep.z = rep.x - G(rep.x)
    rep.x = cone.project(rep.z)
    rep.certificate = certify(op, cone, basis, rep.x, rep.z, alpha)
    return rep


def certify(op: Operator, cone: SeparableCone, basis: Basis,
            x_bar: np.ndarray, z_bar: np.ndarray, alpha: float) -> OptimalityCertificate:
    """Optimality certificate for an (approximate) Galerkin fixed point.

    Computes the residual eps = (z_bar - x_bar + alpha*F(x_bar)) / alpha and
    checks that eps lies in null(Phi^T) and that z_bar - x_bar is in the
    normal cone at x_bar, both at the relative tolerance _CERT_TOL.
    Violations are reported, never raised. Norms of eps are taken in units
    of its largest entry, so none overflows. alpha must be positive and
    finite, as in SolveConfig.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    x_bar = _vector(x_bar, cone.dim, "x_bar")
    z_bar = _vector(z_bar, cone.dim, "z_bar")
    fx = op(x_bar)
    eps_prime = z_bar - (x_bar - alpha * fx)
    eps = eps_prime / alpha
    violation = _norm(basis.ortho.T @ eps)
    try:
        normal_ok = cone.in_normal_cone(x_bar, z_bar - x_bar, _CERT_TOL)
    except ValueError:
        normal_ok = False
    gap = abs(float(x_bar @ (fx - eps)))
    return OptimalityCertificate(
        epsilon=eps,
        normal_cone_ok=normal_ok,
        null_space_violation=violation,
        complementarity_gap=gap,
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
    and covers both the z and x errors. Each comparison allows _BOUND_SLACK
    = 1e-8 on top of the bound, for the solves' stopping tolerance. cfg sets
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

    rep_gal = solve_galerkin(op, cone, basis, cfg)
    bound_new = basis.representation_error(z_star) / (1.0 - gamma)
    err_new_x = float(np.linalg.norm(rep_gal.x - x_star))
    err_new_z = float(np.linalg.norm(rep_gal.z - z_star))

    result = BoundComparison(
        gamma=gamma,
        x_star=x_star,
        z_star=z_star,
        x_bar=rep_gal.x,
        z_bar=rep_gal.z,
        bound_new=bound_new,
        err_new_x=err_new_x,
        err_new_z=err_new_z,
        new_ok=err_new_x <= bound_new + _BOUND_SLACK and err_new_z <= bound_new + _BOUND_SLACK,
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
    result.bound_bertsekas = float(np.linalg.norm(proj_star - x_star)) / (1.0 - gamma)
    result.err_bertsekas = float(np.linalg.norm(rep_b.x - x_star))
    result.bertsekas_ok = result.err_bertsekas <= result.bound_bertsekas + _BOUND_SLACK
    result.bertsekas_converged = rep_b.converged
    return result
