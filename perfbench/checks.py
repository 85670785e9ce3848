"""Output checks, run after the timed passes and independent of the library.

Each instance yields a list of operations, each either passed (kind None)
or failed with the first failure kind that applies:

  nonconvergence        a solver reported converged=False
  typed_exception       IntersectionProjectionFailed, IpmBreakdown, NotStronglyMonotone
  refusal               ValueError refusals such as verify_pd above n = 2000
  certificate_or_bound  invalid certificate, violated a-priori bound,
                        bertsekas_skipped, verify_pd <= 0
  ipm_disagreement      IPM x vs Galerkin x_bar beyond 1e-6 relative
  residual              solution residual (natural map, Galerkin fixed point
                        or polyhedral KKT) above tolerance
  spectral_witness      a Lanczos vector contradicts the returned L or beta
  unexpected_exception  any other exception from the pipeline

A solution that the library reported as converged but that does not solve
its own problem (residual), or an unexpected exception, makes the run
incorrect; every other detected defect is a counted failure.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as sla

INCORRECT = ("residual", "unexpected_exception")

RESIDUAL_TOL = 1e-8
IPM_AGREE_TOL = 1e-6
KKT_TOL = 1e-6
BOUND_SLACK = 1e-8


class Outcome:
    """Operations of one run with their failure kinds, and witness slacks."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, str | None, str]] = []
        self.lipschitz_slack: list[float] = []
        self.beta_slack: list[float] = []
        self.incorrect: list[str] = []

    def op(self, name: str, kind: str | None, detail: str = "") -> None:
        self.ops.append((name, kind, detail))
        if kind in INCORRECT:
            self.incorrect.append(f"{name}: {kind}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(kind is not None for _, kind, _ in self.ops)

    def breakdown(self) -> dict:
        out: dict = {}
        for name, kind, detail in self.ops:
            if kind is not None:
                key = f"{name}:{kind}" + (f"({detail})" if detail else "")
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))


def _rel(a: float, scale: float) -> float:
    return a / (1.0 + scale)


def _span_projector(raw: np.ndarray):
    Q, _ = np.linalg.qr(raw)
    return lambda v: Q @ (Q.T @ v)


def natural_residual(M, q, x, alpha) -> float:
    """||x - P_orthant(x - alpha F(x))|| relative to 1 + ||x||."""
    r = x - np.maximum(x - alpha * (M @ x + q), 0.0)
    return _rel(float(np.linalg.norm(r)), float(np.linalg.norm(x)))


def spectral_witnesses(M: np.ndarray, beta: float, lip: float, out: Outcome) -> None:
    """Relative margins (L - ||Mv||/||v||)/||Mv||/||v|| and (rq - beta)/|rq|.

    v is the top right singular vector from svds; the beta witness is the
    Ritz vector of the symmetric part nearest a shift just below beta
    (shift-invert eigsh). Any vector is a valid beta witness, so an
    unconverged Ritz vector is still used; an unconverged svds gives no
    verdict (slack None). A margin below -n*eps, beyond the rounding error of
    computing the witness itself, means the returned constant is contradicted.
    """
    n = M.shape[0]
    rounding = n * np.finfo(float).eps
    v0 = np.ones(n) / np.sqrt(n)
    lip_slack = beta_slack = None
    try:
        _, _, vt = sla.svds(M, k=1, tol=1e-14, v0=v0)
        v = vt[0]
        ratio = float(np.linalg.norm(M @ v) / np.linalg.norm(v))
        lip_slack = (lip - ratio) / ratio
    except sla.ArpackNoConvergence:
        pass
    S = 0.5 * (M + M.T)
    try:
        _, V = sla.eigsh(S, k=1, sigma=beta - 1e-4 * (1.0 + abs(beta)), which="LM",
                         tol=1e-10, v0=v0, maxiter=500)
    except sla.ArpackNoConvergence as exc:
        V = exc.eigenvectors if exc.eigenvectors.size else None
    if V is not None:
        v = V[:, 0]
        rq = float(v @ (S @ v) / (v @ v))
        beta_slack = (rq - beta) / abs(rq)
    for name, slack, store in (("lipschitz", lip_slack, out.lipschitz_slack),
                               ("beta", beta_slack, out.beta_slack)):
        if slack is not None:
            store.append(slack)
        out.op(name, "spectral_witness" if slack is not None and slack < -rounding else None)


def _setup_failed(rec: dict, out: Outcome) -> bool:
    if "unexpected" in rec:
        out.op("instance", "unexpected_exception")
        return True
    if "setup_error" in rec:
        out.op("setup", "typed_exception")
        return True
    out.op("setup", None)
    return False


def _ipm(rec: dict, x_ref: np.ndarray | None, out: Outcome) -> None:
    ipm = rec["ipm"]
    if "error" in ipm:
        out.op("ipm", "typed_exception")
    elif not ipm["converged"]:
        out.op("ipm", "nonconvergence")
    elif x_ref is not None and _rel(float(np.linalg.norm(ipm["x"] - x_ref)),
                                    float(np.linalg.norm(x_ref))) > IPM_AGREE_TOL:
        out.op("ipm", "ipm_disagreement")
    else:
        out.op("ipm", None)


def _verify_pd(rec: dict, out: Outcome) -> None:
    v = rec["verify_pd"]
    if "error" in v:
        out.op("verify_pd", "refusal")
    else:
        out.op("verify_pd", "certificate_or_bound" if v["value"] <= 0.0 else None)


def _galerkin_bound(M, q, proj, alpha, gamma, x_star, x_bar, z_bar) -> bool:
    z_star = x_star - alpha * (M @ x_star + q)
    bound = float(np.linalg.norm(z_star - proj(z_star))) / (1.0 - gamma)
    return (float(np.linalg.norm(x_bar - x_star)) <= bound + BOUND_SLACK
            and float(np.linalg.norm(z_bar - z_star)) <= bound + BOUND_SLACK)


def _fixed_point_residual(M, q, proj, alpha, x_bar, z_bar) -> float:
    r = z_bar - proj(x_bar - alpha * (M @ x_bar + q))
    return _rel(float(np.linalg.norm(r)), float(np.linalg.norm(z_bar)))


def check_sweep(rec: dict, M, q, raw, out: Outcome) -> None:
    if _setup_failed(rec, out):
        return
    spectral_witnesses(M, rec["beta"], rec["lipschitz"], out)
    b, alpha = rec["bounds"], rec["alpha"]
    proj = _span_projector(raw)

    if not b["exact_converged"]:
        out.op("exact", "nonconvergence")
    elif natural_residual(M, q, b["x_star"], alpha) > RESIDUAL_TOL:
        out.op("exact", "residual")
    else:
        out.op("exact", None)

    if not b["galerkin_converged"]:
        out.op("galerkin", "nonconvergence")
    elif _fixed_point_residual(M, q, proj, alpha, b["x_bar"], b["z_bar"]) > RESIDUAL_TOL:
        out.op("galerkin", "residual")
    elif not (b["new_ok"] and _galerkin_bound(M, q, proj, alpha, b["gamma"], b["x_star"],
                                              b["x_bar"], b["z_bar"])):
        out.op("galerkin", "certificate_or_bound")
    else:
        out.op("galerkin", None)

    if b["bertsekas_skipped"]:
        out.op("bertsekas", "certificate_or_bound", "bertsekas_skipped")
    elif not b["bertsekas_converged"]:
        out.op("bertsekas", "nonconvergence")
    elif not (b["bertsekas_ok"] and float(np.linalg.norm(b["x_hat"] - b["x_star"]))
              <= b["bound_bertsekas"] + BOUND_SLACK):
        out.op("bertsekas", "certificate_or_bound")
    else:
        out.op("bertsekas", None)

    _ipm(rec, b["x_bar"], out)
    _verify_pd(rec, out)


def check_dense(rec: dict, M, q, raw, out: Outcome) -> None:
    if _setup_failed(rec, out):
        return
    spectral_witnesses(M, rec["beta"], rec["lipschitz"], out)
    alpha = rec["alpha"]
    proj = _span_projector(raw)
    ex, gal = rec["exact"], rec["galerkin"]

    if not ex["converged"]:
        out.op("exact", "nonconvergence")
    elif natural_residual(M, q, ex["x"], alpha) > RESIDUAL_TOL:
        out.op("exact", "residual")
    else:
        out.op("exact", None)

    if not gal["converged"]:
        out.op("galerkin", "nonconvergence")
    elif _fixed_point_residual(M, q, proj, alpha, gal["x"], gal["z"]) > RESIDUAL_TOL:
        out.op("galerkin", "residual")
    elif not (gal["cert_valid"] and _galerkin_bound(M, q, proj, alpha, ex["gamma"], ex["x"],
                                                    gal["x"], gal["z"])):
        out.op("galerkin", "certificate_or_bound",
               "" if gal["cert_valid"] else "certificate_invalid")
    else:
        out.op("galerkin", None)

    _ipm(rec, gal["x"], out)
    _verify_pd(rec, out)


def polyhedral_kkt(arrays: dict, layout: dict, u: np.ndarray) -> float:
    """Largest scaled KKT violation of VI(Mx + q, {Ax + b >= 0, Ex = e})."""
    M, q, A, b = arrays["M"], arrays["q"], arrays["A"], arrays["b"]
    x = u[slice(*layout["x"])]
    lam = u[slice(*layout["lambda"])]
    slack = A @ x + b
    grad = M @ x + q - A.T @ lam
    parts = [np.linalg.norm(np.minimum(slack, 0.0)), np.linalg.norm(np.minimum(lam, 0.0)),
             abs(float(lam @ slack))]
    if "E" in arrays:
        nu = u[layout["lambda"][1]:]
        grad = grad - arrays["E"].T @ nu
        parts.append(np.linalg.norm(arrays["E"] @ x - arrays["e"]))
    parts.append(np.linalg.norm(grad))
    return _rel(float(max(parts)), float(np.linalg.norm(x) + np.linalg.norm(lam)))


def check_poly(rec: dict, arrays: dict, out: Outcome) -> None:
    if _setup_failed(rec, out):
        return
    ipm = rec["ipm"]
    if "error" in ipm:
        out.op("ipm", "typed_exception")
    elif not ipm["converged"]:
        out.op("ipm", "nonconvergence")
    elif polyhedral_kkt(arrays, rec["layout"], ipm["x"]) > KKT_TOL:
        out.op("ipm", "residual")
    else:
        out.op("ipm", None)
