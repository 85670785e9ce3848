"""One benchmark pass: runs a workload's certified-solve pipeline on prepared inputs.

Started by run.py in its own process, so that peak memory covers only the
workload and not input generation. Instances are solved one after another
(a closed loop with one client). Every library call goes through its module
attribute at call time, so the traced pass sees the wrapped functions.
The outputs are pickled for run.py, which checks them outside the timed path.
"""
from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import conevi  # noqa: E402  (PYTHONPATH is set by run.py)
from conevi import basis as basis_mod  # noqa: E402
from conevi import fileio, projective, solvers, transforms  # noqa: E402
from inputs import CLASSES  # noqa: E402  (this directory is on sys.path)

TYPED = (solvers.IntersectionProjectionFailed, projective.IpmBreakdown,
         conevi.NotStronglyMonotone)

# at least this many whole rounds are solved, even past --seconds, so that a
# rare slow instance (Dykstra near its cycle cap) cannot leave a run with a
# handful of samples; no new round starts after HARD_STOP_S
MIN_ROUNDS = 8
HARD_STOP_S = 60.0


def _error(exc: BaseException) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)[:200]}


def warm_up() -> None:
    """First BLAS/LAPACK calls, the library's code paths and lazy cone masks."""
    rng = np.random.default_rng(12345)
    basis_mod.orthonormalize(np.eye(600))
    X = rng.standard_normal((600, 600))
    np.linalg.solve(X @ X.T + np.eye(600), np.ones(600))
    n = 24
    M = 2.0 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
    text = f"VI1 {n} nn:{n}\n" + "".join(
        " ".join(map(repr, row)) + "\n" for row in np.vstack([M, np.ones(n)]).tolist())
    op, cone = fileio.parse_problem(text)
    raw = fileio.parse_basis(f"BASIS1 {n} 3\n" + "1 0 0\n" * n)
    b = basis_mod.orthonormalize(raw)
    _ = op.beta, op.lipschitz, cone.nonneg_mask, cone.free_mask, cone.zero_mask
    solvers.bound_report(op, cone, b)
    plcp = projective.build_projective(op, b, op.contraction().alpha)
    projective.solve_ipm(plcp, cone)
    projective.verify_pd(plcp)


def _read(path: Path) -> str:
    with open(path) as f:
        return f.read()


def _setup_vi(d: Path, inst: dict):
    """Read problem and basis, orthonormalize, estimate beta/L, build the reduced LCP."""
    op, cone = fileio.parse_problem(_read(d / inst["problem"]))
    basis = basis_mod.orthonormalize(fileio.parse_basis(_read(d / inst["basis"])))
    _ = cone.nonneg_mask, cone.free_mask, cone.zero_mask
    params = op.contraction()
    plcp = projective.build_projective(op, basis, params.alpha)
    return op, cone, basis, params, plcp


def _ipm_and_verify(rec: dict, times: dict, plcp, cone, verify: bool, repeats: int) -> float:
    """Solve the reduced LCP (repeats times; ipm_s is the median) and run verify_pd.

    Returns the time of the extra repeats, which the caller leaves out of total_s.
    """
    runs = []
    for _ in range(repeats):
        t = time.perf_counter()
        try:
            rep = projective.solve_ipm(plcp, cone)
            rec["ipm"] = {"x": rep.x, "converged": rep.converged, "iterations": rep.iterations}
        except TYPED as exc:
            rec["ipm"] = {"error": _error(exc)}
        runs.append(time.perf_counter() - t)
    times["ipm_s"] = statistics.median(runs)
    if verify:
        t = time.perf_counter()
        try:
            rec["verify_pd"] = {"value": projective.verify_pd(plcp)}
        except ValueError as exc:
            rec["verify_pd"] = {"error": _error(exc)}
        times["verify_s"] = time.perf_counter() - t
    return sum(runs) - times["ipm_s"]


def run_sweep(d: Path, inst: dict, ipm_repeats: int) -> dict:
    rec, times = {}, {}
    t0 = time.perf_counter()
    op, cone, basis, params, plcp = _setup_vi(d, inst)
    t1 = time.perf_counter()
    times["setup_s"] = t1 - t0
    rec.update(n=cone.dim, beta=params.beta, lipschitz=params.lipschitz, alpha=params.alpha)
    comp = solvers.bound_report(op, cone, basis)
    times["bounds_s"] = time.perf_counter() - t1
    rec["bounds"] = dict(vars(comp))
    extra = _ipm_and_verify(rec, times, plcp, cone, True, ipm_repeats)
    times["total_s"] = time.perf_counter() - t0 - extra
    rec["times"] = times
    return rec


def run_dense(d: Path, inst: dict, ipm_repeats: int) -> dict:
    rec, times = {"kind": inst["kind"]}, {}
    t0 = time.perf_counter()
    op, cone, basis, params, plcp = _setup_vi(d, inst)
    t1 = time.perf_counter()
    times["setup_s"] = t1 - t0
    rec.update(n=cone.dim, beta=params.beta, lipschitz=params.lipschitz, alpha=params.alpha)
    rep = solvers.solve_exact(op, cone)
    t2 = time.perf_counter()
    times["exact_s"] = t2 - t1
    rec["exact"] = {"x": rep.x, "converged": rep.converged, "iterations": rep.iterations,
                    "gamma": rep.gamma}
    rep = solvers.solve_galerkin(op, cone, basis)
    times["galerkin_s"] = time.perf_counter() - t2
    cert = rep.certificate
    rec["galerkin"] = {"x": rep.x, "z": rep.z, "converged": rep.converged,
                       "iterations": rep.iterations, "cert_valid": cert.valid,
                       "cert_null": cert.null_space_violation,
                       "cert_normal_ok": cert.normal_cone_ok}
    extra = _ipm_and_verify(rec, times, plcp, cone, True, ipm_repeats)
    times["total_s"] = time.perf_counter() - t0 - extra
    rec["times"] = times
    return rec


def run_poly(d: Path, inst: dict, ipm_repeats: int) -> dict:
    rec, times = {}, {}
    with np.load(d / inst["arrays"]) as z:
        arrays = {k: z[k] for k in z.files}
    t0 = time.perf_counter()
    p = transforms.PolyhedralVI(arrays["M"], arrays["q"], arrays["A"], arrays["b"])
    layout = transforms.polyhedron_to_cone(p)
    if "E" in arrays:
        m, n = arrays["A"].shape
        E = np.zeros((arrays["E"].shape[0], layout.cone.dim))
        E[:, m:m + n] = arrays["E"]
        eq = transforms.eliminate_equalities(layout.op, E, arrays["e"], layout.cone)
        op, cone = eq.op, eq.cone
    else:
        op, cone = layout.op, layout.cone
    _ = cone.nonneg_mask, cone.free_mask, cone.zero_mask
    basis = basis_mod.orthonormalize(np.eye(cone.dim))
    plcp = projective.build_projective(op, basis, 1.0)
    times["setup_s"] = time.perf_counter() - t0
    rec["n"] = cone.dim
    extra = _ipm_and_verify(rec, times, plcp, cone, False, ipm_repeats)
    times["total_s"] = time.perf_counter() - t0 - extra
    rec["times"] = times
    rec["layout"] = layout.variable_map
    return rec


RUNNERS = {"paper_sweep": run_sweep, "large_dense": run_dense, "polyhedral_ipm": run_poly}
# on large_dense one IPM solve takes ~10 ms after a ~20 s set-up, too short to
# time once; the untraced pass times it 9 times and keeps the median
IPM_REPEATS = {"paper_sweep": 1, "large_dense": 9, "polyhedral_ipm": 1}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--count", type=int, help="solve exactly this many instances")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="where the traced pass writes its spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if Path(conevi.__file__).resolve().parent != ROOT / "src" / "conevi":
        print(f"conevi imported from {conevi.__file__}, not from this checkout", file=sys.stderr)
        return 2

    d = Path(args.inputs)
    manifest = json.loads((d / "manifest.json").read_text())
    instances = manifest["instances"]
    runner = RUNNERS[args.workload]
    rnd = CLASSES[args.workload]  # stop only after whole rounds, one instance per class

    warm_up()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    start = time.perf_counter()
    for i, inst in enumerate(instances):
        if args.count is not None:
            if i >= args.count:
                break
        elif i % rnd == 0 and i > 0:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (i >= MIN_ROUNDS * rnd and elapsed >= args.seconds):
                break
        if tracer is not None:
            tracer.begin_instance()
        try:
            rec = runner(d, inst, 1 if tracer else IPM_REPEATS[args.workload])
        except TYPED as exc:
            rec = {"setup_error": _error(exc)}
        except Exception as exc:  # keep measuring; run.py reports it as incorrect
            import traceback

            rec = {"unexpected": _error(exc), "traceback": traceback.format_exc()}
        rec["index"] = i
        if tracer is not None:
            rec["trace"] = {**tracer.instance_stats(tracer.instance), "n": rec.get("n", 0)}
        records.append(rec)
    wall = time.perf_counter() - start

    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(args.spans))
    out = {
        "records": records,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans_dropped": tracer.dropped if tracer else 0,
    }
    with open(args.out, "wb") as f:
        pickle.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
