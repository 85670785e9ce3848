"""conevi benchmark: certified solves on three workloads, with an optional traced pass.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 8 --trace 0

Run from the repository root. Inputs are generated from --seed (and cached
under perfbench/cache), the pipeline runs in a separate worker process
(worker.py) for --seconds seconds as a closed loop with one client, and the
outputs are checked here, outside the timed path. With --trace 1 a second,
traced pass solves the same instances and the per-layer metrics are reported.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / "cache"
WORKER_BUDGET_S = 165.0  # both passes together; a run must end within 180 s
# BLAS threads in the worker. large_dense is bound by O(n^2) matvecs, which ran
# 2.3x faster on two threads than on one (2-core x86, OpenBLAS 0.3.31); the
# small-matrix workloads run single-threaded, where a second thread added only
# synchronisation stalls (orthonormalize(eye(600)) took 0.05 or 0.15 s at random).
BLAS_THREADS = {"paper_sweep": 1, "large_dense": NPROC, "polyhedral_ipm": 1}

# declared in BENCHMARK.json: each applies to every workload and is steady across
# runs; the other phases are printed only (ipm_s, for one, spreads 20% on large_dense)
END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))
# printed per workload where the phase exists
PHASES = {
    "paper_sweep": ("setup_s", "bounds_s", "ipm_s", "verify_s", "total_s"),
    "large_dense": ("setup_s", "exact_s", "galerkin_s", "ipm_s", "verify_s", "total_s"),
    "polyhedral_ipm": ("setup_s", "ipm_s", "total_s"),
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def cache_sizes() -> dict:
    """CPU cache sizes in bytes as getconf reports them (from CPUID, no files read)."""
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].startswith("LEVEL") and parts[0].endswith("CACHE_SIZE"):
            sizes["L" + parts[0].removeprefix("LEVEL").removesuffix("_SIZE")] = int(parts[1])
    return sizes


def run_info(workload: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS[workload],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cache_bytes": cache_sizes(),
        "clients": 1,
        "loop": "closed",
    }


def run_worker(workload: str, d: Path, seconds: float, out: Path, deadline: float,
               count: int | None = None, spans: Path | None = None) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(d), "--seconds", str(seconds), "--out", str(out)]
    if count is not None:
        cmd += ["--count", str(count)]
    if spans is not None:
        cmd += ["--trace", "1", "--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update((var, str(BLAS_THREADS[workload])) for var in BLAS_VARS)
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print("perfbench: worker exceeded the time budget", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(out, "rb") as f:
        return pickle.load(f)


def balanced_median(records: list, key: str, classes: int) -> float:
    """Geometric mean over instance classes of the per-class median per instance.

    Instance classes differ in cost by up to 5x (the sweep's Gaussian and
    aggregation bases), so a plain median over all instances falls between
    clusters and moves with their proportions; per-class medians do not.
    """
    groups: dict = {}
    for r in records:
        groups.setdefault(r["index"] % classes, []).append(r["times"][key])
    return float(np.exp(np.mean([np.log(statistics.median(v)) for v in groups.values()])))


def percentile_line(values: list[float]) -> str:
    """Median, plus the highest of p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            text += f"  p{p} {float(np.percentile(values, p)):.6g}"
            break
    return text + f"  (n={n})"


def check_all(workload: str, seed: int, d: Path, manifest: dict, records: list) -> checks.Outcome:
    out = checks.Outcome()
    for rec in records:
        inst = manifest["instances"][rec["index"]]
        if workload == "paper_sweep":
            M, q, raw = inputs.sweep_instance(seed, rec["index"])
            checks.check_sweep(rec, M, q, raw, out)
        elif workload == "large_dense":
            M = np.load(CACHE / "large_dense" / "operators" / inst["matrix"])
            q, raw = inputs.dense_rhs(seed, inst["kind"], M.shape[0])
            checks.check_dense(rec, M, q, raw, out)
        else:
            with np.load(d / inst["arrays"]) as z:
                checks.check_poly(rec, {k: z[k] for k in z.files}, out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "conevi" / "__init__.py").is_file():
        return fail(f"no conevi sources under {ROOT / 'src'}; run from a full checkout")

    d, manifest = inputs.prepare(args.workload, args.seed, args.seconds, CACHE)
    deadline = time.monotonic() + WORKER_BUDGET_S
    tag = f"{args.workload}-seed{args.seed}"
    plain = run_worker(args.workload, d, args.seconds, CACHE / f"{tag}.plain.pkl", deadline)
    if plain is None:
        return 1
    records = plain["records"]
    traced = None
    if args.trace:
        traced = run_worker(args.workload, d, args.seconds, CACHE / f"{tag}.traced.pkl",
                            deadline, count=len(records), spans=CACHE / "spans" / f"{tag}.npz")
        if traced is None:
            return 1

    outcome = check_all(args.workload, args.seed, d, manifest, records)
    timed = [r for r in records if "times" in r]
    if not timed:
        return fail("no instance completed its pipeline")

    info = run_info(args.workload)
    print(f"conevi benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("run " + json.dumps(info))
    print(f"instances {len(records)} in {plain['wall_s']:.3f} s "
          "(one client, closed loop; timings are per instance)")
    classes = inputs.CLASSES[args.workload]
    print(f"per-instance timings: class-balanced median over {classes} instance classes; "
          "then all instances together")
    for phase in PHASES[args.workload]:
        print(f"  {phase:<12} [s]  {balanced_median(timed, phase, classes):.6g}   all: "
              f"{percentile_line([r['times'][phase] for r in timed])}")
    print(f"  peak_rss_mb  [MB] {plain['peak_rss_mb']:.1f}")
    frac = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_frac {outcome.failed}/{outcome.attempted} = {frac:.6g}  "
          f"by kind {json.dumps(outcome.breakdown())}")
    if outcome.incorrect:
        print("incorrect outputs: " + "; ".join(outcome.incorrect))

    if args.trace:
        table = layers.per_layer(records, traced["records"], outcome)
        print(f"per-layer (traced pass, median per instance; spans dropped "
              f"{traced['spans_dropped']}):")
        for name, (value, unit) in table.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<42} {shown} {unit}")
        missing = [name for name in layers.DECLARED if table[name][0] is None]
        if missing:
            return fail(f"declared per-layer metrics not measured: {', '.join(missing)}")
        metrics = {name: {"value": table[name][0], "unit": table[name][1]}
                   for name in layers.DECLARED}
    else:
        medians = {name: balanced_median(timed, name, classes)
                   for name, _ in END_TO_END if name != "peak_rss_mb"}
        medians["peak_rss_mb"] = plain["peak_rss_mb"]
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}

    summary = {"correct": not outcome.incorrect, "attempted": outcome.attempted,
               "failed": outcome.failed, "metrics": metrics}
    (CACHE / "results").mkdir(parents=True, exist_ok=True)
    (CACHE / "results" / f"{tag}-trace{args.trace}.json").write_text(json.dumps(
        {**summary, "run": info, "failures_by_kind": outcome.breakdown()}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
