"""Per-layer metrics from the traced pass.

Times are medians per instance over the instances that called the layer
(None, printed n/a, when no instance did); counts are medians per instance
over all instances, so 0 means the layer was not used.
"""
from __future__ import annotations

import statistics

# the per-layer metrics that BENCHMARK.json declares: each is defined on both of
# its workloads (counts may be 0 where a layer is not used)
DECLARED = (
    "basis.orthonormalize_s",
    "projective.build_s",
    "projective.ipm_iters",
    "projective.ipm_self_s",
    "projective.woodbury_calls",
    "projective.woodbury_s",
    "operators.apply_calls",
    "basis.project_span_calls",
    "cones.project_calls",
    "solvers.exact_iters",
    "solvers.galerkin_iters",
    "trace.overhead_frac",
)


def _time(rows, *spans, field="s"):
    vals = [sum(r.get(f"{s}.{field}", 0.0) for s in spans) for r in rows
            if any(r.get(f"{s}.calls", 0) for s in spans)]
    return statistics.median(vals) if vals else None


def _count(rows, key):
    return statistics.median(r.get(key, 0) for r in rows)


def _rate(rows, num, spans):
    vals = [num(r) / sum(r[f"{s}.s"] for s in spans) for r in rows
            if all(r.get(f"{s}.calls", 0) for s in spans)]
    return statistics.median(vals) if vals else None


def per_layer(plain: list, traced: list, outcome) -> dict:
    """name -> (value or None, unit), in layer order."""
    done = [(p, t) for p, t in zip(plain, traced) if "times" in p and "times" in t]
    rows = [t["trace"] for _, t in done]
    calls = sum(r.get("solvers.project_intersection.calls", 0) for r in rows)
    ok = calls - sum(r.get("solvers.project_intersection.failed", 0) for r in rows)
    over = [t["times"]["total_s"] - p["times"]["total_s"] for p, t in done]
    frac = [t["times"]["total_s"] / p["times"]["total_s"] - 1.0 for p, t in done]
    parse = ("fileio.parse_problem", "fileio.parse_basis")

    return {
        "fileio.parse_s": (_time(rows, *parse), "s"),
        "fileio.parse_mb_per_s": (_rate(
            rows, lambda r: sum(r[f"{s}.bytes"] for s in parse) / 1e6, parse), "MB/s"),
        "operators.monotone_modulus_s": (_time(rows, "operators.monotone_modulus"), "s"),
        "operators.lipschitz_constant_s": (_time(rows, "operators.lipschitz_constant"), "s"),
        "operators.lipschitz_slack_min": (min(outcome.lipschitz_slack, default=None), "ratio"),
        "operators.beta_slack_min": (min(outcome.beta_slack, default=None), "ratio"),
        "operators.apply_calls": (_count(rows, "operators.apply.calls"), "count"),
        "operators.apply_s": (_time(rows, "operators.apply"), "s"),
        "operators.apply_gb_per_s_computed": (_rate(
            rows, lambda r: 8.0 * r["n"] ** 2 * r["operators.apply.calls"] / 1e9,
            ("operators.apply",)), "GB/s"),
        "basis.orthonormalize_s": (_time(rows, "basis.orthonormalize"), "s"),
        "basis.project_span_calls": (_count(rows, "basis.project_span.calls"), "count"),
        "basis.project_span_s": (_time(rows, "basis.project_span"), "s"),
        "cones.project_calls": (_count(rows, "cones.project.calls"), "count"),
        "cones.project_s": (_time(rows, "cones.project"), "s"),
        "solvers.exact_iters": (_count(rows, "solvers.exact.iters"), "count"),
        "solvers.galerkin_iters": (_count(rows, "solvers.galerkin.iters"), "count"),
        "solvers.bertsekas_iters": (_count(rows, "solvers.bertsekas.iters"), "count"),
        "solvers.exact_self_s": (_time(rows, "solvers.exact", field="self_s"), "s"),
        "solvers.galerkin_self_s": (_time(rows, "solvers.galerkin", field="self_s"), "s"),
        "solvers.project_intersection_calls": (
            _count(rows, "solvers.project_intersection.calls"), "count"),
        "solvers.project_intersection_s": (_time(rows, "solvers.project_intersection"), "s"),
        "solvers.project_intersection_ok_ratio": (ok / calls if calls else None, "ratio"),
        "solvers.dykstra_cycles": (_count(rows, "solvers.dykstra_cycles"), "count"),
        "solvers.certify_s": (_time(rows, "solvers.certify"), "s"),
        "projective.build_s": (_time(rows, "projective.build"), "s"),
        "projective.verify_pd_s": (_time(rows, "projective.verify_pd"), "s"),
        "projective.ipm_iters": (_count(rows, "projective.ipm.iters"), "count"),
        "projective.ipm_self_s": (_time(rows, "projective.ipm", field="self_s"), "s"),
        "projective.woodbury_calls": (_count(rows, "projective.woodbury.calls"), "count"),
        "projective.woodbury_s": (_time(rows, "projective.woodbury"), "s"),
        "transforms.polyhedron_to_cone_s": (_time(rows, "transforms.polyhedron_to_cone"), "s"),
        "transforms.eliminate_equalities_s": (
            _time(rows, "transforms.eliminate_equalities"), "s"),
        "trace.overhead_s": (statistics.median(over), "s"),
        "trace.overhead_frac": (statistics.median(frac), "ratio"),
    }
