"""Command-line front end.

Subcommands: solve (exact | bertsekas | galerkin | ipm), bounds, gen and
bench. Human output goes to stdout, diagnostics to stderr;
exit codes are 0 (success), 1 (solver did not converge or refused the
problem), and 2 (usage or parse errors).
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .basis import EmptyBasis, orthonormalize
from .bench import bench_ipm
from .cones import orthant
from .fileio import ProblemFormatError, parse_basis, parse_problem, write_basis, write_problem
from .generate import GenerationError, generate_instance
from .operators import NotStronglyMonotone
from .projective import IpmBreakdown, IpmConfig, build_projective, solve_ipm
from .solvers import (
    IntersectionProjectionFailed,
    SolveConfig,
    bound_report,
    solve_bertsekas,
    solve_exact,
    solve_galerkin,
)

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, np.ndarray):
        return " ".join(format(float(v), ".17g") for v in value)
    return str(value)


def _emit(pairs, fmt: str) -> None:
    sep = "\t" if fmt == "kv" else ": "
    for key, value in pairs:
        print(f"{key}{sep}{_fmt(value)}")


class _FileError(Exception):
    """A file the command reads or writes failed to open; exit code 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _FileError(f"cannot write {path}: {exc.strerror}") from exc


def _load_problem(path: str):
    return parse_problem(_read(path))


def _load_basis(path: str):
    return orthonormalize(parse_basis(_read(path)))


def _config(cls, args, **fields):
    """cls built from the options that were given; `fields` maps each config
    field to the name of its option in args."""
    return cls(**{name: getattr(args, option) for name, option in fields.items()
                  if getattr(args, option) is not None})


# the options of `solve` (by dest) that each method never reads
_UNREAD = {"exact": ("basis",), "bertsekas": (), "galerkin": (), "ipm": ("trace",)}


def _cmd_solve(args) -> int:
    for dest in _UNREAD[args.method]:
        if getattr(args, dest) is not None:
            print(f"solve --method {args.method} does not use --{dest}", file=sys.stderr)
            return 2
    if args.method in ("bertsekas", "galerkin") and not args.basis:
        print(f"solve --method {args.method} requires --basis", file=sys.stderr)
        return 2
    op, cone = _load_problem(args.problem)
    basis = _load_basis(args.basis) if args.basis else None

    if args.method == "ipm":
        ipm_cfg = _config(IpmConfig, args, tol="tol", max_iter="max_iter")
        if cone.zero_mask.any():
            print("solver error: zero-constrained segments are not a feasible set for the IPM",
                  file=sys.stderr)
            return 1
        if basis is None:
            basis = orthonormalize(np.eye(cone.dim))
        try:
            plcp = build_projective(op, basis, args.alpha)
        except NotStronglyMonotone:
            print("operator is not strongly monotone; pass --alpha explicitly",
                  file=sys.stderr)
            return 1
        report = solve_ipm(plcp, cone, ipm_cfg)
        own = [("mu", report.mu), ("feas", report.feasibility),
               ("finish", report.finish_accepted)]
    else:
        cfg = _config(SolveConfig, args, tol="tol", max_iter="max_iter",
                      alpha_override="alpha")
        cfg.trace = bool(args.trace)
        if args.method == "exact":
            report = solve_exact(op, cone, cfg)
        elif args.method == "bertsekas":
            report = solve_bertsekas(op, cone, basis, cfg)
        else:
            report = solve_galerkin(op, cone, basis, cfg)
        own = [("step", report.step_norms[-1]), ("gamma", report.gamma)]
        if report.z is not None:
            own.append(("z", report.z))
        cert = report.certificate
        if cert is not None:
            own += [("cert_nullspace", cert.null_space_violation),
                    ("cert_normalcone", cert.normal_cone_ok),
                    ("cert_gap", cert.complementarity_gap),
                    ("cert_valid", cert.valid)]

    _emit([("method", args.method), ("converged", report.converged),
           ("iters", report.iterations), *own, ("x", report.x)], args.format)
    if args.trace:
        rows = report.trace_rows()
        _write(args.trace, "".join(f"{t}\t{_fmt(step)}\t{_fmt(dist)}\n" for t, step, dist in rows))
    return 0 if report.converged else 1


def _cmd_bounds(args) -> int:
    op, cone = _load_problem(args.problem)
    basis = _load_basis(args.basis)
    comp = bound_report(op, cone, basis, _config(SolveConfig, args, tol="tol"))

    pairs = [
        ("gamma", comp.gamma),
        ("iters", comp.exact_iterations),
        ("bound_new", comp.bound_new),
        ("err_new", comp.err_new_x),
        ("err_new_z", comp.err_new_z),
        ("verdict_new", "OK" if comp.new_ok else "VIOLATED"),
    ]
    if comp.bertsekas_skipped:
        pairs.append(("verdict_bertsekas", "SKIPPED"))
    else:
        pairs.extend([
            ("bound_bertsekas", comp.bound_bertsekas),
            ("err_bertsekas", comp.err_bertsekas),
            ("verdict_bertsekas", "OK" if comp.bertsekas_ok else "VIOLATED"),
        ])
    _emit(pairs, args.format)
    solved = comp.exact_converged and comp.galerkin_converged and (
        comp.bertsekas_skipped or comp.bertsekas_converged)
    return 0 if solved else 1


def _cmd_gen(args) -> int:
    op, basis = generate_instance(args.n, args.k, args.beta, args.L, args.seed)
    _write(args.out, write_problem(op, orthant(args.n)))
    if args.basis_out:
        _write(args.basis_out, write_basis(basis.ortho))
    print(f"wrote {args.out}" + (f" and {args.basis_out}" if args.basis_out else ""))
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        print("--sizes needs at least one integer", file=sys.stderr)
        return 2
    results = bench_ipm(sizes, args.k, args.repeats, seed=args.seed)
    for res in results:
        _emit([
            (f"bench_{res.n}_iters", res.iterations),
            (f"bench_{res.n}_per_iter_s", res.per_iter_median_s),
            (f"bench_{res.n}_total_s", res.total_median_s),
            (f"bench_{res.n}_converged", res.converged),
        ], args.format)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads an argument such as -1e-3 or -inf as a value, not an option.

    argparse takes an argument that starts with "-" for an option unless it
    is a plain decimal such as -0.5; here a "-" followed by a digit, ".",
    "inf" or "nan" also starts a value, so `--alpha -1e-3` and `--tol -inf`
    reach the same range check as `--alpha -0.5`. No option here starts
    that way. The pattern replaces argparse's private test for negative
    numbers; `tests/test_cli.py` runs both spellings. Subparsers are made
    with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conevi",
        description="Solvers for monotone variational inequalities and "
                    "complementarity problems over separable cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "kv"), default="text",
                       help="human-readable or key<TAB>value output")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--method", required=True,
                         choices=("exact", "bertsekas", "galerkin", "ipm"))
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--basis", help="basis file (required for bertsekas/galerkin, "
                                         "optional for ipm, rejected by exact)")
    p_solve.add_argument("--tol", type=float, help="stopping tolerance (ipm: mu and feasibility)")
    p_solve.add_argument("--max-iter", type=int, dest="max_iter")
    p_solve.add_argument("--alpha", type=float,
                         help="override the step size derived from beta and L "
                              "(ipm on a full-span basis ignores it)")
    p_solve.add_argument("--trace", help="write (t, step_norm, distance_to_final) rows "
                                         "here (rejected by ipm)")
    add_format(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bounds = sub.add_parser("bounds", help="compare both error bounds to actual errors")
    p_bounds.add_argument("--problem", required=True)
    p_bounds.add_argument("--basis", required=True)
    p_bounds.add_argument("--tol", type=float, help="stopping tolerance of the solves "
                                                     "measured against their bounds")
    add_format(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--beta", type=float, required=True)
    p_gen.add_argument("--L", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--basis-out", dest="basis_out")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="time IPM iterations across problem sizes")
    p_bench.add_argument("--sizes", required=True, help="comma-separated n values")
    p_bench.add_argument("--k", type=int, default=10)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    add_format(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/diagnostics
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _FileError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (NotStronglyMonotone, IntersectionProjectionFailed, IpmBreakdown,
            GenerationError, EmptyBasis) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
