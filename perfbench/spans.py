"""Span recorder for the traced run.

`Tracer.install()` wraps the library's public layer functions with spans
(name, start, end, parent, instance). Spans stay in memory and are written
out once at the end; per-instance inclusive time, self time (span minus
its children) and call counts are accumulated as spans close, so the
numbers do not depend on the raw-span cap.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

_SPAN_CAP = 400_000

DYKSTRA_PARENT = "solvers.project_intersection"
DYKSTRA_CHILD = "cones.project"


def _iterations(result) -> dict:
    return {"iters": int(result.iterations)}


def _text_bytes(args, kwargs) -> dict:
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text)}


def _targets():
    """(span name, owner object, attribute, argument hook, result hook)."""
    from conevi import basis, cones, fileio, operators, projective, solvers, transforms

    return [
        ("fileio.parse_problem", fileio, "parse_problem", _text_bytes, None),
        ("fileio.parse_basis", fileio, "parse_basis", _text_bytes, None),
        ("operators.monotone_modulus", operators, "monotone_modulus", None, None),
        ("operators.lipschitz_constant", operators, "lipschitz_constant", None, None),
        ("operators.apply", operators.AffineOperator, "__call__", None, None),
        ("cones.project", cones.SeparableCone, "project", None, None),
        ("basis.orthonormalize", basis, "orthonormalize", None, None),
        ("basis.project_span", basis.Basis, "project_span", None, None),
        ("solvers.project_intersection", solvers, "project_intersection", None, None),
        ("solvers.certify", solvers, "certify", None, None),
        ("solvers.exact", solvers, "solve_exact", None, _iterations),
        ("solvers.galerkin", solvers, "solve_galerkin", None, _iterations),
        ("solvers.bertsekas", solvers, "solve_bertsekas", None, _iterations),
        ("solvers.bound_report", solvers, "bound_report", None, None),
        ("projective.build", projective, "build_projective", None, None),
        ("projective.verify_pd", projective, "verify_pd", None, None),
        ("projective.woodbury", projective, "solve_diag_plus_lowrank", None, None),
        ("projective.ipm", projective, "solve_ipm", None, _iterations),
        ("transforms.polyhedron_to_cone", transforms, "polyhedron_to_cone", None, None),
        ("transforms.eliminate_equalities", transforms, "eliminate_equalities", None, None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._stack: list[list] = []  # [name_id, start, child_time, span_index]
        self.instance = -1
        # per instance: name -> [calls, inclusive_s, self_s, failed]
        self.per_instance: list[dict] = []
        self.extra: list[dict] = []  # per instance: counter name -> value
        self.spans: list[tuple] = []
        self.dropped = 0
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def begin_instance(self) -> None:
        self.instance += 1
        self.per_instance.append(defaultdict(lambda: [0, 0.0, 0.0, 0]))
        self.extra.append(defaultdict(float))

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, arg_hook=None, result_hook=None):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            frame = [name_id, clock(), 0.0, -1]
            if len(self.spans) < _SPAN_CAP:
                frame[3] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            failed = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end, parent, failed)
            if result_hook is not None:
                for key, val in result_hook(result).items():
                    self.extra[self.instance][f"{name}.{key}"] += val
            if arg_hook is not None:
                for key, val in arg_hook(args, kwargs).items():
                    self.extra[self.instance][f"{name}.{key}"] += val
            return result

        return traced

    def _close(self, frame, end: float, parent: int, failed: bool) -> None:
        name_id, start, child, index = frame
        dur = end - start
        name = self.names[name_id]
        agg = self.per_instance[self.instance][name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        agg[3] += failed
        if self._stack:
            up = self._stack[-1]
            up[2] += dur
            if name == DYKSTRA_CHILD and self.names[up[0]] == DYKSTRA_PARENT:
                self.extra[self.instance]["solvers.dykstra_cycles"] += 1
        if index >= 0:
            self.spans[index] = (name_id, start, end, parent, self.instance)
        else:
            self.dropped += 1

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr, arg_hook, result_hook in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, arg_hook, result_hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        spans = np.array([s for s in self.spans if s is not None],
                         dtype=[("name", "i2"), ("start", "f8"), ("end", "f8"),
                                ("parent", "i4"), ("instance", "i4")])
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, spans=spans, names=np.array(self.names),
                            dropped=np.array(self.dropped))

    def instance_stats(self, i: int) -> dict:
        """Flat per-instance counters: <name>.calls/.s/.self_s/.failed plus extras."""
        out = dict(self.extra[i])
        for name, (calls, incl, self_s, failed) in self.per_instance[i].items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
            out[f"{name}.failed"] = failed
        return out
