import importlib
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

from conevi.transforms import PolyhedralVI, eliminate_equalities, polyhedron_to_cone

# every run, in CI or not, draws the same examples and replays none
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(monkeypatch, name: str):
    """perfbench/<name>.py, imported without writing bytecode there and
    dropped from sys.modules again, so perfbench/ stays untouched."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        return importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)


def calls(monkeypatch, owner, name):
    """The positional arguments of each call of owner.name from now on, one
    tuple per call in call order; each call runs as before. On a class, the
    first argument of a method call is the instance."""
    recorded = []
    inner = getattr(owner, name)

    def recording(*args, **kwargs):
        recorded.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return recorded


def equality_rows(op, cone, m, E, e, sign=1.0, calls=1):
    """op and cone after eliminate_equalities with the rows E x = e on the
    block x = [m, m + n) of the variables, zero elsewhere, split over
    `calls` calls, and each call's rows and right-hand side multiplied by
    sign (so sign = -1 writes -0.0 off the x block)."""
    e = np.asarray(e, dtype=float)
    for i in np.array_split(np.arange(e.size), calls):
        rows = np.zeros((i.size, cone.dim))
        rows[:, m:m + E.shape[1]] = E[i]
        eq = eliminate_equalities(op, sign * rows, sign * e[i], cone)
        op, cone = eq.op, eq.cone
    return op, cone


def reduction(M, q, A, b, E=None, e=None, sign=1.0, calls=1):
    """The operator and cone of polyhedron_to_cone on VI(Mx + q, {Ax + b >= 0}),
    with the equality rows E x = e on x as equality_rows gives them. x is the
    block [m, m + n) of the reduced variables, m = len(b)."""
    layout = polyhedron_to_cone(PolyhedralVI(M, q, A, b))
    if E is None:
        return layout.op, layout.cone
    return equality_rows(layout.op, layout.cone, len(b), E, e, sign, calls)


def full_spans(n, rng):
    """Raw bases of rank n: the identity, a signed and scaled permutation,
    and a dense Gaussian matrix (a dense orthogonal factor)."""
    signed = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
    return np.eye(n), np.diag(signed)[rng.permutation(n)], rng.standard_normal((n, n))
