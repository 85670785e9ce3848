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


def reduction(M, q, A, b, E=None, e=None):
    """The operator and cone of polyhedron_to_cone on VI(Mx + q, {Ax + b >= 0}),
    with the equality rows E x = e on x through eliminate_equalities. x is
    the block [m, m + n) of the reduced variables, m = len(b)."""
    layout = polyhedron_to_cone(PolyhedralVI(M, q, A, b))
    if E is None:
        return layout.op, layout.cone
    rows = np.zeros((E.shape[0], layout.cone.dim))
    rows[:, A.shape[0]:A.shape[0] + A.shape[1]] = E
    eq = eliminate_equalities(layout.op, rows, e, layout.cone)
    return eq.op, eq.cone


def full_spans(n, rng):
    """Raw bases of rank n: the identity, a signed and scaled permutation,
    and a dense Gaussian matrix (a dense orthogonal factor)."""
    signed = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
    return np.eye(n), np.diag(signed)[rng.permutation(n)], rng.standard_normal((n, n))
