"""Problem conversions: Lagrange elimination of equality constraints and
reduction of polyhedral feasible sets to separable cones via slack
variables.

The polyhedral reduction composes two steps: introduce slacks s >= 0 with
Ax - s + b = 0 (x free), then eliminate that equality with multipliers
lambda through eliminate_equalities. In variable order (s, x, lambda) the
assembled operator is

    [[0,    0,  I ],        (0,)
     [0,    M, -A^T],  u +  (q,)
     [-I,   A,  0 ]]        (b,)

over the cone NonNeg(m) x Free(n) x Free(m). The symmetric part of the
block matrix is diag(0, (M+M^T)/2, 0), so the transform preserves
monotonicity but never strong monotonicity: layout.op.beta is 0 up to
rounding, the contraction solvers refuse it, and the interior-point path
(which only needs monotonicity) applies. Its Newton steps recognise the
slack pairs (s_i, lambda_i), the I and -I blocks above, from the matrix's
entries, also after eliminate_equalities appends equality rows, and
eliminate them: each step factors M + A^T diag(lambda/s) A (bordered by
the equality rows), not a (2m + n)-sized system (see conevi.projective).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import SegmentKind, Segment, SeparableCone, _finite, _vector
from .operators import AffineOperator

__all__ = [
    "PolyhedralVI",
    "ConicProgramLayout",
    "eliminate_equalities",
    "polyhedron_to_cone",
]


@dataclass(frozen=True)
class PolyhedralVI:
    """VI(Mx + q, {x : Ax + b >= 0}); ValueError naming the input that has
    the wrong shape or a NaN or infinite entry."""

    M: np.ndarray
    q: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        M = np.asarray(self.M, dtype=float)
        A = np.asarray(self.A, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"M must be square, got shape {M.shape}")
        n = M.shape[0]
        q = _vector(self.q, n, "q")
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"A has shape {A.shape}, expected (m, {n})")
        b = _vector(self.b, A.shape[0], "b")
        for name, val in (("M", M), ("q", q), ("A", A), ("b", b)):
            object.__setattr__(self, name, _finite(val, name))


@dataclass(frozen=True)
class ConicProgramLayout:
    """A transformed problem plus the coordinate spans of its named blocks.

    With constraint rows op is never strongly monotone: op.beta is 0 up to
    rounding."""

    cone: SeparableCone
    op: AffineOperator
    variable_map: dict[str, tuple[int, int]]

    def extract(self, name: str, vector: np.ndarray) -> np.ndarray:
        lo, hi = self.variable_map[name]
        return np.asarray(vector)[lo:hi]


def eliminate_equalities(op: AffineOperator, A, b, cone: SeparableCone) -> ConicProgramLayout:
    """Replace the equality constraints Ax = b by Lagrange multipliers.

    The output operates on (y, lambda) with matrix [[M, -A^T], [A, 0]] and
    offset (q, -b), over cone x Free(m). ValueError naming A or b when it
    has the wrong shape or a NaN or infinite entry.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = op.dim
    if cone.dim != n:
        raise ValueError(f"cone dimension {cone.dim} != operator dimension {n}")
    if A.size == 0:
        A = A.reshape(0, n)
    m = A.shape[0]
    if A.shape != (m, n):
        raise ValueError(f"A has shape {A.shape}, expected ({m}, {n})")
    _finite(A, "A")
    b = _finite(_vector(b, m, "b"), "b")

    if m == 0:
        return ConicProgramLayout(
            cone=cone,
            op=op,
            variable_map={"y": (0, n), "lambda": (n, n)},
        )

    big_M = np.zeros((n + m, n + m))
    big_M[:n, :n] = op.M
    big_M[:n, n:] = -A.T
    big_M[n:, :n] = A
    big_q = np.concatenate([op.q, -b])
    big_cone = SeparableCone(cone.segments + (Segment(SegmentKind.FREE, m),))
    return ConicProgramLayout(
        cone=big_cone,
        op=AffineOperator(big_M, big_q),
        variable_map={"y": (0, n), "lambda": (n, n + m)},
    )


def polyhedron_to_cone(p: PolyhedralVI) -> ConicProgramLayout:
    """Reduce VI(Mx + q, {Ax + b >= 0}) to a VI over a separable cone.

    Variables are ordered (s, x, lambda) with sizes (m, n, m) over
    NonNeg(m) x Free(n) x Free(m). At a solution: s = Ax + b >= 0,
    Mx + q = A^T lambda with lambda >= 0, and s^T lambda = 0.
    The result is that of the slack step, diag(0, M) and (0, q) on (s, x)
    over NonNeg(m) x Free(n), followed by eliminate_equalities on
    [-I, A] (s, x) = -b; the block matrix is written into one zero array,
    with no intermediate of size (m + n)^2 and no identity matrix.
    """
    n = p.M.shape[0]
    m = p.A.shape[0]
    if m == 0:  # a segment cannot have length 0
        return ConicProgramLayout(
            cone=SeparableCone((Segment(SegmentKind.FREE, n),)),
            op=AffineOperator(p.M, p.q),
            variable_map={"s": (0, 0), "x": (0, n), "lambda": (n, n)},
        )

    x, lam = slice(m, m + n), slice(m + n, m + n + m)
    M = np.zeros((2 * m + n, 2 * m + n))
    M[x, x] = p.M
    M[x, lam] = -p.A.T
    M[lam, x] = p.A
    i = np.arange(m)
    M[i, m + n + i] = 1.0
    M[m + n + i, i] = -1.0
    cone = SeparableCone((Segment(SegmentKind.NONNEGATIVE, m), Segment(SegmentKind.FREE, n),
                          Segment(SegmentKind.FREE, m)))
    return ConicProgramLayout(
        cone=cone,
        op=AffineOperator(M, np.concatenate([np.zeros(m), p.q, p.b])),
        variable_map={"s": (0, m), "x": (m, m + n), "lambda": (m + n, m + n + m)},
    )
