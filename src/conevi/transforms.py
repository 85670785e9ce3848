"""Problem conversions: Lagrange elimination of equality constraints and
reduction of polyhedral feasible sets to separable cones via slack
variables.

The polyhedral reduction composes two steps: introduce slacks s >= 0 with
Ax - s + b = 0 (x free), then eliminate that equality with multipliers
lambda through eliminate_equalities. In variable order (s, x, lambda) the
operator is

    [[0,    0,  I ],        (0,)
     [0,    M, -A^T],  u +  (q,)
     [-I,   A,  0 ]]        (b,)

over the cone NonNeg(m) x Free(n) x Free(m). The symmetric part of the
block matrix is diag(0, (M+M^T)/2, 0), so the transform preserves
monotonicity but never strong monotonicity: layout.op.beta is 0 or below,
the contraction solvers refuse it, and the interior-point path (which only
needs monotonicity) applies.

The reduction's operator keeps M, A, q and b as they are, and so do the
equality rows E x = e that later eliminate_equalities calls put on the x
block alone (the variables are then (s, x, lambda, mu)). It applies the block
matrix and finds beta in O(n^2 + mn + pn) for p equality rows; the dense
(2m + n + p)^2 array is written only when a caller reads op.M.
conevi.projective keeps the operator for a full-span basis, and each
interior-point Newton step factors a system formed from the blocks
(_PolyhedralOperator._newton_factor states it and its cost).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import SegmentKind, Segment, SeparableCone, _finite, _same_dim, _vector
from .operators import AffineOperator, _lu, monotone_modulus

__all__ = [
    "PolyhedralVI",
    "ConicProgramLayout",
    "eliminate_equalities",
    "polyhedron_to_cone",
]

# a slack row whose d = D - 1 reaches 1/u (u the unit roundoff) borders the
# Newton system of _PolyhedralOperator._newton_factor: in M + A^T diag(d) A,
# d a a^T would round away entries of M that are no larger than a a^T
_BORDER_D = 2.0**53


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
        return _vector(vector, self.cone.dim, "vector")[lo:hi]


class _PolyhedralOperator(AffineOperator):
    """F(u) = N u + q of a polyhedral reduction, kept as its blocks.

    On u = (s, x, lambda, mu) with sizes (m, n, m, p),

        N u = (lambda, M x - A^T lambda - E^T mu, A x - s, E x),

    E the p x n equality rows on x (p = 0 when there are none): the rows of
    every eliminate_equalities call, each zero off x. M, A and E are
    shared, not copied. N u, F(u) and beta cost O(n^2 + mn + pn). The dense
    N is written on the first read of .M, the blocks in a zero array: in
    value the matrix eliminate_equalities' dense assembly writes. L is
    computed from it.
    """

    def __init__(self, M_x: np.ndarray, A: np.ndarray, E: np.ndarray, q: np.ndarray):
        self.M_x, self.A, self.E, self.q = M_x, A, E, q
        self.m, self.n = A.shape

    @property
    def dim(self) -> int:
        return 2 * self.m + self.n + self.E.shape[0]

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        m, n = self.m, self.n
        s, x, lam, mu = u[:m], u[m:m + n], u[m + n:2 * m + n], u[2 * m + n:]
        out = np.empty(self.dim)
        out[:m] = lam
        stationary = self.M_x @ x
        stationary -= lam @ self.A
        stationary -= mu @ self.E
        out[m:m + n] = stationary
        out[m + n:2 * m + n] = self.A @ x - s
        out[2 * m + n:] = self.E @ x
        return out

    @cached_property
    def M(self) -> np.ndarray:
        m, n = self.m, self.n
        k = 2 * m + n
        x, lam = slice(m, m + n), slice(m + n, k)
        big = np.zeros((self.dim, self.dim))
        big[x, x] = self.M_x
        big[x, lam] = -self.A.T
        big[lam, x] = self.A
        i = np.arange(m)
        big[i, m + n + i] = 1.0
        big[m + n + i, i] = -1.0
        big[x, k:] = -self.E.T
        big[k:, x] = self.E
        return big

    @cached_property
    def beta(self) -> float:
        """min(0, beta of M): the symmetric part of N is diag(0, sym M, 0)."""
        return min(0.0, monotone_modulus(self.M_x))

    def _newton_factor(self, D: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The solve of (N + diag(D - 1)) y = b from N's blocks, when D = 1 on
        every row but the slacks s and D >= 1 on those (see
        AffineOperator._newton_factor): every D the IPM makes on the
        reduction's own cone, its finish's included. Any other positive D,
        one that varies on an x row say, takes the parent's n x n route on
        the dense N.

        With d = D_s - 1, the rows of y = (y_s, y_x, y_lambda, y_mu) read
        y_lambda + d y_s = b_s, M y_x - A^T y_lambda - E^T y_mu = b_x,
        A y_x - y_s = b_lambda and E y_x = b_mu. Eliminating
        y_s = A y_x - b_lambda and y_lambda = b_s - d y_s leaves
        [[K, -E^T], [E, 0]] (y_x, y_mu) = (b_x + A^T (b_s + d b_lambda), b_mu),
        an (n + p)^2 system with K = M + A^T diag(d) A formed by one SYRK on
        diag(sqrt(d)) A in O(n^2 m) and factored in O((n + p)^3). The
        finish, with d = 0 on every slack it does not pin, forms no product:
        K = M.
        Border rule: a slack row with d >= _BORDER_D (D = inf included) keeps
        its y_lambda. Only y_s = (b_s - y_lambda) / d is eliminated, and the
        row A y_x + y_lambda / d = b_lambda + b_s / d borders K next to E,
        with 1/d on its diagonal; a pinned slack (D = inf, the finish) is the
        case 1/d = 0, where y_s = 0. So a huge d never enters K, where
        d a a^T would round M's entries away.
        The eliminations pivot on +-I and on d, so the system is singular
        exactly when N + diag(D - 1) is; IpmBreakdown then. Like every Newton
        route it tests no finiteness: a system or a solve that overflows
        gives a solve that is not finite, which ends solve_ipm (under whose
        np.errstate it runs) unconverged.
        """
        M, A, E = self.M_x, self.A, self.E
        m, n = A.shape
        if not (np.all(D[m:] == 1.0) and np.all(D[:m] >= 1.0)):
            return super()._newton_factor(D)
        x, lam, mu = slice(m, m + n), slice(m + n, 2 * m + n), slice(2 * m + n, None)
        d = D[:m] - 1.0
        bordered = d >= _BORDER_D
        d_b = d[bordered]
        if d_b.size:
            kept = ~bordered
            A_k, d_k, border = A[kept], d[kept], np.vstack([A[bordered], E])
        else:
            kept, A_k, d_k, border = slice(None), A, d, E
        k, n_b = border.shape[0], d_b.size
        K = np.empty((n + k, n + k))
        if d_k.any():
            As = A_k * np.sqrt(d_k)[:, None]
            np.add(As.T @ As, M, out=K[:n, :n])  # NumPy takes As^T As by SYRK
        else:
            K[:n, :n] = M
        K[:n, n:] = -border.T
        K[n:, :n] = border
        K[n:, n:] = 0.0
        np.fill_diagonal(K[n:n + n_b, n:n + n_b], 1.0 / d_b)
        solve_K = _lu(K)

        def solve(b: np.ndarray) -> np.ndarray:
            b_s, b_lam = b[:m], b[lam]
            y = np.empty(b.size)
            y_s, y_lam = y[:m], y[lam]
            z = solve_K(np.concatenate([b[x] + (b_s[kept] + d_k * b_lam[kept]) @ A_k,
                                        b_lam[bordered] + b_s[bordered] / d_b, b[mu]]))
            y[x] = z[:n]
            y_lam[bordered] = z[n:n + n_b]
            y[mu] = z[n + n_b:]
            y_s[bordered] = (b_s[bordered] - y_lam[bordered]) / d_b
            y_s[kept] = A_k @ z[:n] - b_lam[kept]
            y_lam[kept] = b_s[kept] - d_k * y_s[kept]
            return y

        return solve


def eliminate_equalities(op: AffineOperator, A, b, cone: SeparableCone) -> ConicProgramLayout:
    """Replace the equality constraints Ax = b by Lagrange multipliers.

    The output operates on (y, lambda) with matrix [[M, -A^T], [A, 0]] and
    offset (q, -b), over cone x Free(m). ValueError naming A or b when it
    has the wrong shape or a NaN or infinite entry.

    On a polyhedral reduction's operator (polyhedron_to_cone's, or one this
    function returned for it), rows that are zero, of either sign, off the
    x block are appended to its equality rows on x, and no dense matrix is
    formed; any other input is assembled densely.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = op.dim
    _same_dim("cone", cone.dim, "operator", n)
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

    big_q = np.concatenate([op.q, -b])
    big_cone = SeparableCone(cone.segments + (Segment(SegmentKind.FREE, m),))
    variable_map = {"y": (0, n), "lambda": (n, n + m)}
    if isinstance(op, _PolyhedralOperator):
        x = slice(op.m, op.m + op.n)
        if not (A[:, :x.start].any() or A[:, x.stop:].any()):
            E = np.vstack([op.E, A[:, x]])
            return ConicProgramLayout(cone=big_cone, op=_PolyhedralOperator(op.M_x, op.A, E, big_q),
                                      variable_map=variable_map)

    big_M = np.zeros((n + m, n + m))
    big_M[:n, :n] = op.M
    big_M[:n, n:] = -A.T
    big_M[n:, :n] = A
    return ConicProgramLayout(cone=big_cone, op=AffineOperator(big_M, big_q),
                              variable_map=variable_map)


def polyhedron_to_cone(p: PolyhedralVI) -> ConicProgramLayout:
    """Reduce VI(Mx + q, {Ax + b >= 0}) to a VI over a separable cone.

    Variables are ordered (s, x, lambda) with sizes (m, n, m) over
    NonNeg(m) x Free(n) x Free(m). At a solution: s = Ax + b >= 0,
    Mx + q = A^T lambda with lambda >= 0, and s^T lambda = 0.
    The result is that of the slack step, diag(0, M) and (0, q) on (s, x)
    over NonNeg(m) x Free(n), followed by eliminate_equalities on
    [-I, A] (s, x) = -b. With m >= 1 op keeps M and A as blocks (see the
    module docstring), and set-up costs O(m + n); with m = 0 it is the
    AffineOperator of M and q.
    """
    n = p.M.shape[0]
    m = p.A.shape[0]
    if m == 0:  # a segment cannot have length 0
        return ConicProgramLayout(
            cone=SeparableCone((Segment(SegmentKind.FREE, n),)),
            op=AffineOperator(p.M, p.q),
            variable_map={"s": (0, 0), "x": (0, n), "lambda": (n, n)},
        )

    cone = SeparableCone((Segment(SegmentKind.NONNEGATIVE, m), Segment(SegmentKind.FREE, n),
                          Segment(SegmentKind.FREE, m)))
    return ConicProgramLayout(
        cone=cone,
        op=_PolyhedralOperator(p.M, p.A, np.zeros((0, n)),
                               np.concatenate([np.zeros(m), p.q, p.b])),
        variable_map={"s": (0, m), "x": (m, m + n), "lambda": (m + n, m + n + m)},
    )
