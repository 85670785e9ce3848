"""Subspace bases: orthonormalization, span projection, and null-space residuals.

The projector onto span(Phi) is never materialized; all uses go through the
two-step n x k' product so projection stays O(n k'). A Basis holds one
orthonormal factor: dense, or, for a raw basis with disjoint column supports,
as its support map, from which the dense factor is written on first read. One
of rank n spans R^n, and the reduced problem of conevi.projective then uses
the identity in its place and never reads the factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .cones import _max_abs, _norm, _vector

__all__ = ["EmptyBasis", "Basis", "orthonormalize"]

# relative tolerance that defines span(Phi): orthonormalize keeps the smallest
# rank whose Frobenius residual is within it, and project_intersection judges
# ranks and vanishing rows by it
DROP_TOL = 1e-10


class EmptyBasis(Exception):
    """The raw basis matrix has no usable columns."""


@dataclass(frozen=True)
class _Support:
    """An n x k' factor with one nonzero per listed row: vals at (rows, cols),
    zero elsewhere."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self) -> np.ndarray:
        ortho = np.zeros(self.shape)
        ortho[self.rows, self.cols] = self.vals
        ortho.setflags(write=False)
        return ortho


class Basis:
    """The orthonormal factor of a raw basis Phi.

    `ortho` has orthonormal columns spanning span(Phi) up to DROP_TOL. Pass
    it dense, or as the O(n) support map of a factor with at most one
    nonzero per row (what orthonormalize keeps for disjoint supports); the
    dense, read-only n x k' array is then written on the first read of
    `ortho`, and n and rank need no array at all.
    """

    def __init__(self, ortho: np.ndarray | None = None, *,
                 support: _Support | None = None) -> None:
        if (ortho is None) == (support is None):
            raise TypeError("Basis takes exactly one of ortho and support")
        if ortho is not None:
            self.ortho = ortho  # fills the cache of the property below
        self._support = support
        self.n, self.rank = np.shape(ortho) if support is None else support.shape

    @cached_property
    def ortho(self) -> np.ndarray:
        return self._support.dense()

    def project_span(self, z) -> np.ndarray:
        """Euclidean projection onto span(ortho), computed as Q (Q^T z)."""
        z = _vector(z, self.n, "z")
        return self.ortho @ (self.ortho.T @ z)

    def null_residual(self, v) -> np.ndarray:
        """Component of v in null(ortho^T), i.e. v - project_span(v)."""
        v = _vector(v, self.n, "v")
        return v - self.project_span(v)

    def representation_error(self, z) -> float:
        """Distance from z to span(ortho), by a norm that does not overflow."""
        return _norm(self.null_residual(z))


def _rank(squares: np.ndarray) -> int:
    """The smallest rank r with sum(squares[r:]) <= DROP_TOL^2 * sum(squares),
    for the squared row norms of R in pivot order."""
    residual = np.cumsum(squares[::-1])[::-1]  # non-increasing
    return int(np.sum(residual > DROP_TOL**2 * residual[0]))


def _checked_max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude of the raw basis entries a: ValueError when
    one is not finite, EmptyBasis when all are zero."""
    amax = _max_abs(a)
    if not math.isfinite(amax):
        raise ValueError("raw basis has non-finite entries")
    if amax == 0.0:
        raise EmptyBasis("raw basis is identically zero")
    return amax


def _disjoint_support(raw: np.ndarray) -> _Support | None:
    """The support map of raw diag(1/||raw_j||) on the columns _rank keeps
    when every row of raw has at most one nonzero; None otherwise. O(nk).

    One elementwise pass, raw != 0 (true for NaN), picks each row's first
    nonzero; the test passes when no row has a second one. Every other
    entry is then exactly zero, so the n picked values alone are checked
    for non-finite entries (ValueError) and for an all-zero basis
    (EmptyBasis), and their largest magnitude is raw's.

    Such columns are orthogonal, so pivoted QR would take them in order of
    descending norm with R diagonal, |R_jj| = ||raw_j||: the same rule keeps
    the largest-norm columns, here in their input order.
    """
    n, k = raw.shape
    nonzero = raw != 0
    col = nonzero.argmax(axis=1)  # each row's first nonzero column, 0 for a zero row
    v = raw[np.arange(n), col]
    if np.count_nonzero(nonzero) != np.count_nonzero(v):
        return None  # some row has a second nonzero
    v = v / _checked_max_abs(v)  # scaled so that squares neither overflow nor underflow
    squares = np.bincount(col, weights=v * v, minlength=k)
    order = np.argsort(-squares, kind="stable")
    keep = np.zeros(k, dtype=bool)
    keep[order[:_rank(squares[order])]] = True
    rows = np.flatnonzero(keep[col])  # a zero row writes a harmless 0
    return _Support((n, int(keep.sum())), rows, (np.cumsum(keep) - 1)[col[rows]],
                    v[rows] / np.sqrt(squares[col[rows]]))


def orthonormalize(raw) -> Basis:
    """Rank-revealing orthonormalization of a raw basis matrix.

    Keeps the smallest rank r of the pivoted QR raw P = Q R with
    ||raw - Q_r Q_r^T raw||_F <= DROP_TOL * ||raw||_F, Q_r the first r
    columns of Q; the left side is ||R[r:, :]||_F and the right one
    DROP_TOL * ||R||_F. Two routes apply this one rule, tried in order:
    - when every row of raw has at most one nonzero (the identity, 0/1
      aggregation), the columns are already orthogonal and R is diagonal
      with |R_jj| = ||raw_j||, so the kept columns are scaled to unit norm
      in O(nk) and stay in their input order, kept as a support map until
      Basis.ortho is first read; the test reads every entry once, and only
      the n values it picks are then checked, the rest being exactly zero;
    - otherwise every entry is checked and QR with column pivoting is
      computed, O(n k min(n, k)).

    Raises ValueError when an entry is not finite, and EmptyBasis when raw
    has no nonzero column.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 1:
        raise ValueError(f"raw basis must be a nonempty 2-D matrix, got shape {raw.shape}")
    support = _disjoint_support(raw)
    if support is not None:
        return Basis(support=support)
    _checked_max_abs(raw)
    Q, R, _ = scipy.linalg.qr(raw, mode="economic", pivoting=True)
    # |R[0, 0]| bounds every entry of R under column pivoting, so the
    # scaled squares neither overflow nor lose the residual to underflow
    R /= abs(R[0, 0])
    ortho = np.ascontiguousarray(Q[:, :_rank(np.einsum("ij,ij->i", R, R))])
    ortho.setflags(write=False)
    return Basis(ortho=ortho)
