"""Subspace bases: orthonormalization, span projection, and null-space residuals.

The projector onto span(Phi) is never materialized; all uses go through the
two-step n x k' product so projection stays O(n k').
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = ["EmptyBasis", "Basis", "orthonormalize"]

# relative tolerance that defines span(Phi): orthonormalize keeps the smallest
# rank whose Frobenius residual is within it, and project_intersection judges
# ranks and vanishing rows by it
DROP_TOL = 1e-10


class EmptyBasis(Exception):
    """The raw basis matrix has no usable columns."""


@dataclass(frozen=True)
class Basis:
    """A raw basis and its orthonormalized factor.

    `ortho` has orthonormal columns spanning span(raw) up to DROP_TOL.
    """

    raw: np.ndarray
    ortho: np.ndarray

    @property
    def n(self) -> int:
        return self.ortho.shape[0]

    @property
    def rank(self) -> int:
        return self.ortho.shape[1]

    def _check_vec(self, z, name: str = "z") -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ValueError(f"{name} has shape {z.shape}, basis lives in dimension {self.n}")
        return z

    def project_span(self, z) -> np.ndarray:
        """Euclidean projection onto span(raw), computed as Q (Q^T z)."""
        z = self._check_vec(z)
        return self.ortho @ (self.ortho.T @ z)

    def null_residual(self, v) -> np.ndarray:
        """Component of v in null(raw^T), i.e. v - project_span(v)."""
        v = self._check_vec(v, "v")
        return v - self.project_span(v)

    def representation_error(self, z) -> float:
        """Distance from z to span(raw)."""
        return float(np.linalg.norm(self.null_residual(z)))


def orthonormalize(raw) -> Basis:
    """Rank-revealing orthonormalization of a raw basis matrix.

    Uses QR with column pivoting, raw P = Q R, and keeps the smallest rank r
    with ||raw - Q_r Q_r^T raw||_F <= DROP_TOL * ||raw||_F, Q_r the first r
    columns of Q; the left side is ||R[r:, :]||_F and the right one
    DROP_TOL * ||R||_F.

    Raises EmptyBasis when raw has no nonzero column.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 1:
        raise ValueError(f"raw basis must be a nonempty 2-D matrix, got shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw basis has non-finite entries")
    if not np.any(raw):
        raise EmptyBasis("raw basis is identically zero")

    Q, R, _ = scipy.linalg.qr(raw, mode="economic", pivoting=True)
    # |R[0, 0]| bounds every entry of R under column pivoting, so the scaled
    # squares neither overflow nor lose the residual to underflow
    R /= abs(R[0, 0])
    rows = np.einsum("ij,ij->i", R, R)
    residual = np.cumsum(rows[::-1])[::-1]  # ||R[r:, :]||_F^2 / R[0, 0]^2, non-increasing
    rank = int(np.sum(residual > DROP_TOL**2 * residual[0]))

    ortho = np.ascontiguousarray(Q[:, :rank])
    ortho.setflags(write=False)
    stored = raw.copy()
    stored.setflags(write=False)
    return Basis(raw=stored, ortho=ortho)
