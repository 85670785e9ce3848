"""Separable cones built from one-dimensional segments.

Feasible sets are products of nonnegative, free, and zero segments, so
Euclidean projection is componentwise thresholding, dual cones are taken
segment by segment, and every operation is O(dim).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "SegmentKind",
    "Segment",
    "SeparableCone",
    "orthant",
    "free",
    "zero",
    "parse_cone_spec",
]


class SegmentKind(Enum):
    NONNEGATIVE = "nn"
    FREE = "free"
    ZERO = "zero"


_DUAL_KIND = {
    SegmentKind.NONNEGATIVE: SegmentKind.NONNEGATIVE,
    SegmentKind.FREE: SegmentKind.ZERO,
    SegmentKind.ZERO: SegmentKind.FREE,
}


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    length: int

    def __post_init__(self) -> None:
        if int(self.length) != self.length or self.length < 1:
            raise ValueError(f"segment length must be a positive integer, got {self.length!r}")
        # 2.0 or np.int64(2) would otherwise leak into slicing and spec()
        object.__setattr__(self, "length", int(self.length))


@dataclass(frozen=True)
class SeparableCone:
    """Product of axis-aligned one-dimensional cones, in segment order."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("cone needs at least one segment")
        object.__setattr__(self, "segments", segs)

    @cached_property
    def dim(self) -> int:
        return sum(s.length for s in self.segments)

    def _mask(self, kind: SegmentKind) -> np.ndarray:
        mask = np.zeros(self.dim, dtype=bool)
        at = 0
        for seg in self.segments:
            if seg.kind is kind:
                mask[at : at + seg.length] = True
            at += seg.length
        mask.setflags(write=False)
        return mask

    @cached_property
    def nonneg_mask(self) -> np.ndarray:
        return self._mask(SegmentKind.NONNEGATIVE)

    @cached_property
    def free_mask(self) -> np.ndarray:
        return self._mask(SegmentKind.FREE)

    @cached_property
    def zero_mask(self) -> np.ndarray:
        return self._mask(SegmentKind.ZERO)

    def _check_vec(self, x, name: str = "x") -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"{name} has shape {x.shape}, cone has dimension {self.dim}")
        return x

    # -- operations -----------------------------------------------------

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the cone (componentwise thresholding)."""
        x = self._check_vec(x)
        out = x.copy()
        nn = self.nonneg_mask
        if nn.any():
            out[nn] = np.maximum(out[nn], 0.0)
        z = self.zero_mask
        if z.any():
            out[z] = 0.0
        return out

    def dual(self) -> "SeparableCone":
        """Dual cone, segment by segment.

        Nonnegative segments are self-dual; the dual of a free segment is
        the zero cone (dual vectors must vanish there), and vice versa.
        """
        return SeparableCone(tuple(Segment(_DUAL_KIND[s.kind], s.length) for s in self.segments))

    def contains(self, x, tol: float) -> bool:
        """Membership within relative tolerance tol*(1 + ||x||)."""
        x = self._check_vec(x)
        if not 0 <= tol < math.inf:
            raise ValueError("tol must be finite and >= 0")
        slack = tol * (1.0 + float(np.linalg.norm(x)))
        nn = self.nonneg_mask
        if nn.any() and float(np.min(x[nn], initial=np.inf)) < -slack:
            return False
        z = self.zero_mask
        if z.any() and float(np.max(np.abs(x[z]), initial=0.0)) > slack:
            return False
        return True

    def is_complementary(self, x, y, tol: float) -> bool:
        """True iff x in K, y in K* (both within tol) and |x.y| <= tol*(1+||x||*||y||)."""
        x = self._check_vec(x, "x")
        y = self._check_vec(y, "y")
        if not 0 <= tol < math.inf:
            raise ValueError("tol must be finite and >= 0")
        if not self.contains(x, tol):
            return False
        if not self.dual().contains(y, tol):
            return False
        gap = abs(float(x @ y))
        return gap <= tol * (1.0 + float(np.linalg.norm(x)) * float(np.linalg.norm(y)))

    def in_normal_cone(self, x, d, tol: float) -> bool:
        """Test d in N_C(x) through the projection characterization.

        d is normal at x exactly when x = project(x + d); the test allows
        relative slack tol*(1 + ||d||). Requires x feasible within tol.
        """
        x = self._check_vec(x, "x")
        d = self._check_vec(d, "d")
        if not self.contains(x, tol):
            raise ValueError("x is not in the cone within tol")
        moved = float(np.linalg.norm(self.project(x + d) - x))
        return moved <= tol * (1.0 + float(np.linalg.norm(d)))

    # -- text form --------------------------------------------------------

    def spec(self) -> str:
        """Cone spec string, e.g. 'nn:5,free:2,nn:3'."""
        return ",".join(f"{s.kind.value}:{s.length}" for s in self.segments)


def orthant(n: int) -> SeparableCone:
    return SeparableCone((Segment(SegmentKind.NONNEGATIVE, n),))


def free(n: int) -> SeparableCone:
    return SeparableCone((Segment(SegmentKind.FREE, n),))


def zero(n: int) -> SeparableCone:
    return SeparableCone((Segment(SegmentKind.ZERO, n),))


def parse_cone_spec(text: str) -> SeparableCone:
    """Parse a cone spec string like 'nn:5,free:2' into a SeparableCone."""
    kinds = {k.value: k for k in SegmentKind}
    segments = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty segment in cone spec {text!r}")
        kind, sep, length = token.partition(":")
        if not sep or kind not in kinds:
            raise ValueError(f"bad cone segment {token!r} (expected kind:length)")
        try:
            n = int(length)
        except ValueError:
            raise ValueError(f"bad segment length in {token!r}") from None
        segments.append(Segment(kinds[kind], n))
    return SeparableCone(tuple(segments))
