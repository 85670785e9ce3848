"""Separable cones built from one-dimensional segments.

Feasible sets are products of nonnegative, free, and zero segments, so
Euclidean projection is componentwise thresholding, dual cones are taken
segment by segment, membership in a cone and in its dual is read from the
projection, and every operation is O(dim).
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


def _positive_int(value, name: str) -> int:
    """int(value) for a whole number >= 1; ValueError otherwise, NaN,
    infinities and fractions included."""
    if not (1 <= value < math.inf and int(value) == value):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _vector(x, n: int, name: str) -> np.ndarray:
    """x as a float array of shape (n,); ValueError naming it otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({n},)")
    return x


def _same_dim(a: str, m: int, b: str, n: int) -> None:
    """ValueError "<a> dimension m != <b> dimension n" unless m == n."""
    if m != n:
        raise ValueError(f"{a} dimension {m} != {b} dimension {n}")


def _positive(value, name: str) -> None:
    """ValueError "<name> must be positive and finite" unless 0 < value < inf,
    which NaN fails too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """a itself; ValueError naming it when an entry is NaN or infinite."""
    if not math.isfinite(_max_abs(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude of the float array a (0 when it is empty):
    NaN when an entry is NaN and inf when one is infinite, so one finite
    test checks every entry. max and min propagate NaN, so the two
    reductions need no temporary the size of a. abs makes it +0.0, as
    np.linalg.norm is, when every entry is a zero of either sign."""
    return abs(float(max(a.max(), -a.min()))) if a.size else 0.0


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of the float array a, taken in units of its largest
    entry so that no square overflows: inf (or NaN) when an entry is."""
    scale = _max_abs(a)
    if not 0 < scale < math.inf:
        return scale
    return scale * float(np.linalg.norm(a / scale))


def _within(v: np.ndarray, miss, tol: float) -> bool:
    """||miss(v)||_inf <= tol*(1 + ||v||) for a positively homogeneous miss,
    tested in units of the largest entry of v, so no norm overflows; False
    when v has a NaN or infinite entry. The one membership test of the
    cones: miss is v - P_K(v) for v in K, and P_K(-v) for v in K*."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    scale = _max_abs(v)
    if not math.isfinite(scale):
        return False
    if not scale:
        return True
    v = v / scale
    return _max_abs(miss(v)) <= tol / scale + tol * float(np.linalg.norm(v))


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    length: int

    def __post_init__(self) -> None:
        # stored as the member: a kind given by its value, "nn", would match no
        # mask, so the rows would be left unclipped
        object.__setattr__(self, "kind", SegmentKind(self.kind))
        # stored as int: 2.0 or np.int64(2) would otherwise leak into slicing and spec()
        object.__setattr__(self, "length", _positive_int(self.length, "segment length"))


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

    # -- operations -----------------------------------------------------

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the cone (componentwise thresholding)."""
        out = _vector(x, self.dim, "x").copy()
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
        """Membership within relative tolerance tol*(1 + ||x||): the miss
        x - P_K(x) is at most that (see _within). A vector with a NaN or
        infinite entry is in no cone."""
        return _within(_vector(x, self.dim, "x"), lambda u: u - self.project(u), tol)

    def is_complementary(self, x, y, tol: float) -> bool:
        """True iff x in K, y in K* (both within tol) and
        |x.y| <= tol*(1+||x||*||y||), tested with x and y each in units of
        its largest entry, so no product overflows. y in K* is read from the
        projection, as P_K(-y) = 0 (Moreau), with no dual cone built."""
        x = _vector(x, self.dim, "x")
        y = _vector(y, self.dim, "y")
        if not (self.contains(x, tol) and _within(y, lambda u: self.project(-u), tol)):
            return False
        a, b = _max_abs(x), _max_abs(y)
        if not a or not b:
            return True
        x, y = x / a, y / b
        gap = abs(float(x @ y))
        return gap <= (tol / a / b
                       + tol * float(np.linalg.norm(x)) * float(np.linalg.norm(y)))

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
