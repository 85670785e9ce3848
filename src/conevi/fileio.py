"""Line-oriented text formats for problems and bases.

Problem files:  line 1 is `VI1 <n> <cone-spec>`, followed by n rows of M and
one row of q, whitespace separated. Basis files: `BASIS1 <n> <k>` followed by
n rows of k entries. `#` starts a comment; blank lines are ignored. Numbers
are written with 17 significant digits, so write/parse round-trips are exact
on IEEE doubles.

The number block after the header is read in one pass by NumPy's C reader
(`np.loadtxt`). When that fails or yields the wrong shape, the rows are read
again one by one with `float()`, which names the offending line and also
accepts the spellings `float()` takes and the C reader does not (`1_0`,
non-ASCII digits), so accepted files and parsed values do not depend on
which reader ran.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .cones import SeparableCone, parse_cone_spec
from .operators import AffineOperator

__all__ = [
    "ProblemFormatError",
    "parse_problem",
    "write_problem",
    "parse_basis",
    "write_basis",
]


class ProblemFormatError(ValueError):
    """Malformed problem or basis text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


def _parse_row(lineno: int, line: str, expected: int, what: str) -> np.ndarray:
    tokens = line.split()
    if len(tokens) != expected:
        raise ProblemFormatError(
            f"expected {expected} values for {what}, found {len(tokens)}", lineno)
    row = np.empty(expected)
    for i, token in enumerate(tokens):
        try:
            row[i] = float(token)
        except ValueError:
            raise ProblemFormatError(f"non-numeric token {token!r} in {what}", lineno) from None
    return row


def _parse_block(rows: list[tuple[int, str]], width: int,
                 what: Callable[[int], str]) -> np.ndarray:
    """Parse content rows into a len(rows) x width array; what(i) names row i."""
    try:
        block = np.loadtxt([line for _, line in rows], dtype=float, ndmin=2)
        if block.shape == (len(rows), width):
            return block
    except ValueError:
        pass
    return np.vstack([_parse_row(ln, line, width, what(i)) for i, (ln, line) in enumerate(rows)])


def parse_problem(text: str) -> tuple[AffineOperator, SeparableCone]:
    """Parse a `VI1` problem file into an operator and its cone."""
    lines = _content_lines(text)
    if not lines:
        raise ProblemFormatError("empty problem file", 1)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "VI1":
        raise ProblemFormatError("header must be 'VI1 <n> <cone-spec>'", lineno)
    try:
        n = int(tokens[1])
    except ValueError:
        raise ProblemFormatError(f"bad dimension {tokens[1]!r}", lineno) from None
    if n < 1:
        raise ProblemFormatError(f"dimension must be >= 1, got {n}", lineno)
    try:
        cone = parse_cone_spec(tokens[2])
    except ValueError as exc:
        raise ProblemFormatError(str(exc), lineno) from None
    if cone.dim != n:
        raise ProblemFormatError(
            f"cone spec covers {cone.dim} components, header says {n}", lineno)

    body = lines[1:]
    if len(body) < n + 1:
        last = body[-1][0] if body else lineno
        raise ProblemFormatError(
            f"expected {n} matrix rows plus q, file ends after {len(body)} rows", last)
    if len(body) > n + 1:
        raise ProblemFormatError("unexpected extra row", body[n + 1][0])

    block = _parse_block(body, n, lambda i: "q" if i == n else f"matrix row {i + 1}")
    return AffineOperator(block[:n], block[n]), cone


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_problem(op: AffineOperator, cone: SeparableCone) -> str:
    if op.dim != cone.dim:
        raise ValueError(f"operator dimension {op.dim} != cone dimension {cone.dim}")
    rows = [f"VI1 {op.dim} {cone.spec()}"]
    rows.extend(" ".join(_fmt(v) for v in row) for row in op.M)
    rows.append(" ".join(_fmt(v) for v in op.q))
    return "\n".join(rows) + "\n"


def parse_basis(text: str) -> np.ndarray:
    """Parse a `BASIS1` file into the raw (not yet orthonormalized) matrix."""
    lines = _content_lines(text)
    if not lines:
        raise ProblemFormatError("empty basis file", 1)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "BASIS1":
        raise ProblemFormatError("header must be 'BASIS1 <n> <k>'", lineno)
    try:
        n, k = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ProblemFormatError("bad basis dimensions in header", lineno) from None
    if n < 1 or k < 1:
        raise ProblemFormatError(f"basis dimensions must be >= 1, got {n}x{k}", lineno)

    body = lines[1:]
    if len(body) != n:
        where = body[min(n, len(body) - 1)][0] if body else lineno
        raise ProblemFormatError(f"expected {n} basis rows, found {len(body)}", where)
    return _parse_block(body, k, lambda i: f"basis row {i + 1}")


def write_basis(raw: np.ndarray) -> str:
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError(f"basis must be 2-D, got shape {raw.shape}")
    n, k = raw.shape
    rows = [f"BASIS1 {n} {k}"]
    rows.extend(" ".join(_fmt(v) for v in row) for row in raw)
    return "\n".join(rows) + "\n"
