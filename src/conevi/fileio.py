"""Line-oriented text formats for problems and bases.

Problem files:  line 1 is `VI1 <n> <cone-spec>`, followed by n rows of M and
one row of q, whitespace separated. Basis files: `BASIS1 <n> <k>` followed by
n rows of k entries. `#` starts a comment; blank lines are ignored. Lines end
where `str.splitlines` ends them. Numbers are written with 17 significant
digits, so write/parse round-trips are exact on IEEE doubles.

The lines are streamed: a generator cuts the text one line at a time, and
NumPy's C reader (`np.loadtxt`) reads the number block after the header
from it in one pass, so no second copy of the file is made. When that
fails or yields the wrong shape, the rows are split again and read one by
one with `float()`, which names the offending line and also accepts the
spellings `float()` takes and the C reader does not (`1_0`, non-ASCII
digits), so accepted files and parsed values do not depend on which reader
ran.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

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


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, comment-stripped line) for each non-blank line of text.

    The text is cut at each "\n" and each piece, "\n" included, split by
    str.splitlines: a "\n" ends a line under every separator rule and can
    only join the "\r" before it, so the lines are those of
    text.splitlines(), without a list of them all.
    """
    lineno, start = 0, 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        for raw in text[start:end].splitlines():
            lineno += 1
            stripped = raw.partition("#")[0].strip()
            if stripped:
                yield lineno, stripped
        start = end


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


def _read_block(lines: Iterator[tuple[int, str]], shape: tuple[int, int]) -> np.ndarray | None:
    """The rest of `lines` read by the C reader, or None when that fails or
    the block is not `shape`."""
    rows = (line for _, line in lines)
    first = next(rows, None)
    if first is None:  # np.loadtxt would warn about the empty input
        return None
    try:
        block = np.loadtxt(itertools.chain((first,), rows), dtype=float, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == shape else None


def _header(lines: Iterator[tuple[int, str]], magic: str, fields: str) -> tuple[int, list[str]]:
    """(line number, the two fields after `magic`) of the first content line."""
    lineno, header = next(lines, (1, None))
    if header is None:
        raise ProblemFormatError(f"empty {magic} file", 1)
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != magic:
        raise ProblemFormatError(f"header must be '{magic} {fields}'", lineno)
    return lineno, tokens[1:]


def _dimension(token: str, lineno: int) -> int:
    try:
        n = int(token)
    except ValueError:
        raise ProblemFormatError(f"bad dimension {token!r}", lineno) from None
    if n < 1:
        raise ProblemFormatError(f"dimension must be >= 1, got {n}", lineno)
    return n


def _numbers(text: str, lines: Iterator[tuple[int, str]], lineno: int,
             shape: tuple[int, int], row_name: Callable[[int], str]) -> np.ndarray:
    """The number block after the header on line `lineno`: `lines` through
    the C reader, else every row of `text` again, one by one with float(),
    so that an error names its line and the row row_name(i)."""
    block = _read_block(lines, shape)
    if block is None:
        body = list(_content_lines(text))[1:]
        if len(body) != shape[0]:
            where = body[min(shape[0], len(body) - 1)][0] if body else lineno
            raise ProblemFormatError(
                f"expected {shape[0]} rows after the header, found {len(body)}", where)
        block = np.vstack([_parse_row(ln, line, shape[1], row_name(i))
                           for i, (ln, line) in enumerate(body)])
    return block


def parse_problem(text: str) -> tuple[AffineOperator, SeparableCone]:
    """Parse a `VI1` problem file into an operator and its cone."""
    lines = _content_lines(text)
    lineno, (size, spec) = _header(lines, "VI1", "<n> <cone-spec>")
    n = _dimension(size, lineno)
    try:
        cone = parse_cone_spec(spec)
    except ValueError as exc:
        raise ProblemFormatError(str(exc), lineno) from None
    if cone.dim != n:
        raise ProblemFormatError(
            f"cone spec covers {cone.dim} components, header says {n}", lineno)
    block = _numbers(text, lines, lineno, (n + 1, n),
                     lambda i: "q" if i == n else f"matrix row {i + 1}")
    return AffineOperator(block[:n], block[n]), cone


def parse_basis(text: str) -> np.ndarray:
    """Parse a `BASIS1` file into the raw (not yet orthonormalized) matrix."""
    lines = _content_lines(text)
    lineno, fields = _header(lines, "BASIS1", "<n> <k>")
    n, k = (_dimension(token, lineno) for token in fields)
    return _numbers(text, lines, lineno, (n, k), lambda i: f"basis row {i + 1}")


def _write(header: str, rows) -> str:
    """The header and one line per row, 17 significant digits per number."""
    lines = [header]
    lines.extend(" ".join(format(float(v), ".17g") for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_problem(op: AffineOperator, cone: SeparableCone) -> str:
    if op.dim != cone.dim:
        raise ValueError(f"operator dimension {op.dim} != cone dimension {cone.dim}")
    return _write(f"VI1 {op.dim} {cone.spec()}", itertools.chain(op.M, [op.q]))


def write_basis(raw: np.ndarray) -> str:
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError(f"basis must be 2-D, got shape {raw.shape}")
    return _write(f"BASIS1 {raw.shape[0]} {raw.shape[1]}", raw)
