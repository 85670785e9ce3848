"""Line-oriented text formats for problems and bases.

Problem files:  line 1 is `VI1 <n> <cone-spec>`, followed by n rows of M and
one row of q, whitespace separated. Basis files: `BASIS1 <n> <k>` followed by
n rows of k entries. `#` starts a comment; blank lines are ignored. Lines end
where `str.splitlines` ends them. Numbers are written with 17 significant
digits, so write/parse round-trips are exact on IEEE doubles.

The lines are streamed: a generator cuts the text one line at a time, and
NumPy's C reader (`np.loadtxt`) reads the number block after the header
from it in one pass, so no second copy of the file is made. The C reader
holds the GIL while it converts numbers, so threads cannot share that work;
processes can. A text of at least `_PARTS_MIN_CHARS` (16 MiB) is cut at
"\n" into one part per usable CPU. This process reads the first part while
a forked child reads each other part and sends its rows back through a
pipe, straight into the result array. Forking needs `os.fork`,
`os.sched_getaffinity` with two or more CPUs, and Python before 3.12, where
`os.fork` warns whenever other threads exist (OpenBLAS's always do); without
them, or where a fork fails, this process reads the remaining parts itself.

When the C reader fails on any part, a child exits non-zero or sends too
little, or the block has the wrong shape, the rows are split again and read
one by one with `float()`, which names the offending line and also accepts
the spellings `float()` takes and the C reader does not (`1_0`, non-ASCII
digits), so accepted files and parsed values do not depend on which reader
ran.
"""
from __future__ import annotations

import itertools
import os
import signal
import sys
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

# texts at least this long are read in parts. On a 2-vCPU x86 host a BASIS1
# text of 7.3 MiB took 224 ms in one process and 270 ms in two, one of
# 14.7 MiB 535 ms and 308 ms
_PARTS_MIN_CHARS = 16 << 20


class ProblemFormatError(ValueError):
    """Malformed problem or basis text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str, start: int = 0,
                   stop: int | None = None) -> Iterator[tuple[int, str]]:
    """(line number, comment-stripped line) for each non-blank line of
    text[start:stop], numbered from 1 at `start`.

    start and stop are 0, len(text) or just after a "\n", so that they cut
    no line. The text is cut at each "\n" and each piece, "\n" included,
    split by str.splitlines: a "\n" ends a line under every separator rule
    and can only join the "\r" before it, so the lines are those of
    text[start:stop].splitlines(), without a list of them all or a copy of
    text[start:stop].
    """
    stop = len(text) if stop is None else stop
    lineno = 0
    while start < stop:
        end = text.find("\n", start, stop) + 1 or stop
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


def _read_rows(lines: Iterator[tuple[int, str]], width: int) -> np.ndarray | None:
    """The rows of `lines` read by the C reader, or None when that fails or
    they are not `width` wide."""
    rows = (line for _, line in lines)
    first = next(rows, None)
    if first is None:  # np.loadtxt would warn about the empty input
        return np.empty((0, width))
    try:
        block = np.loadtxt(itertools.chain((first,), rows), dtype=float, ndmin=2)
    except ValueError:
        return None
    return block if block.shape[1] == width else None


def _read_block(text: str, lines: Iterator[tuple[int, str]],
                shape: tuple[int, int]) -> np.ndarray | None:
    """The rest of `lines`, the number block after the header of `text`, read
    by the C reader (in parts when the text is long); None when that fails
    or the block is not `shape`."""
    bounds = _cuts(text)
    if len(bounds) > 2:
        return _read_parts(text, bounds, shape)
    block = _read_rows(lines, shape[1])
    return block if block is not None and block.shape == shape else None


def _cpus() -> int:
    """Processes that may read one number block: the usable CPUs, or 1 where
    this process cannot fork, or (Python 3.12 on) fork warns about threads."""
    if sys.version_info >= (3, 12) or not hasattr(os, "fork") \
            or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _cuts(text: str) -> list[int]:
    """0, the offsets just after a "\n" that cut a long text into one part
    of about equal length per CPU, and len(text)."""
    parts = _cpus() if len(text) >= _PARTS_MIN_CHARS else 1
    bounds = [0]
    for i in range(1, parts):
        cut = text.find("\n", max(len(text) * i // parts, bounds[-1])) + 1
        if not 0 < cut < len(text):
            break
        bounds.append(cut)
    return bounds + [len(text)]


def _read_parts(text: str, bounds: list[int], shape: tuple[int, int]) -> np.ndarray | None:
    """The number block read in the parts text[bounds[i]:bounds[i + 1]]:
    each part but the first by a forked child, the first here. None as for
    _read_block, or when a child fails."""
    children = []  # (pid, read end of its pipe), last part first
    block = None
    try:
        for start, stop in reversed(list(itertools.pairwise(bounds[1:]))):
            try:
                children.append(_fork_part(text, start, stop, shape[1]))
            except OSError:  # no process or pipe to spare: read the rest here
                break
        here = bounds[len(bounds) - 1 - len(children)]
        block = _gather(text, here, children[::-1], shape)
    finally:
        exited = _reap(children, kill=block is None)
    return block if exited else None


def _gather(text: str, here: int, children: list[tuple[int, int]],
            shape: tuple[int, int]) -> np.ndarray | None:
    """The rows of text[:here] after the header, then each child's rows, in
    one array; None when a part fails or the rows are not `shape`."""
    # the header is the first content line of the text
    rows = _read_rows(itertools.islice(_content_lines(text, 0, here), 1, None), shape[1])
    if rows is None or len(rows) > shape[0]:
        return None
    block = np.empty(shape)
    block[:len(rows)] = rows
    filled = len(rows)
    for _, read_end in children:
        filled = _receive(read_end, block, filled)
        if filled is None:
            return None
    return block if filled == shape[0] else None


def _fork_part(text: str, start: int, stop: int, width: int) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that reads the rows of
    text[start:stop] and sends their shape and values through the pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # The child runs only NumPy's text reader on memory inherited from
        # this process. It calls no BLAS routine, so it takes no lock that a
        # BLAS thread (not copied into the child) could have held at the fork.
        # os._exit skips the atexit handlers and stream flushes that belong
        # to this process.
        code = 1
        try:
            os.close(read_end)
            rows = _read_rows(_content_lines(text, start, stop), width)
            if rows is not None:
                _send(write_end, np.array(rows.shape, dtype=np.int64))
                _send(write_end, rows)
                code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _raw(array: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, a view (writable where it is)."""
    return memoryview(array.reshape(-1).view(np.uint8))


def _send(fd: int, array: np.ndarray) -> None:
    view = _raw(np.ascontiguousarray(array))
    while view:
        view = view[os.write(fd, view):]


def _fill(fd: int, view: memoryview) -> bool:
    """Read from fd until `view` is full; False if the data end first."""
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _receive(fd: int, block: np.ndarray, filled: int) -> int | None:
    """Read one child's rows into `block` after its first `filled` rows: the
    rows filled then, or None when the child sent too little or a bad shape."""
    sent = np.empty(2, dtype=np.int64)
    if not _fill(fd, _raw(sent)):
        return None
    rows, width = (int(v) for v in sent)
    if width != block.shape[1] or not 0 <= rows <= len(block) - filled:
        return None
    if not _fill(fd, _raw(block[filled:filled + rows])):
        return None
    return filled + rows


def _reap(children: list[tuple[int, int]], kill: bool) -> bool:
    """Wait for every child, killing it first when its rows are not needed;
    True when every child exited with status 0."""
    exited = True
    for pid, read_end in children:
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.close(read_end)
        exited = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and exited
    return exited


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
    block = _read_block(text, lines, shape)
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
