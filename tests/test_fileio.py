import contextlib
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conevi import fileio
from conevi.cones import orthant, parse_cone_spec
from conevi.fileio import (
    ProblemFormatError,
    parse_basis,
    parse_problem,
    write_basis,
    write_problem,
)
from conevi.generate import generate_instance
from conevi.operators import AffineOperator

MINIMAL = """\
VI1 1 nn:1
2
-1
"""

SAMPLE = """\
# sample problem
VI1 2 nn:1,free:1
2 0.5
0 2
-1 0.25
"""


class TestParseProblem:
    def test_minimal_file(self):
        op, cone = parse_problem(MINIMAL)
        assert cone == orthant(1)
        np.testing.assert_array_equal(op.M, [[2.0]])
        np.testing.assert_array_equal(op.q, [-1.0])

    def test_comments_and_mixed_cone(self):
        op, cone = parse_problem(SAMPLE)
        assert cone == parse_cone_spec("nn:1,free:1")
        np.testing.assert_array_equal(op.M, [[2.0, 0.5], [0.0, 2.0]])

    def test_extra_row_names_line(self):
        text = "VI1 2 nn:2\n1 0\n0 1\n0 0\n5 5\n"
        with pytest.raises(ProblemFormatError) as exc:
            parse_problem(text)
        assert exc.value.line == 5

    def test_missing_rows_reported(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("VI1 3 nn:3\n1 0 0\n0 1 0\n")

    def test_non_numeric_token_names_line(self):
        with pytest.raises(ProblemFormatError) as exc:
            parse_problem("VI1 1 nn:1\nfoo\n0\n")
        assert exc.value.line == 2
        assert "foo" in str(exc.value)

    def test_column_count_error_names_line(self):
        with pytest.raises(ProblemFormatError) as exc:
            parse_problem("VI1 2 nn:2\n1 0\n0 1 2\n0 0\n")
        assert exc.value.line == 3
        with pytest.raises(ProblemFormatError) as exc:
            parse_basis("BASIS1 3 2\n1 0\n0 1\n1\n")
        assert exc.value.line == 4

    def test_uniform_wrong_width_names_first_row(self):
        # every row has 3 values, so the block is rectangular but not n wide
        with pytest.raises(ProblemFormatError) as exc:
            parse_problem("VI1 2 nn:2\n1 0 0\n0 1 0\n0 0 0\n")
        assert exc.value.line == 2
        assert "matrix row 1" in str(exc.value)

    def test_comment_line_between_rows_keeps_line_numbers(self):
        text = "VI1 2 nn:2\n1 0\n# a comment\n\n0 1\n0 bad\n"
        with pytest.raises(ProblemFormatError) as exc:
            parse_problem(text)
        assert exc.value.line == 6
        assert "'bad' in q" in str(exc.value)

    def test_underscore_digits_accepted_like_float(self):
        op, _ = parse_problem("VI1 2 nn:2\n1_0 0\n0 1\n-2 1e0\n")
        np.testing.assert_array_equal(op.M, [[10.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(op.q, [-2.0, 1.0])

    def test_cone_dimension_mismatch(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("VI1 2 nn:3\n1 0\n0 1\n0 0\n")

    def test_bad_header(self):
        for text in ("", "XX1 1 nn:1\n2\n1\n", "VI1 one nn:1\n2\n1\n"):
            with pytest.raises(ProblemFormatError):
                parse_problem(text)


@pytest.mark.parametrize("parse, text, line", [
    (parse_problem, "", 1),
    (parse_basis, "# nothing\n\n", 1),
    (parse_problem, "# comment\nXX1 1 nn:1\n2\n1\n", 2),
    (parse_basis, "\nBASIS 3 2\n", 2),
    (parse_basis, "BASIS1 3\n", 1),
    (parse_problem, "VI1 one nn:1\n2\n1\n", 1),
    (parse_basis, "BASIS1 3 two\n", 1),
    (parse_problem, "VI1 0 nn:1\n", 1),
    (parse_basis, "# c\nBASIS1 0 2\n", 2),
    (parse_basis, "BASIS1 3 -1\n1\n1\n1\n", 1),
])
def test_header_errors_name_their_line(parse, text, line):
    with pytest.raises(ProblemFormatError) as exc:
        parse(text)
    assert exc.value.line == line


class TestRoundTrip:
    def test_write_parse_exact_values(self):
        op, _ = generate_instance(7, 2, 1.0, 2.0, seed=71)
        cone = orthant(7)
        op2, cone2 = parse_problem(write_problem(op, cone))
        assert cone2 == cone
        np.testing.assert_array_equal(op2.M, op.M)  # 17 digits round-trip doubles
        np.testing.assert_array_equal(op2.q, op.q)

    def test_write_parse_exact_at_n_200(self):
        rng = np.random.default_rng(73)
        n = 200
        M = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-300, 300, size=(n, n))
        op = AffineOperator(M, rng.standard_normal(n))
        op2, _ = parse_problem(write_problem(op, orthant(n)))
        np.testing.assert_array_equal(op2.M, op.M)
        np.testing.assert_array_equal(op2.q, op.q)

    def test_parse_write_is_identity_on_canonical_file(self):
        text = "VI1 2 nn:2\n2 0.5\n0 2\n-1 0.25\n"
        op, cone = parse_problem(text)
        assert write_problem(op, cone) == text

    def test_basis_roundtrip(self):
        rng = np.random.default_rng(72)
        raw = rng.standard_normal((6, 3))
        again = parse_basis(write_basis(raw))
        np.testing.assert_array_equal(again, raw)

    def test_basis_row_count_checked(self):
        with pytest.raises(ProblemFormatError):
            parse_basis("BASIS1 3 2\n1 0\n0 1\n")

    def test_basis_bad_header(self):
        with pytest.raises(ProblemFormatError):
            parse_basis("BASIS 3 2\n")

    def test_operator_cone_dim_mismatch_on_write(self):
        op = AffineOperator(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            write_problem(op, orthant(3))


# the separators str.splitlines ends a line at, "\r\n" counted once
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NUMBERS = ["0", "-1", "2.5", "1e-300", "-0.0", "1_0", "+.5", "3.", "\u0661"]  # float() takes all
BAD_TOKENS = ["x", "1.2.3", "nan", "--1"]


def _splitlines_content_lines(text):
    """Reference content lines, cut by text.splitlines() in one list."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def _outcome(parse, text):
    """The parsed arrays as bytes, or the error's type, message and line."""
    try:
        result = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    op, cone = result
    return op.M.shape, op.M.tobytes(), op.q.tobytes(), cone


def _reference_outcome(parse, text):
    """_outcome on the line-numbered path alone, over text.splitlines()."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_read_block", lambda text, lines, shape: None)
        mp.setattr(fileio, "_content_lines", _splitlines_content_lines)
        return _outcome(parse, text)


# where the parts reader forks; elsewhere it reads every part in this process
FORKS = sys.version_info < (3, 12) and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
forking = pytest.mark.skipif(not FORKS, reason="the parts reader forks only before "
                             "Python 3.12, where os.fork and os.sched_getaffinity exist")


@contextlib.contextmanager
def _counted_forks(cpus, min_chars=0):
    """Texts of min_chars or more read in up to `cpus` parts where the parts
    reader forks; yields the list that gets one entry per os.fork call."""
    forks = []
    fork = getattr(os, "fork", None)

    def counted():
        forks.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_PARTS_MIN_CHARS", min_chars)
        if FORKS:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            mp.setattr(os, "fork", counted)
        yield forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@st.composite
def small_files(draw):
    """Small VI1 or BASIS1 texts: mixed line separators, comment and blank
    lines, tabs and runs of spaces, odd and bad tokens, rows too few or too
    many and rows of the wrong width."""
    problem = draw(st.booleans())
    n = draw(st.integers(1, 4))
    width = n if problem else draw(st.integers(1, 3))
    n_rows = (n + 1 if problem else n) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    header = f"VI1 {n} nn:{n}" if problem else f"BASIS1 {n} {width}"
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(NUMBERS),
        st.sampled_from(NUMBERS + BAD_TOKENS))
    spaces = st.sampled_from([" ", " ", "  ", "\t", " \t "])
    lines = []

    def filler():
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "\t# 1 2 3", "#"])))

    filler()
    lines.append(header)
    for _ in range(max(n_rows, 0)):
        filler()
        count = width + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
        tokens = [draw(number) for _ in range(max(count, 0))]
        row = draw(spaces).join(tokens)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + row
                     + draw(st.sampled_from(["", "", "  ", " # tail"])))
    filler()
    separator = st.sampled_from(SEPARATORS[:2] * 3 + SEPARATORS)
    text = "".join(line + draw(separator) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("".join(SEPARATORS))  # no final line end
    return (parse_problem if problem else parse_basis), text


class TestStreamedReader:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="ab #\t" + "".join(SEPARATORS), max_size=40))
    def test_content_lines_follow_splitlines(self, text):
        assert list(fileio._content_lines(text)) == list(_splitlines_content_lines(text))

    @settings(max_examples=400, deadline=None)
    @given(small_files())
    def test_matches_line_numbered_path(self, case):
        parse, text = case
        assert _outcome(parse, text) == _reference_outcome(parse, text)

    def test_content_lines_between_bounds(self):
        text = "a\r\nb\rc\n\n# d\ne"
        assert list(fileio._content_lines(text, 3, 7)) == [(1, "b"), (2, "c")]
        assert list(fileio._content_lines(text, 7)) == [(3, "e")]

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="ab #\t" + "".join(SEPARATORS), max_size=40), st.data())
    def test_bounded_content_lines_join_to_the_text(self, text, data):
        cut = data.draw(st.sampled_from([0, len(text)] + [
            i + 1 for i, char in enumerate(text) if char == "\n"]))
        before = len(text[:cut].splitlines())
        joined = list(fileio._content_lines(text, 0, cut)) + [
            (lineno + before, line) for lineno, line in fileio._content_lines(text, cut)]
        assert joined == list(_splitlines_content_lines(text))

    def test_peak_memory_below_matrix_plus_half_the_text(self):
        # the lines are streamed into the C reader: no list of all lines. In
        # parts this process holds the result and its own part's rows; the
        # child's rows are read from the pipe straight into the result
        rng = np.random.default_rng(74)
        n = 400
        op = AffineOperator(rng.standard_normal((n, n)), rng.standard_normal(n))
        text = write_problem(op, orthant(n))
        for cpus in (1, 2):
            with _counted_forks(cpus) as forks:
                tracemalloc.start()
                try:
                    parsed, _ = parse_problem(text)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert len(forks) == (cpus - 1 if FORKS else 0)
            np.testing.assert_array_equal(parsed.M, op.M)
            assert peak < op.M.nbytes + len(text) / 2

    def test_well_formed_files_stay_on_the_c_reader(self, monkeypatch):
        # the per-row path is for malformed input; a good file read there
        # would parse the same values, only several times slower
        def refused(*args):
            raise AssertionError("a well-formed file was read row by row")

        rng = np.random.default_rng(75)
        n = 300
        op = AffineOperator(rng.standard_normal((n, n)), rng.standard_normal(n))
        raw = rng.standard_normal((n, 4))
        problem, basis = write_problem(op, orthant(n)), write_basis(raw)
        monkeypatch.setattr(fileio, "_parse_row", refused)
        parsed, _ = parse_problem(problem)
        np.testing.assert_array_equal(parsed.M, op.M)
        np.testing.assert_array_equal(parsed.q, op.q)
        np.testing.assert_array_equal(parse_basis(basis), raw)


# (text, its parts when cut in two, whether the per-row reader must run): a
# cut right after "\r\n"; comment and blank lines on both sides of the cut;
# no final line end; a child's part with no rows; a token the C reader
# refuses and float() takes, and a bad token, each only in the child's part
CUT_CASES = [
    ("VI1 2 nn:2\r\n1 0\r\n0 1\r\n0 0\r\n",
     ["VI1 2 nn:2\r\n1 0\r\n", "0 1\r\n0 0\r\n"], False),
    ("VI1 2 nn:2\n# one\n\n1 0\n  \n# two\n# three\n\n0 1\n# four\n\n0 0\n\n# five\n",
     ["VI1 2 nn:2\n# one\n\n1 0\n  \n# two\n# three\n",
      "\n0 1\n# four\n\n0 0\n\n# five\n"], False),
    ("BASIS1 3 2\n1 2\n3 4\n5 6", ["BASIS1 3 2\n1 2\n", "3 4\n5 6"], False),
    ("BASIS1 2 1\n1\n2\n# one\n# two\n\n", ["BASIS1 2 1\n1\n2\n", "# one\n# two\n\n"], False),
    ("VI1 2 nn:2\n1 0\n0 1\n0 1_0\n", ["VI1 2 nn:2\n1 0\n", "0 1\n0 1_0\n"], True),
    ("VI1 2 nn:2\n1 0\n0 1\n0 x\n", ["VI1 2 nn:2\n1 0\n", "0 1\n0 x\n"], True),
]


@forking
class TestPartsReader:
    """Texts cut at "\n" and read by this process and forked children."""

    @settings(max_examples=300, deadline=None)
    @given(small_files(), st.integers(2, 3))
    def test_matches_line_numbered_path(self, case, cpus):
        parse, text = case
        with _counted_forks(cpus):
            outcome = _outcome(parse, text)
        assert outcome == _reference_outcome(parse, text)

    @pytest.mark.parametrize("text, parts, per_row", CUT_CASES)
    def test_cut_cases_match_line_numbered_path(self, text, parts, per_row, monkeypatch):
        parse = parse_problem if text.startswith("VI1") else parse_basis
        rows_read, parse_row = [], fileio._parse_row

        def counted(*args):
            rows_read.append(1)
            return parse_row(*args)

        monkeypatch.setattr(fileio, "_parse_row", counted)
        with _counted_forks(2) as forks:
            bounds = fileio._cuts(text)
            outcome = _outcome(parse, text)
        assert [text[i:j] for i, j in zip(bounds, bounds[1:])] == parts
        assert forks == [1]
        assert bool(rows_read) == per_row
        assert outcome == _reference_outcome(parse, text)
        _no_child_left()

    @pytest.mark.parametrize("text, line", [
        ("BASIS1 4 1\n1\n2\n3\n4\n", None),  # parsed
        ("BASIS1 4 1\n1\n2\n3\nx\n", 5),  # the child's part is malformed
        ("BASIS1 4 1\nx\n2\n3\n4\n", 2),  # this process's part is malformed
    ])
    def test_no_child_is_left(self, text, line):
        with _counted_forks(2) as forks:
            if line is None:
                np.testing.assert_array_equal(parse_basis(text), [[1], [2], [3], [4]])
            else:
                with pytest.raises(ProblemFormatError) as exc:
                    parse_basis(text)
                assert exc.value.line == line
        assert forks == [1]
        _no_child_left()

    def test_error_in_this_process_kills_the_children(self, monkeypatch):
        # the children would take 10 s over their parts; they are killed, not
        # waited for
        parent, read_rows = os.getpid(), fileio._read_rows

        def interrupted(lines, width):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(10)
            return read_rows(lines, width)

        monkeypatch.setattr(fileio, "_read_rows", interrupted)
        start = time.monotonic()
        with _counted_forks(3) as forks, pytest.raises(KeyboardInterrupt):
            parse_basis("BASIS1 6 1\n" + "1\n" * 6)
        assert time.monotonic() - start < 5
        assert forks == [1, 1]
        _no_child_left()

    @pytest.mark.parametrize("fault", ["short send", "exit 3 after sending"])
    def test_child_fault_falls_back_to_per_row_reader(self, fault, monkeypatch):
        send, rows_read, parse_row = fileio._send, [], fileio._parse_row

        def faulty(fd, array):
            if array.dtype == np.int64:  # the shape goes first, unharmed
                send(fd, array)
            elif fault == "short send":
                send(fd, array.ravel()[:1])
            else:
                send(fd, array)
                os._exit(3)

        def counted(*args):
            rows_read.append(1)
            return parse_row(*args)

        monkeypatch.setattr(fileio, "_send", faulty)
        monkeypatch.setattr(fileio, "_parse_row", counted)
        with _counted_forks(2) as forks:
            parsed = parse_basis("BASIS1 4 2\n1 2\n3 4\n5 6\n7 8\n")
        np.testing.assert_array_equal(parsed, [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert forks == [1]
        assert len(rows_read) == 4
        _no_child_left()

    def test_failed_fork_reads_every_part_here(self, monkeypatch):
        def refused():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(fileio, "_parse_row", None)  # the C reader reads it all
        with _counted_forks(3), pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", refused)
            parsed = parse_basis("BASIS1 4 1\n1\n2\n3\n4\n")
        np.testing.assert_array_equal(parsed, [[1], [2], [3], [4]])
        _no_child_left()

    def test_long_file_is_read_in_parts(self, monkeypatch):
        # above _PARTS_MIN_CHARS itself, not a patched bound: a fallback to
        # one process or to the per-row reader would fail here
        rows = np.random.default_rng(76).standard_normal((7, 4))
        lines = "".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist())
        copies = fileio._PARTS_MIN_CHARS // len(lines) + 1
        text = f"BASIS1 {7 * copies} 4\n" + lines * copies
        monkeypatch.setattr(fileio, "_parse_row", None)
        with _counted_forks(2, fileio._PARTS_MIN_CHARS) as forks:
            parsed = parse_basis(text)
        assert forks == [1]
        assert parsed.tobytes() == np.tile(rows, (copies, 1)).tobytes()
        _no_child_left()


def test_python_3_12_reads_in_one_process(monkeypatch):
    # there os.fork warns whenever other threads exist, as OpenBLAS's do
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    assert fileio._cpus() == 1
