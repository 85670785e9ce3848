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
        mp.setattr(fileio, "_read_block", lambda lines, shape: None)
        mp.setattr(fileio, "_content_lines", _splitlines_content_lines)
        return _outcome(parse, text)


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

    def test_peak_memory_below_matrix_plus_half_the_text(self):
        # the lines are streamed into the C reader: no list of all lines
        rng = np.random.default_rng(74)
        n = 400
        op = AffineOperator(rng.standard_normal((n, n)), rng.standard_normal(n))
        text = write_problem(op, orthant(n))
        tracemalloc.start()
        try:
            parsed, _ = parse_problem(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
