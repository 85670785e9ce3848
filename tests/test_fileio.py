import numpy as np
import pytest

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
