import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conevi.cones import (
    Segment,
    SegmentKind,
    SeparableCone,
    free,
    orthant,
    parse_cone_spec,
    zero,
)
from conevi.fileio import parse_problem, write_problem
from conevi.operators import AffineOperator


def mixed(*pairs):
    kinds = {"nn": SegmentKind.NONNEGATIVE, "free": SegmentKind.FREE, "zero": SegmentKind.ZERO}
    return SeparableCone(tuple(Segment(kinds[k], n) for k, n in pairs))


class TestDual:
    def test_orthant_self_dual(self):
        assert orthant(4).dual() == orthant(4)

    def test_free_dualizes_to_zero(self):
        assert free(2).dual() == zero(2)

    def test_distributes_over_products(self):
        cone = mixed(("nn", 2), ("free", 1))
        assert cone.dual() == mixed(("nn", 2), ("zero", 1))

    def test_double_dual_roundtrip(self):
        cone = mixed(("nn", 2), ("free", 3), ("zero", 1))
        assert cone.dual().dual() == cone


class TestIsComplementary:
    def test_disjoint_supports(self):
        assert orthant(2).is_complementary([1.0, 0.0], [0.0, 3.0], 1e-12)

    def test_positive_gap_fails(self):
        assert not orthant(2).is_complementary([1.0, 1.0], [1.0, 0.0], 1e-12)

    def test_free_forces_dual_zero(self):
        assert free(1).is_complementary([5.0], [0.0], 0.0)
        assert not free(1).is_complementary([5.0], [1.0], 1e-12)

    def test_infeasible_x_fails(self):
        assert not orthant(2).is_complementary([-1.0, 0.0], [0.0, 0.0], 1e-12)

    def test_symmetric_on_orthant(self):
        rng = np.random.default_rng(5)
        cone = orthant(6)
        for _ in range(100):
            x = np.abs(rng.standard_normal(6)) * (rng.random(6) > 0.5)
            y = np.abs(rng.standard_normal(6)) * (x == 0)
            assert cone.is_complementary(x, y, 1e-12) == cone.is_complementary(y, x, 1e-12)


# entries that test the units of the slack: NaN, infinities, zeros of both
# signs, the extremes of the double range, and values near the slack
ENTRIES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1.7e308,
                     -1.7e308, 1e-300, -1e-300, 5e-324, -5e-324, 1e-9, -1e-9, 1e-13, -1e-13]),
    st.floats(-10.0, 10.0),
    st.floats())


def _slack(v, tol):
    """(v in units of its largest entry, tol*(1 + ||v||) in those units), or
    None when an entry is NaN or infinite."""
    scale = float(np.max(np.abs(v)))
    if not math.isfinite(scale):
        return None
    if not scale:
        return v, tol
    u = v / scale
    return u, tol / scale + tol * float(np.linalg.norm(u))


def _in_cone(cone, v, tol, dual):
    """Membership written per segment kind: a nonnegative row >= -slack in K
    and in K*, a zero row of K and a free row of K* within slack."""
    scaled = _slack(v, tol)
    if scaled is None:
        return False
    u, slack = scaled
    pinned = cone.free_mask if dual else cone.zero_mask
    return bool(np.all(u[cone.nonneg_mask] >= -slack) and np.all(np.abs(u[pinned]) <= slack))


@st.composite
def cone_pairs(draw):
    segments = draw(st.lists(st.tuples(st.sampled_from(["nn", "free", "zero"]),
                                       st.integers(1, 3)), min_size=1, max_size=4))
    cone = mixed(*segments)
    x = np.array(draw(st.lists(ENTRIES, min_size=cone.dim, max_size=cone.dim)))
    y = np.array(draw(st.lists(ENTRIES, min_size=cone.dim, max_size=cone.dim)))
    with np.errstate(invalid="ignore"):
        if draw(st.booleans()):  # x in K, y in K*, and complementary when x is finite
            x = cone.project(x)
            y = -cone.project(-y) * (x == 0)
    return cone, x, y, draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]))


@given(cone_pairs())
def test_membership_matches_the_per_kind_definition(case):
    # contains and is_complementary read both memberships from the
    # projection; this states them row by row, with the slack in units of
    # each vector's largest entry, and the gap test as written in the docstring
    cone, x, y, tol = case
    assert cone.contains(x, tol) is _in_cone(cone, x, tol, dual=False)
    expected = _in_cone(cone, x, tol, dual=False) and _in_cone(cone, y, tol, dual=True)
    a, b = float(np.max(np.abs(x))), float(np.max(np.abs(y)))
    if expected and a and b:
        gap = abs(float((x / a) @ (y / b)))
        expected = gap <= tol / a / b + tol * float(np.linalg.norm(x / a)) * float(
            np.linalg.norm(y / b))
    assert cone.is_complementary(x, y, tol) is expected


class TestSpecText:
    def test_parse_roundtrip(self):
        cone = parse_cone_spec("nn:5,free:2,nn:3")
        assert cone == mixed(("nn", 5), ("free", 2), ("nn", 3))
        assert cone.spec() == "nn:5,free:2,nn:3"

    def test_integral_non_int_lengths_stored_as_int(self):
        for length in (2.0, np.int64(2)):
            seg = Segment(SegmentKind.NONNEGATIVE, length)
            assert type(seg.length) is int
            cone = SeparableCone((seg, Segment(SegmentKind.FREE, 1)))
            np.testing.assert_array_equal(cone.project([-1.0, 2.0, -3.0]), [0.0, 2.0, -3.0])
            assert cone.spec() == "nn:2,free:1"
            assert parse_cone_spec(cone.spec()) == cone
            op = AffineOperator(np.eye(3), [1.0, -1.0, 0.5])
            op_back, cone_back = parse_problem(write_problem(op, cone))
            assert cone_back == cone
            np.testing.assert_array_equal(op_back.M, op.M)

    def test_kind_given_by_value_is_stored_as_member(self):
        # "nn" matched no mask: project left [-1, 2] unclipped
        assert Segment("nn", 2) == Segment(SegmentKind.NONNEGATIVE, 2)
        np.testing.assert_array_equal(SeparableCone((Segment("nn", 2),)).project([-1.0, 2.0]),
                                      [0.0, 2.0])

    def test_parse_rejects_garbage(self):
        for bad in ("nn", "nn:0", "nn:x", "box:3", "", "nn:2,,free:1"):
            with pytest.raises(ValueError):
                parse_cone_spec(bad)
