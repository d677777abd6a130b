import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseact.boxes import (
    NEG_INF,
    POS_INF,
    DimensionMismatch,
    EmptyBoxError,
    UnionSet,
    box,
    box_intersect,
    box_points,
    box_set,
    difference_box,
    points_set,
    set_membership,
    set_points_within,
    set_translate,
    union_set,
)


def brute_points(lo, hi, w=20):
    return [v for v in range(-w, w + 1) if lo <= v <= hi]


class TestMembership:
    def test_box_center(self):
        assert set_membership(box_set((-1, 1), (-1, 1)), (0, 0))

    def test_infinite_upper_violation(self):
        s = box_set((NEG_INF, 0), (NEG_INF, 0))
        assert not set_membership(s, (1, 0))

    def test_union_semantics(self):
        s = union_set(points_set((5,)), box_set((0, 2)))
        assert set_membership(s, (5,))
        assert set_membership(s, (1,))
        assert not set_membership(s, (4,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            set_membership(box_set((0, 1)), (0, 0))


class TestIntersect:
    def test_overlap(self):
        assert box_intersect(box((0, 3)), box((2, 5))) == box((2, 3))

    def test_disjoint(self):
        assert box_intersect(box((0, 1)), box((3, 4))).empty

    def test_infinite_ends_clip(self):
        got = box_intersect(box((NEG_INF, 0)), box((-2, POS_INF)))
        assert got == box((-2, 0))

    @given(
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_is_conjunction_2d(self, p1, p2, q1, q2):
        b1 = box(tuple(sorted(p1)), tuple(sorted(p2)))
        b2 = box(tuple(sorted(q1)), tuple(sorted(q2)))
        inter = box_intersect(b1, b2)
        for pt in itertools.product(range(-10, 11), repeat=2):
            assert inter.contains(pt) == (b1.contains(pt) and b2.contains(pt))


class TestDifferenceBox:
    def test_finite_case_against_enumeration(self):
        target, source = box((5, 6)), box((0, 1))
        got = difference_box(target, source)
        expected = [
            v
            for v in range(-20, 21)
            if any(v + s in (5, 6) for s in (0, 1))
        ]
        assert got == box((4, 6))
        assert expected == brute_points(got.lower[0], got.upper[0])

    def test_point_case(self):
        assert difference_box(box((0, 0)), box((0, 0))) == box((0, 0))

    def test_infinite_case(self):
        got = difference_box(box((NEG_INF, 0)), box((NEG_INF, 0)))
        assert got == box((NEG_INF, POS_INF))
        # every v has a source point <= min(0, -v), so the window confirms
        for v in range(-20, 21):
            s = min(0, -v) - 1
            assert s <= 0 and v + s <= 0

    def test_rejects_empty(self):
        with pytest.raises(EmptyBoxError):
            difference_box(box((1, 0)), box((0, 0)))

    @given(
        st.integers(-6, 6), st.integers(0, 4), st.integers(-6, 6), st.integers(0, 4)
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_brute_force(self, lo_t, w_t, lo_s, w_s):
        target, source = box((lo_t, lo_t + w_t)), box((lo_s, lo_s + w_s))
        got = difference_box(target, source)
        for v in range(-25, 26):
            hit = any(
                target.contains((v + s,)) for s in range(lo_s, lo_s + w_s + 1)
            )
            assert got.contains((v,)) == hit


class TestTranslate:
    def test_box_shift(self):
        assert set_translate(box_set((0, 1)), (3,)) == box_set((3, 4))

    def test_points_shift(self):
        got = set_translate(points_set((0, 0), (1, 1)), (1, -1))
        assert got == points_set((1, -1), (2, 0))

    def test_infinite_ends_shift(self):
        got = set_translate(box_set((NEG_INF, 0), (NEG_INF, 0)), (3, -3))
        assert got == box_set((NEG_INF, 3), (NEG_INF, -3))

    @given(st.integers(-6, 6), st.integers(0, 5), st.integers(-7, 7))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, lo, w, v):
        s = box_set((lo, lo + w))
        back = set_translate(set_translate(s, (v,)), (-v,))
        for p in range(-20, 21):
            assert set_membership(back, (p,)) == set_membership(s, (p,))


class TestPointsWithin:
    @pytest.mark.parametrize("s", [
        box_set((1, 0)),
        box_set((NEG_INF, POS_INF)),
        box_set((NEG_INF, 2), (-1, POS_INF)),
        box_set((3, 30), (-30, -2)),
        box_set((0, 0), (5, 5)),
    ])
    @pytest.mark.parametrize("radius", [0, 1, 4])
    def test_single_box_equals_union_path(self, s, radius):
        # a single box is listed straight from box_points; a union of the box
        # with itself goes through the deduplicating path
        got = set_points_within(s, radius)
        assert got == set_points_within(UnionSet((s, s)), radius)
        assert got == sorted(p for p in itertools.product(range(-radius, radius + 1),
                                                          repeat=s.box.dim)
                             if set_membership(s, p))
