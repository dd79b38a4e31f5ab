"""Interval arithmetic soundness (checked against brute force)."""

from hypothesis import given, strategies as st

from repro.util.intervals import Interval

small = st.integers(-20, 20)
intervals = st.builds(Interval, small, small)


def test_empty_interval():
    empty = Interval.empty()
    assert empty.is_empty
    assert len(empty) == 0
    assert list(empty) == []
    assert 0 not in empty


def test_point_and_membership():
    p = Interval.point(5)
    assert len(p) == 1
    assert 5 in p and 4 not in p


def test_intersect_disjoint_is_empty():
    assert Interval(0, 3).intersect(Interval(5, 9)).is_empty


def test_refinements():
    d = Interval(0, 10)
    assert d.refine_le(5) == Interval(0, 5)
    assert d.refine_ge(5) == Interval(5, 10)


@given(intervals, intervals)
def test_add_is_sound_and_tight(a, b):
    result = a.add(b)
    values = [x + y for x in a for y in b]
    if not values:
        assert result.is_empty
        return
    assert all(v in result for v in values)
    assert result.lo == min(values) and result.hi == max(values)


@given(intervals, intervals)
def test_sub_is_sound(a, b):
    result = a.sub(b)
    for x in a:
        for y in b:
            assert x - y in result


@given(intervals, intervals)
def test_mul_is_sound(a, b):
    result = a.mul(b)
    for x in a:
        for y in b:
            assert x * y in result


@given(intervals)
def test_negate_involution(a):
    assert a.negate().negate() == a or (a.is_empty
                                        and a.negate().negate().is_empty)


@given(intervals, intervals)
def test_intersect_is_exact(a, b):
    result = a.intersect(b)
    expected = sorted(set(a) & set(b))
    assert list(result) == expected
