"""Vector clock laws: ordering, join, concurrency."""

import pytest
from hypothesis import given, strategies as st

from repro.util.vclock import VectorClock

clocks = st.dictionaries(st.integers(0, 4), st.integers(0, 8), max_size=5)


def test_empty_clock_is_identity():
    empty = VectorClock()
    other = VectorClock({1: 3})
    assert empty <= other
    assert empty.join(other) == other
    assert empty.get(7) == 0


def test_tick_advances_only_one_component():
    clock = VectorClock({1: 1, 2: 5}).tick(1)
    assert clock.get(1) == 2
    assert clock.get(2) == 5


def test_concurrent_clocks():
    a = VectorClock({1: 1})
    b = VectorClock({2: 1})
    assert a.concurrent_with(b)
    assert b.concurrent_with(a)
    assert not a.concurrent_with(a)


def test_join_orders_both_inputs():
    a = VectorClock({1: 3, 2: 1})
    b = VectorClock({2: 4})
    joined = a.join(b)
    assert a <= joined
    assert b <= joined
    assert joined.get(1) == 3 and joined.get(2) == 4


def test_zero_components_are_normalized():
    assert VectorClock({1: 0, 2: 3}) == VectorClock({2: 3})
    assert hash(VectorClock({1: 0})) == hash(VectorClock())


@given(clocks, clocks)
def test_join_is_commutative(a, b):
    assert VectorClock(a).join(VectorClock(b)) == \
        VectorClock(b).join(VectorClock(a))


@given(clocks, clocks, clocks)
def test_join_is_associative(a, b, c):
    va, vb, vc = VectorClock(a), VectorClock(b), VectorClock(c)
    assert va.join(vb).join(vc) == va.join(vb.join(vc))


@given(clocks)
def test_join_is_idempotent(a):
    va = VectorClock(a)
    assert va.join(va) == va


@given(clocks, clocks)
def test_partial_order_antisymmetry(a, b):
    va, vb = VectorClock(a), VectorClock(b)
    if va <= vb and vb <= va:
        assert va == vb


@given(clocks, clocks)
def test_exactly_one_relation_holds(a, b):
    va, vb = VectorClock(a), VectorClock(b)
    relations = [va <= vb and va != vb, vb <= va and vb != va,
                 va.concurrent_with(vb), va == vb]
    assert sum(bool(r) for r in relations) == 1
