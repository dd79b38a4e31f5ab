"""Deterministic RNG streams and the result-table helper."""

import pytest

from repro.util.rng import DeterministicRng
from repro.util.tables import Table


def test_same_seed_same_stream():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.randint(0, 100) for _ in range(10)] == \
        [b.randint(0, 100) for _ in range(10)]


def test_different_seeds_differ():
    a = [DeterministicRng(1).randint(0, 10**9) for _ in range(3)]
    b = [DeterministicRng(2).randint(0, 10**9) for _ in range(3)]
    assert a != b


def test_split_streams_are_independent():
    root = DeterministicRng(7)
    x = root.split("net")
    y = root.split("sched")
    # Consuming from x must not perturb y (stability under new consumers).
    y_fresh = DeterministicRng(7).split("sched")
    x.randint(0, 100)
    x.randint(0, 100)
    assert y.randint(0, 1000) == y_fresh.randint(0, 1000)


def test_shuffle_returns_copy():
    rng = DeterministicRng(3)
    items = [1, 2, 3, 4, 5]
    shuffled = rng.shuffle(items)
    assert sorted(shuffled) == items
    assert items == [1, 2, 3, 4, 5]


def test_chance_extremes():
    rng = DeterministicRng(0)
    assert not any(rng.chance(0.0) for _ in range(20))
    assert all(rng.chance(1.0) for _ in range(20))


def test_table_roundtrip():
    t = Table(["a", "b"], title="demo")
    t.add_row(a=1, b="x")
    t.add_row(a=2, b="y")
    assert t.column("a") == [1, 2]
    assert t.lookup(a=2)["b"] == "y"
    assert len(t.where(lambda r: r["a"] > 1)) == 1
    rendered = t.render()
    assert "demo" in rendered and "x" in rendered


def test_table_missing_column_rejected():
    t = Table(["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(a=1)


def test_table_lookup_ambiguous():
    t = Table(["a"])
    t.add_row(a=1)
    t.add_row(a=1)
    with pytest.raises(KeyError):
        t.lookup(a=1)
