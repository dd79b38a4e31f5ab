"""Fixtures shared by the matrix resume tests."""

import pytest

from repro.store import RunStore


@pytest.fixture
def put_rows(monkeypatch):
    """The ``(seed, model)`` of every ``RunStore.put_row`` call, in order.

    Counting calls is how a resume test sees recomputation: the store's
    index cannot show it, because ``put_row`` appends nothing for a row
    the store already holds.
    """
    calls = []
    put_row = RunStore.put_row

    def counted(self, seed, model, code_hash, row):
        calls.append((seed, model))
        return put_row(self, seed, model, code_hash, row)

    monkeypatch.setattr(RunStore, "put_row", counted)
    return calls
