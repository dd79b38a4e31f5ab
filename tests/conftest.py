"""Fixtures shared by the matrix resume tests, and the warm fleet's
teardown."""

import pytest

from repro.corpus import matrix
from repro.store import RunStore


@pytest.fixture(autouse=True)
def close_warm_fleet():
    """Reap the matrix's warm fleet after every test.

    A fleet left warm keeps its SIGTERM handler installed and its
    workers as they were forked, so the next test would inherit both.
    """
    yield
    matrix.close_fleet()


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
