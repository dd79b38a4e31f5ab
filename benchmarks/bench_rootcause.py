"""Enumeration and checkpoint oracles over corpus seeds 0-119.

The wide counterparts of ``tests/test_rootcause_events.py`` and
``tests/test_checkpoint_oracle.py``, which cover the apps and corpus
seeds 0-23 in tier-1.  On corpus seeds 0-119 (every bug class twenty
times): every candidate root-cause enumeration tries runs from scratch
under the ``full`` and the sparse ``events`` trace mode, and the two
must be the same execution, keep the same effect steps, and diagnose
alike; and every search of the five debug sessions, cause enumerations
included, must end the same with forkable-only checkpoints as with a
snapshot at every input consumption.  It uses no ``benchmark`` fixture,
so it runs under plain pytest (CI does)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_rootcause.py
"""

import os
import sys

import pytest

from repro.corpus.generator import generate_case
from repro.corpus.matrix import CORPUS_CAUSE_ATTEMPTS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from test_checkpoint_oracle import check_searches  # noqa: E402
from test_rootcause_events import check_enumeration  # noqa: E402

pytestmark = pytest.mark.perf


@pytest.mark.parametrize("seed", range(120))
def test_corpus_enumeration_oracle(seed):
    case = generate_case(seed)
    failure = case.run(case.failing_seed).failure
    candidates, __ = check_enumeration(case, failure, CORPUS_CAUSE_ATTEMPTS)
    assert candidates > 0


@pytest.mark.parametrize("seed", range(120))
def test_corpus_checkpoint_oracle(seed):
    check_searches(f"corpus:{seed}", CORPUS_CAUSE_ATTEMPTS)
