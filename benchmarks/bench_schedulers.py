"""Constrained-scheduler oracle over corpus seeds 0-119 (sticky picks).

The wide counterpart of ``tests/test_scheduler_oracle.py``, which covers
the apps and corpus seeds 0-23 in tier-1: every case of corpus seeds
0-119 (every bug class twenty times) is recorded under the output model
(ODR replay, ``SyncOrderScheduler``) and rcse (``GuidedOrderScheduler``),
shipped, and replayed twice - with the sticky picks and with the
filter-then-pick references - and the two replays must agree on
``attempts``, ``inference_cycles``, ``found`` and the trace fingerprint.
It uses no ``benchmark`` fixture, so it runs under plain pytest (CI
does)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_schedulers.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from test_scheduler_oracle import MODELS, check_replays  # noqa: E402

pytestmark = pytest.mark.perf


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(120))
def test_corpus_replays_match_filter_then_pick(seed, model):
    check_replays(f"corpus:{seed}", model)
