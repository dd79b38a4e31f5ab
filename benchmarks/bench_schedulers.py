"""Scheduler oracles over corpus seeds 0-119 (keep rules, sticky picks).

The wide counterpart of ``tests/test_scheduler_oracle.py``, which covers
the apps and corpus seeds 0-23 in tier-1.  Every case of corpus seeds
0-119 (every bug class twenty times):

* runs at its failing seed in every trace mode under the production
  ``RandomScheduler``, whose keep rule the run loop draws itself, and
  under a pick-every-step reference, and the runs must agree;
* is recorded under the output model (ODR replay, ``SyncOrderScheduler``)
  and rcse (``GuidedOrderScheduler``), shipped, and replayed twice - with
  the production schedulers and with the filter-then-pick references -
  and the two replays must agree on ``attempts``, ``inference_cycles``,
  ``found`` and the trace fingerprint.

It uses no ``benchmark`` fixture, so it runs under plain pytest (CI
does)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_schedulers.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from test_scheduler_oracle import (MODELS, check_plain_runs,  # noqa: E402
                                   check_replays)

pytestmark = pytest.mark.perf


@pytest.mark.parametrize("seed", range(120))
def test_corpus_plain_runs_match_pick_every_step(seed):
    check_plain_runs(f"corpus:{seed}")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(120))
def test_corpus_replays_match_filter_then_pick(seed, model):
    check_replays(f"corpus:{seed}", model)
