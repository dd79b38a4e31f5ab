"""Scheduler oracles over corpus seeds 0-119 (keep rules, pure runs,
sticky picks).

The wide counterpart of ``tests/test_scheduler_oracle.py`` and of the
pause check in ``tests/test_snapshot_fork.py``, which cover the apps and
corpus seeds 0-23 in tier-1.  Every case of corpus seeds 0-119 (every
bug class twenty times):

* runs at its failing seed in every trace mode under the production
  ``RandomScheduler``, whose keep rule the run loop draws itself (in
  ``counting`` and ``events`` between the steps of a pure run), and
  under a pick-every-step reference, and the runs must agree;
* runs in ``counting`` and ``events`` cut at three seeded step limits
  and three seeded cycle ceilings under both, which must stop alike;
* runs paused at three seeded steps, then resumed or forked, in every
  trace mode, under the production and a bare sync-order scheduler,
  and must end as the run from scratch does;
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
from test_scheduler_oracle import (MODELS, check_limits,  # noqa: E402
                                   check_plain_runs, check_replays)
from test_snapshot_fork import check_pauses  # noqa: E402

pytestmark = pytest.mark.perf


@pytest.mark.parametrize("seed", range(120))
def test_corpus_plain_runs_match_pick_every_step(seed):
    check_plain_runs(f"corpus:{seed}")


@pytest.mark.parametrize("seed", range(120))
def test_corpus_limited_runs_match_pick_every_step(seed):
    check_limits(f"corpus:{seed}")


@pytest.mark.parametrize("seed", range(120))
def test_corpus_paused_and_forked_runs_match_a_scratch_run(seed):
    check_pauses(f"corpus:{seed}")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(120))
def test_corpus_replays_match_filter_then_pick(seed, model):
    check_replays(f"corpus:{seed}", model)
