"""Oracle: forkable-only checkpoints make the searches that checkpoints
at every input consumption made.

A search snapshots a candidate at an input consumption only while the
next input assignment, if its attempt budget reaches one, agrees with
every value consumed before it, since no other assignment can fork the
checkpoint taken there or keep it for a later one.  The reference here
snapshots at every consumption, as the search did before: it patches in
a witness that always agrees.  Every search of a case's five debug
sessions - each replay's search and the cause enumeration its score
runs - must end the same under both: attempts, inference and saved
cycles, forks, aborts, caps, divergences, re-runs, refunds, the
accepted count and the accepted trace.

Tier-1 covers the seven apps and corpus seeds 0-23;
``benchmarks/bench_rootcause.py`` runs the same oracle over corpus
seeds 0-119.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.apps import ALL_APPS
from repro.corpus.matrix import CORPUS_CAUSE_ATTEMPTS
from repro.models import DebugSession, model_order
from repro.models.session import clear_cause_counts, resolve_case
from repro.replay import search as search_module
from repro.replay.search import ExecutionSearch
from repro.vm import Machine


class EveryConsumption:
    """A witness that always agrees, so the search snapshots at every
    input consumption (up to its cap)."""

    inputs = {}

    def __init__(self, inputs, consumed, count):
        pass

    def consumed(self, channel, value):
        pass


def _summary(outcome):
    machine = outcome.machine
    if machine is None:
        trace = None
    elif machine.trace.sparse:
        trace = [step._key() for step in machine.trace.steps]
    else:
        trace = machine.trace.fingerprint()
    return (outcome.attempts, outcome.inference_cycles, outcome.found,
            outcome.forked_candidates, outcome.saved_cycles,
            outcome.aborted_candidates, outcome.capped_candidates,
            outcome.diverged_candidates, outcome.materialized_runs,
            outcome.refunded_cycles, len(outcome.all_accepted), trace)


def _searches(ref: str, cause_count_attempts: int):
    """The summary of every search ``ref``'s five sessions run, in
    order: record at the failing seed, ship, receive, replay, score."""
    clear_cause_counts()
    summaries = []
    search = ExecutionSearch.search

    def summarized(self, *args, **kwargs):
        outcome = search(self, *args, **kwargs)
        summaries.append(_summary(outcome))
        return outcome

    case = resolve_case(ref)
    with mock.patch.object(ExecutionSearch, "search", summarized):
        for model in model_order():
            session = DebugSession(case, model,
                                   seed=getattr(case, "failing_seed", None))
            session.record()
            DebugSession.receive(session.ship()).score(
                original_cause=case.known_cause,
                cause_count_attempts=cause_count_attempts)
    return summaries


def check_searches(ref: str, cause_count_attempts: int):
    """Run ``ref``'s sessions with forkable-only and with every-consumption
    checkpoints; every search must end the same.  Returns the
    summaries."""
    production = _searches(ref, cause_count_attempts)
    with mock.patch.object(search_module, "_Witness", EveryConsumption):
        reference = _searches(ref, cause_count_attempts)
    assert len(production) == len(reference) > 0, ref
    for position, (ours, theirs) in enumerate(zip(production, reference)):
        assert ours == theirs, (ref, position)
    return production


def test_app_searches_match_every_consumption_checkpoints():
    forked = 0
    for name in sorted(ALL_APPS):
        summaries = check_searches(f"app:{name}", 120)
        forked += sum(summary[3] for summary in summaries)
    assert forked > 0


@pytest.mark.parametrize("seed", range(24))
def test_corpus_searches_match_every_consumption_checkpoints(seed):
    check_searches(f"corpus:{seed}", CORPUS_CAUSE_ATTEMPTS)


def test_overflow_synthesis_snapshots_only_forkable_consumptions():
    """overflow's failure synthesis forks 289 candidates off checkpoints
    and snapshots at most 400 consumptions for them; snapshotting every
    consumption took 2,074."""
    clear_cause_counts()
    session = DebugSession(resolve_case("app:overflow"), "failure")
    session.record()
    workstation = DebugSession.receive(session.ship())
    calls = Counter()
    snapshot, fork = Machine.snapshot, Machine.fork

    def counted_snapshot(machine):
        calls["snapshot"] += 1
        return snapshot(machine)

    def counted_fork(machine):
        calls["fork"] += 1
        return fork(machine)

    with mock.patch.object(Machine, "snapshot", counted_snapshot), \
            mock.patch.object(Machine, "fork", counted_fork):
        replay = workstation.replay()
    assert replay.found
    assert calls["fork"] == 289
    assert calls["snapshot"] <= 400
