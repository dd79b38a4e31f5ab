"""Oracle: events-mode enumeration candidates diagnose as full ones do.

Root-cause enumeration (the paper's ``n`` in DF = 1/n) runs its
candidates in the sparse ``events`` trace mode.  This oracle takes every
candidate :func:`~repro.models.session.count_root_causes` tries - the
case's input space under its 24 scheduler seeds, in order, up to the
attempt budget - runs it from scratch in both the ``full`` and the
``events`` mode, and checks that the two are the same execution, that
the events trace holds exactly the full trace's effect steps (compared
by ``StepRecord._key()``, which includes the global ``index``), and that
every accepted candidate gets the same ``(kind, site)`` diagnosis.

Tier-1 covers the seven apps and corpus seeds 0-23 (every bug class
four times); ``benchmarks/bench_rootcause.py`` runs the same oracle over
corpus seeds 0-119.
"""

import itertools

import pytest

from repro.analysis.rootcause import Diagnoser
from repro.apps import ALL_APPS
from repro.apps.base import find_failing_seed
from repro.corpus.generator import generate_case
from repro.corpus.matrix import CORPUS_CAUSE_ATTEMPTS
from repro.models.session import cause_search

APP_CAUSE_ATTEMPTS = 120  # count_root_causes' default budget


def _is_effect(step):
    return bool(step.reads or step.writes or step.sync is not None
                or step.io is not None)


def _cause_key(cause):
    return (cause.kind, cause.site) if cause is not None else None


def check_enumeration(case, failure, max_attempts):
    """Check one case's enumeration candidates in both trace modes.

    Returns ``(candidates, accepted)``: how many candidates were run,
    and how many of them showed ``failure`` and were diagnosed.
    """
    search = cause_search(case)
    diagnoser = Diagnoser(extra_rules=case.diagnoser_rules)
    pairs = itertools.islice(
        ((inputs, seed) for inputs in search.input_space.candidates()
         for seed in search.schedule_seeds), max_attempts)
    candidates = accepted = 0
    for inputs, seed in pairs:
        full = search.run_candidate(inputs, seed, trace_mode="full")
        events = search.run_candidate(inputs, seed, trace_mode="events")
        where = f"{case.name}: inputs {inputs}, seed {seed}"
        assert events.trace.sparse and not full.trace.sparse
        assert events.steps == full.steps, where
        assert events.trace.total_steps == full.trace.total_steps, where
        assert events.failure == full.failure, where
        assert events.meter.native_cycles == \
            full.meter.native_cycles, where
        assert events.trace.outputs == full.trace.outputs, where
        assert [s._key() for s in events.trace.steps] == \
            [s._key() for s in full.trace.steps if _is_effect(s)], where
        candidates += 1
        if full.failure is None or not failure.same_failure(full.failure):
            continue
        accepted += 1
        assert _cause_key(diagnoser.diagnose(events.trace,
                                             events.failure)) == \
            _cause_key(diagnoser.diagnose(full.trace, full.failure)), where
    return candidates, accepted


def test_app_candidates_diagnose_alike():
    accepted = 0
    for name in sorted(ALL_APPS):
        case = ALL_APPS[name]()
        failure = case.run(find_failing_seed(case)).failure
        candidates, diagnosed = check_enumeration(case, failure,
                                                  APP_CAUSE_ATTEMPTS)
        assert candidates > 0, name
        accepted += diagnosed
    # adder and overflow reach their failure in none of their first 120
    # candidates; the other five apps do in most of theirs.
    assert accepted > 0


@pytest.mark.parametrize("seed", range(24))
def test_corpus_candidates_diagnose_alike(seed):
    case = generate_case(seed)
    failure = case.run(case.failing_seed).failure
    candidates, __ = check_enumeration(case, failure, CORPUS_CAUSE_ATTEMPTS)
    assert candidates > 0
