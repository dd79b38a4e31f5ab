"""The scenario generator is a pure function of its corpus seed."""

import pytest

from repro.analysis.rootcause import Diagnoser
from repro.corpus import BUG_CLASSES, GeneratedCase, generate_case, generator
from repro.corpus.generator import EXPECTED_KIND, _kind_matches

# One full round of every bug class.
CLASS_SEEDS = range(len(BUG_CLASSES))


@pytest.fixture(scope="module")
def first_round():
    return {seed: generate_case(seed) for seed in CLASS_SEEDS}


def test_every_bug_class_appears_in_one_round(first_round):
    assert {case.bug_class for case in first_round.values()} == \
        set(BUG_CLASSES)


@pytest.mark.parametrize("seed", CLASS_SEEDS)
def test_same_seed_regenerates_identical_case(first_round, seed,
                                              monkeypatch):
    case = first_round[seed]
    monkeypatch.delitem(generator._CASE_CACHE, seed)
    twin = generate_case(seed)
    assert twin is not case, "the twin must be built, not the cached case"
    assert twin.source == case.source, "program text must be reproducible"
    assert twin.name == case.name
    assert twin.failing_seed == case.failing_seed
    assert twin.known_cause.same_cause(case.known_cause)
    assert twin.failing_digest == case.failing_digest


@pytest.mark.parametrize("seed", CLASS_SEEDS)
def test_pinned_failing_run_replays_to_pinned_digest(first_round, seed):
    """The digest is live, not just stored: a fresh run must match it."""
    case = first_round[seed]
    machine = case.run(case.failing_seed)
    assert machine.failure is not None
    assert machine.trace.fingerprint() == case.failing_digest


@pytest.mark.parametrize("seed", CLASS_SEEDS)
def test_planted_class_fires_and_matches_ground_truth(first_round, seed):
    """The failing run's diagnosis is the planted bug, not an accident."""
    case = first_round[seed]
    machine = case.run(case.failing_seed)
    cause = Diagnoser().diagnose(machine.trace, machine.failure)
    assert cause is not None
    assert cause.same_cause(case.known_cause)
    assert _kind_matches(EXPECTED_KIND[case.bug_class], cause.kind)


def test_distinct_seeds_draw_distinct_programs():
    """Same bug class, different seeds: parameter draws must vary."""
    sources = {generate_case(seed).source for seed in (0, 6, 12, 18)}
    assert len(sources) > 1


def test_generated_case_carries_provenance(first_round):
    case = first_round[0]
    assert isinstance(case, GeneratedCase)
    meta = case.provenance()
    assert meta["seed"] == 0
    assert meta["bug_class"] == case.bug_class
    assert meta["ground_truth"]["kind"] == case.known_cause.kind
    assert meta["failing_digest"] == case.failing_digest


def test_wider_seed_range_generates(first_round):
    """Seeds beyond the first round keep producing firing cases."""
    case = generate_case(17)
    assert case.bug_class == BUG_CLASSES[17 % len(BUG_CLASSES)]
    assert case.run(case.failing_seed).failure is not None
