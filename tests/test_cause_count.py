"""The cause count ``n`` (DF = 1/n) is enumerated once per content.

:func:`~repro.models.session.count_root_causes` keys a case that
:func:`~repro.models.session.resolve_case` rebuilt by its content (the
normalised reference plus the guest fingerprint), so the sessions a
workstation rebuilds from shipped payloads share one enumeration; any
other case is keyed by the case object, so a knob variant never borrows
another case's ``n``.  Enumerations are counted by wrapping the module
global ``enumerate_root_causes`` that ``count_root_causes`` calls.
"""

from dataclasses import replace

import pytest

from repro.analysis.rootcause import Diagnoser, enumerate_root_causes
from repro.apps import ALL_APPS, msg_server
from repro.apps.base import find_failing_seed
from repro.corpus.generator import generate_case
from repro.models import DebugSession, model_order, session
from repro.models.session import (_CAUSE_COUNTS_BY_CASE,
                                  _CAUSE_COUNTS_BY_CONTENT, cause_search,
                                  clear_cause_counts, count_root_causes,
                                  resolve_case)

ATTEMPTS = 6  # a small budget: these tests count enumerations, not causes


@pytest.fixture
def enumerations(monkeypatch):
    """A list that grows by one per ``enumerate_root_causes`` call,
    starting from empty cause counts."""
    calls = []
    enumerate_root_causes = session.enumerate_root_causes

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_root_causes(*args, **kwargs)

    monkeypatch.setattr(session, "enumerate_root_causes", counted)
    clear_cause_counts()
    yield calls
    clear_cause_counts()


def _shipped(case, model, seed=None):
    recorder = DebugSession(case, model, seed=seed)
    recorder.record()
    return recorder.ship()


def _received_n(payload):
    workstation = DebugSession.receive(payload)
    workstation.replay()
    scored = workstation.score(original_cause=workstation.case.known_cause,
                               cause_count_attempts=ATTEMPTS)
    return workstation, scored.n_causes


def test_sessions_of_one_app_enumerate_once(enumerations):
    case = ALL_APPS["deadlock"]()
    payloads = [_shipped(case, model) for model in model_order()]
    assert len(payloads) == 5
    received = [_received_n(payload) for payload in payloads]
    assert len(enumerations) == 1
    # Each payload rebuilt its own case, all on the one content key.
    assert len({id(workstation.case) for workstation, __ in received}) == 5
    assert len({n for __, n in received}) == 1
    assert len(_CAUSE_COUNTS_BY_CONTENT) == 1
    [key] = _CAUSE_COUNTS_BY_CONTENT
    assert key[:2] == ("app", "deadlock")


def test_resolved_corpus_case_enumerates_once(enumerations):
    case = generate_case(1)
    failure = case.run(case.failing_seed).failure
    counts = {count_root_causes(resolve_case(ref), failure,
                                max_attempts=ATTEMPTS)
              for ref in ("corpus:1", {"kind": "corpus", "seed": 1})
              for __ in model_order()}
    assert len(counts) == 1
    assert len(enumerations) == 1
    [key] = _CAUSE_COUNTS_BY_CONTENT
    assert key[:2] == ("corpus", 1)


def test_clear_cause_counts_enumerates_a_received_payload_again(
        enumerations):
    case = generate_case(1)
    payload = _shipped(case, "full", seed=case.failing_seed)
    __, n = _received_n(payload)
    assert _received_n(payload)[1] == n
    assert len(enumerations) == 1
    clear_cause_counts()
    assert _received_n(payload)[1] == n
    assert len(enumerations) == 2


def test_unresolved_namesake_of_a_registry_app_stays_on_the_case_key(
        enumerations):
    case = ALL_APPS["deadlock"]()  # built by hand, never resolved
    failure = case.run(find_failing_seed(case)).failure
    n = count_root_causes(case, failure, max_attempts=ATTEMPTS)
    assert case in _CAUSE_COUNTS_BY_CASE
    assert not _CAUSE_COUNTS_BY_CONTENT
    # A resolved namesake neither reads nor fills the hand-built entry.
    assert count_root_causes(resolve_case("app:deadlock"), failure,
                             max_attempts=ATTEMPTS) == n
    assert len(enumerations) == 2
    assert len(_CAUSE_COUNTS_BY_CONTENT) == 1


def test_knob_variants_do_not_share_n():
    """A variant sharing a program but not a knob gets its own ``n``.

    At 8 attempts msg_server reaches only the buffer race without
    network drops and also the congestion cause at a 0.3 drop rate, so
    a variant that borrowed its sibling's cached count would read 1
    where a freshly built case reads 2.
    """
    attempts = 8
    base = ALL_APPS["msg_server"]()
    failure = base.run(find_failing_seed(base)).failure
    fresh = {rate: count_root_causes(msg_server.make_case(rate), failure,
                                     max_attempts=attempts)
             for rate in (0.0, 0.3)}
    assert fresh == {0.0: 1, 0.3: 2}
    resolved = resolve_case("app:msg_server")
    count_root_causes(resolved, failure, max_attempts=attempts)
    for variant in (replace(base, net_drop_rate=0.0),
                    replace(base, net_drop_rate=0.3),
                    replace(resolved, net_drop_rate=0.3)):
        assert count_root_causes(variant, failure, max_attempts=attempts) \
            == fresh[variant.net_drop_rate]


def test_received_variant_counts_n_on_its_shipped_knobs(enumerations):
    """``score`` enumerates ``n`` on the knobs the replay ran on.

    A hand-built msg_server variant without network drops ships as
    ``app:msg_server``, so the workstation rebuilds the registry app
    (drop rate 0.05) while the shipped config keeps the recorded 0.0.
    Scored on the rebuilt case's knobs it read ``n`` = 2, where the
    same log attached to the variant itself reads 1.
    """
    variant = replace(ALL_APPS["msg_server"](), net_drop_rate=0.0)
    payload = _shipped(variant, "full")
    received = DebugSession.receive(payload)
    assert received.case.net_drop_rate != 0.0
    assert received.config.net_drop_rate == 0.0
    attached = DebugSession(variant, "full").attach(received.log)
    cause = variant.known_cause
    assert attached.score(original_cause=cause).n_causes == 1
    assert received.score(original_cause=cause).n_causes == 1
    # The rebuilt case stays on its content key, which now carries the
    # shipped knobs: the registry app's own 0.05 sessions keep theirs.
    assert any(key[-2:] == (0.0, variant.switch_prob)
               for key in _CAUSE_COUNTS_BY_CONTENT)


def test_msg_server_enumeration_surfaces_race_and_congestion():
    """§5's question on msg_server: record just the failure, and the
    enumeration over its execution space finds both root causes that
    end in it, the buffer race and network congestion."""
    case = ALL_APPS["msg_server"]()
    failure = case.run(find_failing_seed(case)).failure
    causes = enumerate_root_causes(
        cause_search(case), failure,
        Diagnoser(extra_rules=case.diagnoser_rules))
    assert {cause.kind for cause in causes} == {"data-race",
                                                "network-congestion"}


# -- the failing-seed memo ----------------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """A list that grows by one per ``find_failing_seed`` call, starting
    from an empty memo."""
    from repro.apps import base
    calls = []

    def counted(case, seeds=range(200), accept=None):
        calls.append(case)
        return find_failing_seed(case, seeds, accept)

    monkeypatch.setattr(base, "find_failing_seed", counted)
    clear_cause_counts()
    yield calls
    clear_cause_counts()


def test_sessions_of_one_case_search_for_its_failing_seed_once(searches):
    case = ALL_APPS["racy_counter"]()
    payloads = [_shipped(case, model) for model in model_order()]
    assert len(searches) == 1
    # Each session ships the log a session at the searched seed ships.
    seed = find_failing_seed(case)
    assert payloads == [_shipped(case, model, seed=seed)
                        for model in model_order()]
    # The seeds are searched as a tuple: an iterator over the same seeds
    # is the same search.
    DebugSession(case, "full").record(seeds=iter(range(200)))
    assert len(searches) == 1
    # A variant is a new case object, with its own search.
    variant = replace(case)
    DebugSession(variant, "full").record()
    assert searches == [case, variant]
    clear_cause_counts()
    DebugSession(case, "full").record()
    assert searches == [case, variant, case]
