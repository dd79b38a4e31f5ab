"""Attested shipped logs: tampering is refused, never silently replayed.

The production→workstation hop is exercised the way a real deployment
would see it: a :class:`DebugSession` records and ships a payload, the
payload is damaged (or the receiving environment drifts), and the
receive/replay side must refuse with a structured
:class:`~repro.errors.LogAttestationError` - or warn, when the operator
explicitly opted out with ``verify=False`` (``--no-verify``).
"""

import json

import pytest

from repro.apps import racy_counter
from repro.corpus.generator import generate_case
from repro.errors import LogAttestationError, LogFormatError
from repro.models import DebugSession, replay_log
from repro.record import load_log, log_from_dict, save_log
from repro.record.attest import (ATTESTATION_KEY, guest_fingerprint,
                                 is_attested, stamp_attestation,
                                 verify_attestation)


@pytest.fixture(scope="module")
def shipped():
    """One recorded + shipped corpus session (payload, session)."""
    case = generate_case(0)
    session = DebugSession(case, "full", seed=case.failing_seed)
    session.record()
    return session.ship(), session


def flip_digit(payload: str, where: int = 0) -> str:
    """Flip one digit in the log body, before the attestation block."""
    limit = payload.find('"attestation"')
    assert limit > 0, "v2 payloads must carry an attestation block"
    # Skip the format_version field: flipping *it* exercises the version
    # gate, not the content hash this helper is for.
    start = payload.find('"format_version"')
    start = payload.find(",", start) if start >= 0 else 0
    count = 0
    for i in range(start, limit):
        if payload[i].isdigit():
            if count == where:
                return (payload[:i] + str((int(payload[i]) + 1) % 10)
                        + payload[i + 1:])
            count += 1
    raise AssertionError("no digit found to flip")


def test_recorded_logs_are_stamped(shipped):
    __, session = shipped
    assert is_attested(session.log)
    block = session.log.metadata[ATTESTATION_KEY]
    assert block["algorithm"] == "sha256"
    for field in ("content_sha256", "guest_sha256", "scheduler_sha256",
                  "replay_config_sha256"):
        assert len(block[field]) == 64, field


def test_intact_payload_is_received_and_verifies(shipped):
    payload, __ = shipped
    session = DebugSession.receive(payload)
    assert verify_attestation(session.log, session.case.program) is True
    assert session.replay().reproduced_failure(session.log.failure)


def test_tampered_payload_is_refused_with_structured_error(shipped):
    payload, __ = shipped
    with pytest.raises(LogAttestationError) as excinfo:
        DebugSession.receive(flip_digit(payload))
    exc = excinfo.value
    assert exc.field == "content"
    assert exc.expected != exc.found
    assert len(exc.expected) == 64
    assert "tampered" in str(exc)
    # The attestation error is a LogFormatError: one except clause
    # quarantines both damage classes at the matrix layer.
    assert isinstance(exc, LogFormatError)


def test_truncated_payload_is_refused_as_log_format_error(shipped):
    payload, __ = shipped
    for damaged in (payload[:len(payload) // 2],
                    "[" * 100_000):  # nested past the recursion limit
        with pytest.raises(LogFormatError) as excinfo:
            DebugSession.receive(damaged)
        assert "JSON" in str(excinfo.value)


def test_tampered_file_refusal_names_the_path(shipped, tmp_path):
    payload, __ = shipped
    data = json.loads(flip_digit(payload, where=3))
    path = tmp_path / "tampered.rrlog.json"
    path.write_text(json.dumps(data))
    with pytest.raises(LogAttestationError) as excinfo:
        load_log(str(path))
    assert str(path) in str(excinfo.value)
    assert excinfo.value.path == str(path)


def test_no_verify_downgrades_refusal_to_warning(shipped, tmp_path):
    payload, __ = shipped
    tampered = flip_digit(payload)
    with pytest.warns(UserWarning, match="attestation"):
        session = DebugSession.receive(tampered, verify=False)
    assert session.log is not None
    path = tmp_path / "tampered.rrlog.json"
    path.write_text(tampered)
    with pytest.warns(UserWarning, match="verification disabled"):
        load_log(str(path), verify=False)


def test_replay_refuses_a_mismatched_guest_program(shipped):
    """An intact log replayed against a workload that has since changed
    must be refused - silent divergence is the failure mode attestation
    exists to kill."""
    payload, __ = shipped
    log = log_from_dict(json.loads(payload))
    other = racy_counter.make_case()
    assert guest_fingerprint(other.program) != guest_fingerprint(
        DebugSession.receive(payload).case.program)
    with pytest.raises(LogAttestationError) as excinfo:
        replay_log(other.program, log)
    assert excinfo.value.field == "guest"


def test_receive_with_wrong_explicit_case_is_refused(shipped):
    payload, __ = shipped
    with pytest.raises(LogAttestationError):
        DebugSession.receive(payload, case=racy_counter.make_case())


def test_unattested_logs_still_load_and_replay(shipped, tmp_path):
    """Attestation is evidence when present, not a gate on old logs:
    v1 and hand-built logs carry no block and must work as before."""
    payload, session = shipped
    log = log_from_dict(json.loads(payload))
    log.metadata.pop(ATTESTATION_KEY)
    assert not is_attested(log)
    assert verify_attestation(log, session.case.program) is False  # no error
    path = tmp_path / "unattested.rrlog.json"
    save_log(log, str(path))
    loaded = load_log(str(path))  # verify=True: must not raise
    received = DebugSession.receive(loaded)
    assert received.replay().reproduced_failure(log.failure)


def test_stamp_is_idempotent_and_self_consistent(shipped):
    payload, session = shipped
    log = log_from_dict(json.loads(payload))
    first = dict(log.metadata[ATTESTATION_KEY])
    again = stamp_attestation(log, session.case.program)
    assert again == first, "re-stamping an unchanged log is a no-op"


def test_guest_fingerprint_is_structural_and_deterministic():
    a = generate_case(3)
    # The corpus generator caches by seed, so regenerate via a fresh
    # equality route: same seed -> same structure -> same fingerprint.
    assert guest_fingerprint(a.program) == guest_fingerprint(
        generate_case(3).program)
    assert guest_fingerprint(a.program) != guest_fingerprint(
        generate_case(4).program)
