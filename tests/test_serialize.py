"""Recording logs survive a JSON round trip and stay replayable."""

import json
import pathlib

import pytest

from repro.apps import racy_counter
from repro.apps.base import find_failing_seed
from repro.errors import LogFormatError, ReproError
from repro.record import (FailureRecorder, FullRecorder, OutputMode,
                          OutputRecorder, SelectiveRecorder, ValueRecorder,
                          load_log, log_from_dict, log_to_dict, record_run,
                          save_log)
from repro.record.serialize import FORMAT_VERSION
from repro.replay import (DeterministicReplayer, SelectiveReplayer,
                          ValueReplayer)

V1_FIXTURE = pathlib.Path(__file__).parent / "data" / (
    "v1_racy_counter.rrlog.json")
# Pinned when the fixture was generated; a v1 log must keep replaying to
# this exact trace digest forever.
V1_FIXTURE_DIGEST = (
    "e8486c247194774e5011a0d311bc2919bad86cde36875785ff0ca60830023040")


@pytest.fixture(scope="module")
def case():
    return racy_counter.make_case()


@pytest.fixture(scope="module")
def seed(case):
    return find_failing_seed(case)


def record(case, recorder, seed):
    return record_run(case.program, recorder, inputs=case.inputs,
                      seed=seed, scheduler=case.production_scheduler(seed),
                      io_spec=case.io_spec)


def roundtrip(log):
    encoded = json.dumps(log_to_dict(log))  # must be valid JSON
    return log_from_dict(json.loads(encoded))


@pytest.mark.parametrize("recorder_factory", [
    FullRecorder,
    ValueRecorder,
    lambda: OutputRecorder(OutputMode.IO_PATH_SCHED),
    FailureRecorder,
    lambda: SelectiveRecorder(control_plane={"main"}),
])
def test_roundtrip_preserves_summary(case, seed, recorder_factory):
    log = record(case, recorder_factory(), seed)
    restored = roundtrip(log)
    assert restored.model == log.model
    assert restored.overhead_factor == log.overhead_factor
    assert restored.total_steps == log.total_steps
    assert restored.recorded_events == log.recorded_events
    assert (restored.failure is None) == (log.failure is None)
    if log.failure is not None:
        assert restored.failure.same_failure(log.failure)


def test_full_log_replays_after_roundtrip(case, seed):
    log = record(case, FullRecorder(), seed)
    restored = roundtrip(log)
    result = DeterministicReplayer().replay(case.program, restored,
                                            io_spec=case.io_spec)
    assert result.reproduced_failure(log.failure)


def test_value_log_replays_after_roundtrip(case, seed):
    log = record(case, ValueRecorder(), seed)
    restored = roundtrip(log)
    result = ValueReplayer().replay(case.program, restored,
                                    io_spec=case.io_spec)
    assert result.reproduced_failure(log.failure)


def test_selective_log_replays_after_roundtrip(case, seed):
    log = record(case, SelectiveRecorder(control_plane={"main"}), seed)
    restored = roundtrip(log)
    result = SelectiveReplayer(
        base_inputs=case.inputs,
        target_failure=restored.failure).replay(case.program, restored,
                                                io_spec=case.io_spec)
    assert result.reproduced_failure(log.failure)


def test_core_dump_survives_roundtrip(case, seed):
    log = record(case, FailureRecorder(), seed)
    restored = roundtrip(log)
    assert restored.core_dump is not None
    assert restored.core_dump.failure.same_failure(log.core_dump.failure)
    assert restored.core_dump.final_memory == log.core_dump.final_memory


def test_core_dump_thread_keys_stay_integers(case, seed):
    """JSON stringifies int dict keys; decode must restore them.

    The core dump's per-thread exit states are keyed by tid.  Before the
    decode-side key normalization, a loaded log was not the log that was
    saved: ``final_memory["threads"]`` came back keyed by ``"1"``
    instead of ``1``.
    """
    log = record(case, FailureRecorder(), seed)
    threads = log.core_dump.final_memory["threads"]
    assert threads and all(isinstance(tid, int) for tid in threads)
    restored = roundtrip(log)
    assert restored.core_dump.final_memory == log.core_dump.final_memory
    assert all(isinstance(tid, int)
               for tid in restored.core_dump.final_memory["threads"])


def test_key_restoration_only_touches_canonical_int_strings():
    """Guest-chosen string keys must never be coerced (or crash decode).

    Channels are arbitrary string literals, so only keys that are
    exactly ``str(int)`` output are restored - "007", "--1", "1.0" and
    non-ASCII digits pass through untouched.
    """
    from repro.record.log import RecordingLog
    from repro.vm.failures import CoreDump, FailureKind, FailureReport

    log = RecordingLog(model="failure")
    log.failure = FailureReport(FailureKind.ASSERTION, "main@1", "x")
    log.core_dump = CoreDump(
        failure=log.failure,
        final_memory={"globals": {"--1": 1, "007": 2, "²": 3},
                      "threads": {0: {"site": None}, -3: {"site": None}}},
        outputs={"123": [1], "--1": [2]})
    restored = roundtrip(log)
    assert restored.core_dump.final_memory == log.core_dump.final_memory
    assert restored.core_dump.outputs == log.core_dump.outputs


def test_loaded_log_replays_to_identical_digest(case, seed, tmp_path):
    """load_log(save_log(x)) drives a byte-identical replay."""
    log = record(case, FullRecorder(), seed)
    path = tmp_path / "shipped.rrlog.json"
    save_log(log, str(path))
    loaded = load_log(str(path))
    original = DeterministicReplayer().replay(case.program, log,
                                              io_spec=case.io_spec)
    shipped = DeterministicReplayer().replay(case.program, loaded,
                                             io_spec=case.io_spec)
    assert original.trace.fingerprint() == shipped.trace.fingerprint()
    assert shipped.reproduced_failure(log.failure)


def test_save_and_load_file(case, seed, tmp_path):
    log = record(case, FullRecorder(), seed)
    path = tmp_path / "run.rrlog.json"
    save_log(log, str(path))
    restored = load_log(str(path))
    assert restored.schedule == log.schedule
    assert restored.sync_order == log.sync_order


def test_metadata_tuples_survive_anywhere(case, seed):
    """v2 canonicalizes metadata: tuples round-trip in any position.

    v1 special-cased only ``dialup_sites``; any other tuple-valued
    metadata silently decayed to a list.
    """
    log = record(case, FullRecorder(), seed)
    log.metadata["plain_tuple"] = (1, 2, 3)
    log.metadata["nested"] = {"sites": [("main", 4), ("worker", 9)],
                              "pair": ((1, 2), [3, (4,)])}
    log.metadata["dialup_sites"] = [(1, "main@3"), (2, "worker@7")]
    # Reserved tag collisions must be escaped, not corrupted.
    log.metadata["tricky"] = {"$tuple": [1, 2], "$dict": {"x": (1,)}}
    restored = roundtrip(log)
    assert restored.metadata == log.metadata
    assert restored.metadata["plain_tuple"] == (1, 2, 3)
    assert restored.metadata["nested"]["pair"] == ((1, 2), [3, (4,)])
    assert isinstance(restored.metadata["dialup_sites"][0], tuple)


def test_v1_fixture_loads_and_replays_to_pinned_digest(case):
    """The compatibility guarantee, on a committed v1-format file."""
    log = load_log(str(V1_FIXTURE))
    assert json.loads(V1_FIXTURE.read_text())["format_version"] == 1
    assert log.model == "full"
    replay = DeterministicReplayer().replay(case.program, log,
                                            io_spec=case.io_spec)
    assert replay.trace.fingerprint() == V1_FIXTURE_DIGEST
    assert replay.failure is not None


def test_v1_dict_loads_with_legacy_metadata_rule(case, seed):
    """A v1 payload decodes: dialup_sites tuples restored, rest as-is."""
    log = record(case, SelectiveRecorder(control_plane={"main"}), seed)
    data = json.loads(json.dumps(log_to_dict(log)))
    data["format_version"] = 1
    # v1 encoders wrote metadata as raw JSON (tuples already decayed).
    data["metadata"] = json.loads(json.dumps(
        {"seed": seed, "dialup_sites": [[1, "main@3"]]}))
    restored = log_from_dict(data)
    assert restored.metadata["dialup_sites"] == [(1, "main@3")]
    assert restored.selective_order == log.selective_order


def test_future_format_version_rejected_with_version_in_message():
    future = FORMAT_VERSION + 7
    with pytest.raises(ReproError) as excinfo:
        log_from_dict({"format_version": future, "model": "full"})
    assert str(future) in str(excinfo.value)
    assert str(FORMAT_VERSION) in str(excinfo.value), \
        "error names what this reader supports"


def test_future_version_file_error_names_the_path(tmp_path, case, seed):
    log = record(case, FullRecorder(), seed)
    data = log_to_dict(log)
    data["format_version"] = 99
    path = tmp_path / "future.rrlog.json"
    path.write_text(json.dumps(data))
    with pytest.raises(LogFormatError) as excinfo:
        load_log(str(path))
    assert str(path) in str(excinfo.value)
    assert "99" in str(excinfo.value)


def test_corrupt_file_wrapped_in_repro_error(tmp_path):
    path = tmp_path / "corrupt.rrlog.json"
    for text in ('{"format_version": 2, "model": "fu',  # truncated
                 "[" * 100_000):  # nested past the recursion limit
        path.write_text(text)
        with pytest.raises(LogFormatError) as excinfo:
            load_log(str(path))
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)


def test_binary_file_wrapped_in_repro_error(tmp_path):
    path = tmp_path / "binary.rrlog.json"
    path.write_bytes(b"\xff\xfe not a log")
    with pytest.raises(LogFormatError) as excinfo:
        load_log(str(path))
    assert str(path) in str(excinfo.value)


def test_missing_file_wrapped_in_repro_error(tmp_path):
    path = tmp_path / "nope.rrlog.json"
    with pytest.raises(LogFormatError) as excinfo:
        load_log(str(path))
    assert str(path) in str(excinfo.value)


def test_non_object_payload_rejected():
    with pytest.raises(LogFormatError):
        log_from_dict(["not", "a", "log"])


def test_missing_required_keys_rejected_not_keyerror():
    """A syntactically-valid JSON object that is not a log must be
    refused with a structured error, never a bare KeyError."""
    with pytest.raises(LogFormatError) as excinfo:
        log_from_dict({"format_version": FORMAT_VERSION})
    assert "model" in str(excinfo.value)


def test_missing_required_keys_file_error_names_the_path(tmp_path):
    path = tmp_path / "empty.rrlog.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION}))
    with pytest.raises(LogFormatError) as excinfo:
        load_log(str(path))
    assert str(path) in str(excinfo.value)


def test_malformed_value_shapes_wrapped_in_log_format_error(
        case, seed, tmp_path):
    """Structurally damaged payloads (wrong value types inside a decoded
    section, values nested past the recursion limit) surface as
    LogFormatError naming the source, never as the bare
    TypeError/KeyError/RecursionError the decoder tripped over."""
    log = record(case, FullRecorder(), seed)
    deep = []
    for __ in range(600):  # json.dumps writes it; decoding recursed out
        deep = [deep]
    for key, value in (("thread_reads", "not a mapping"),
                       ("metadata", {"deep": deep})):
        data = json.loads(json.dumps(log_to_dict(log)))
        data[key] = value
        path = tmp_path / "mangled.rrlog.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LogFormatError) as excinfo:
            load_log(str(path))
        assert str(path) in str(excinfo.value)
        assert "malformed" in str(excinfo.value)
