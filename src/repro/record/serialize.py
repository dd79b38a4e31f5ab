"""Recording-log (de)serialization.

A replay-debugging system ships its logs from production machines to
developer workstations; :func:`log_to_dict` / :func:`log_from_dict`
round-trip a :class:`~repro.record.log.RecordingLog` through plain
JSON-compatible structures so logs can be written to disk, attached to
bug reports, and replayed elsewhere.

Tuples (locations, sync events, selective-order entries) are encoded as
lists and restored on load; failure reports and core dumps are encoded
structurally.  The format is versioned so future log layouts can evolve.

Format version 2 (current)
--------------------------
v2 logs are *self-describing*: ``record_run`` stamps the production
scheduler's identity and :class:`~repro.models.session.DebugSession`
stamps the model name, a case reference, and the replay-relevant config
into ``metadata``, so a shipped log can be replayed by a worker that
never saw the recorder (``repro.models.replay_log`` dispatches from the
log alone).  v2 also canonicalizes metadata encoding: *any* tuple in
the metadata tree round-trips as a tuple via a typed ``$tuple`` tag
(v1 special-cased only ``dialup_sites``, silently decaying every other
tuple to a list).  Version-1 logs still load - their metadata is decoded
with the legacy rule - and replay to identical digests; future versions
are rejected with the found version in the error.

Key-type round trip
-------------------
JSON object keys are always strings, so ``json.dump`` silently turns
integer dict keys into digit strings.  The tid-keyed per-thread log
fields are handled explicitly; core-dump ``final_memory`` (which nests
tid-keyed thread states, while its other keys are guest identifiers -
never canonical integer strings) is normalized recursively by
:func:`_restore_int_keys`.  Without this, a loaded log is not the log
that was saved: ``final_memory["threads"]`` comes back keyed by ``"1"``
instead of ``1``.  Output channels are arbitrary guest string literals,
so channel-keyed dicts are deliberately left untouched.  Metadata dict
keys must be strings (values may nest tuples/lists/dicts freely).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.errors import LogFormatError
from repro.record.log import RecordingLog
from repro.vm.failures import CoreDump, FailureKind, FailureReport

FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

# Keys a payload cannot be decoded without; everything else defaults.
# (A truncated upload usually loses the tail of the object, but a
# hand-edited or re-encoded one can lose anything.)
REQUIRED_KEYS = ("model",)

# Typed tags for metadata values JSON cannot represent directly.  A
# genuine dict whose only key collides with a tag is escaped behind
# _DICT_TAG on encode, so the encoding is canonical (decode ∘ encode is
# the identity on any metadata tree).
_TUPLE_TAG = "$tuple"
_DICT_TAG = "$dict"
_TAGS = (_TUPLE_TAG, _DICT_TAG)


def _encode_failure(failure: Optional[FailureReport]) -> Optional[dict]:
    if failure is None:
        return None
    return {
        "kind": failure.kind.value,
        "location": failure.location,
        "detail": failure.detail,
        "tid": failure.tid,
        "step_index": failure.step_index,
    }


def _restore_int_keys(obj: Any) -> Any:
    """Recursively turn canonical integer-string dict keys back to ints.

    The inverse of JSON's forced key stringification, valid for
    ``final_memory`` because its non-integer keys are guest identifiers
    (see module docstring).
    """
    if isinstance(obj, dict):
        return {_int_key(key): _restore_int_keys(value)
                for key, value in obj.items()}
    if isinstance(obj, list):
        return [_restore_int_keys(value) for value in obj]
    return obj


def _int_key(key: Any) -> Any:
    """Restore a key only when it is exactly what ``str(int)`` emits.

    Anything else ("007", "--1", non-ASCII digits, "1.0") is a genuine
    string key and passes through unchanged - an int key never serializes
    to a non-canonical form, so this is lossless.
    """
    if not (isinstance(key, str) and key and key.isascii()):
        return key
    try:
        value = int(key)
    except ValueError:
        return key
    return value if str(value) == key else key


def _decode_failure(data: Optional[dict]) -> Optional[FailureReport]:
    if data is None:
        return None
    return FailureReport(
        kind=FailureKind(data["kind"]),
        location=data["location"],
        detail=data.get("detail", ""),
        tid=data.get("tid"),
        step_index=data.get("step_index"),
    )


def log_to_dict(log: RecordingLog) -> Dict[str, Any]:
    """Encode a log as JSON-compatible primitives."""
    core = None
    if log.core_dump is not None:
        core = {
            "failure": _encode_failure(log.core_dump.failure),
            "final_memory": log.core_dump.final_memory,
            "outputs": log.core_dump.outputs,
        }
    return {
        "format_version": FORMAT_VERSION,
        "model": log.model,
        "schedule": list(log.schedule),
        "inputs": log.inputs,
        "syscalls": [list(entry) for entry in log.syscalls],
        "thread_reads": {str(tid): values
                         for tid, values in log.thread_reads.items()},
        "thread_inputs": {str(tid): [list(e) for e in entries]
                          for tid, entries in log.thread_inputs.items()},
        "thread_syscalls": {str(tid): [list(e) for e in entries]
                            for tid, entries in log.thread_syscalls.items()},
        "thread_spawns": {str(tid): [list(e) for e in entries]
                          for tid, entries in log.thread_spawns.items()},
        "outputs": log.outputs,
        "thread_paths": {str(tid): list(path)
                         for tid, path in log.thread_paths.items()},
        "sync_order": [list(entry) for entry in log.sync_order],
        "core_dump": core,
        "selective_order": [list(entry) for entry in log.selective_order],
        "selective_inputs": log.selective_inputs,
        "selective_syscalls": [list(entry)
                               for entry in log.selective_syscalls],
        "dialup_windows": [list(entry) for entry in log.dialup_windows],
        "control_plane": list(log.control_plane),
        "failure": _encode_failure(log.failure),
        "native_cycles": log.native_cycles,
        "recording_cycles": log.recording_cycles,
        "total_steps": log.total_steps,
        "recorded_events": log.recorded_events,
        "metadata": _encode_metadata(log.metadata),
    }


def _encode_metadata(metadata: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical v2 metadata encoding: tuples survive anywhere."""
    return {key: _encode_meta_value(value)
            for key, value in metadata.items()}


def _encode_meta_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_meta_value(v) for v in value]}
    if isinstance(value, list):
        return [_encode_meta_value(v) for v in value]
    if isinstance(value, dict):
        encoded = {key: _encode_meta_value(v) for key, v in value.items()}
        if len(encoded) == 1 and next(iter(encoded)) in _TAGS:
            return {_DICT_TAG: encoded}
        return encoded
    return value


def _decode_metadata(metadata: Dict[str, Any],
                     version: int) -> Dict[str, Any]:
    if version == 1:
        # Legacy rule: only dialup_sites was tuple-typed; every other
        # tuple had already decayed to a list when the log was written.
        decoded = dict(metadata)
        if "dialup_sites" in decoded:
            decoded["dialup_sites"] = [tuple(e)
                                       for e in decoded["dialup_sites"]]
        return decoded
    return {key: _decode_meta_value(value)
            for key, value in metadata.items()}


def _decode_meta_value(value: Any) -> Any:
    if isinstance(value, dict):
        if len(value) == 1:
            tag, payload = next(iter(value.items()))
            if tag == _TUPLE_TAG:
                return tuple(_decode_meta_value(v) for v in payload)
            if tag == _DICT_TAG:
                return {key: _decode_meta_value(v)
                        for key, v in payload.items()}
        return {key: _decode_meta_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_decode_meta_value(v) for v in value]
    return value


def log_from_dict(data: Dict[str, Any],
                  source: Optional[str] = None) -> RecordingLog:
    """Decode a log produced by :func:`log_to_dict`.

    ``source`` names where the data came from (a file path) and is
    included in error messages.  Every supported version in
    :data:`SUPPORTED_VERSIONS` loads; anything else raises
    :class:`~repro.errors.LogFormatError` naming the found version.
    """
    origin = f" in {source!r}" if source else ""
    if not isinstance(data, dict):
        raise LogFormatError(
            f"recording log{origin} is not a JSON object "
            f"(found {type(data).__name__})")
    version = data.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise LogFormatError(
            f"unsupported log format version {version!r}{origin} "
            f"(this reader supports versions "
            f"{', '.join(map(str, SUPPORTED_VERSIONS))})")
    missing = [key for key in REQUIRED_KEYS if key not in data]
    if missing:
        raise LogFormatError(
            f"recording log{origin} is missing required "
            f"key(s) {missing} (truncated or hand-edited payload?)")
    try:
        return _decode_log(data, version)
    except LogFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            RecursionError) as exc:
        # A structurally damaged payload (wrong value shapes, bad enum
        # values, values nested past the recursion limit) must never
        # escape as a bare KeyError/TypeError/RecursionError: name the
        # source so a corrupt shipped log is diagnosable.
        raise LogFormatError(
            f"recording log{origin} is malformed: "
            f"{type(exc).__name__}: {exc}") from exc


def _decode_log(data: Dict[str, Any], version: int) -> RecordingLog:
    log = RecordingLog(model=data["model"])
    log.schedule = list(data.get("schedule", []))
    log.inputs = dict(data.get("inputs", {}))
    log.syscalls = [tuple(entry) for entry in data.get("syscalls", [])]
    log.thread_reads = {int(tid): values for tid, values in
                        data.get("thread_reads", {}).items()}
    log.thread_inputs = {int(tid): [tuple(e) for e in entries]
                         for tid, entries in
                         data.get("thread_inputs", {}).items()}
    log.thread_syscalls = {int(tid): [tuple(e) for e in entries]
                           for tid, entries in
                           data.get("thread_syscalls", {}).items()}
    log.thread_spawns = {int(tid): [tuple(e) for e in entries]
                         for tid, entries in
                         data.get("thread_spawns", {}).items()}
    log.outputs = dict(data.get("outputs", {}))
    log.thread_paths = {int(tid): list(path) for tid, path in
                        data.get("thread_paths", {}).items()}
    log.sync_order = [tuple(entry) for entry in data.get("sync_order", [])]
    core = data.get("core_dump")
    if core is not None:
        log.core_dump = CoreDump(
            failure=_decode_failure(core["failure"]),
            final_memory=_restore_int_keys(core.get("final_memory", {})),
            outputs=core.get("outputs", {}),
        )
    log.selective_order = [tuple(entry)
                           for entry in data.get("selective_order", [])]
    log.selective_inputs = dict(data.get("selective_inputs", {}))
    log.selective_syscalls = [tuple(entry) for entry in
                              data.get("selective_syscalls", [])]
    log.dialup_windows = [tuple(entry)
                          for entry in data.get("dialup_windows", [])]
    log.control_plane = tuple(data.get("control_plane", []))
    log.failure = _decode_failure(data.get("failure"))
    log.native_cycles = data.get("native_cycles", 0)
    log.recording_cycles = data.get("recording_cycles", 0)
    log.total_steps = data.get("total_steps", 0)
    log.recorded_events = dict(data.get("recorded_events", {}))
    log.metadata = _decode_metadata(data.get("metadata", {}), version)
    return log


def save_log(log: RecordingLog, path: str) -> None:
    """Write a log to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(log_to_dict(log), handle)


def load_log(path: str, verify: bool = True) -> RecordingLog:
    """Read a log from a JSON file.

    Failure modes - an unreadable path, a truncated or non-JSON file, a
    future format version, a missing required key - all surface as
    :class:`~repro.errors.LogFormatError` naming the path, never as raw
    ``OSError``/``json.JSONDecodeError``/``KeyError``.

    When the log carries an attestation block (every log produced by
    :class:`~repro.models.session.DebugSession` does), its content hash
    is re-verified: a tampered or bit-flipped file, or one that names its
    case but lost its block, raises
    :class:`~repro.errors.LogAttestationError`.  ``verify=False``
    downgrades the refusal to a warning.  Logs with no block that name
    no case (v1, hand built) load as before.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise LogFormatError(
            f"cannot read recording log {path!r}: {exc}") from exc
    # ValueError covers bad UTF-8, bad JSON and an integer literal past
    # the interpreter's digit limit.
    except (ValueError, RecursionError) as exc:
        raise LogFormatError(
            f"recording log {path!r} is not valid JSON "
            f"(truncated or binary upload?): {exc}") from exc
    log = log_from_dict(data, source=path)
    from repro.record.attest import verify_attestation
    verify_attestation(log, strict=verify, source=path)
    return log
