"""Recording-log attestation: tamper-evident, environment-matched logs.

A fleet ships recording logs to developer workstations over links and
storage that corrupt, truncate, and go stale.  Replaying a damaged log -
or an intact log against a guest whose source has since changed - does
not fail loudly; it *silently diverges*, which is the worst possible
failure mode for a tool whose entire claim is faithful reproduction.

``stamp_attestation`` therefore seals every v2 log with SHA-256 hashes
of the things a replay must agree with:

``content_sha256``        the canonical JSON encoding of the whole log
                          body (everything except the attestation block
                          itself) - catches truncation and bit flips.
``guest_sha256``          a structural fingerprint of the guest program
                          (functions, instructions, globals, arrays,
                          mutexes, entry) - catches replaying a log
                          against a workload that has since changed.
``scheduler_sha256``      the production scheduler identity stamped by
                          ``record_run`` - catches replaying under a
                          different scheduling regime.
``replay_config_sha256``  the shipped replay config - catches knob
                          drift between recorder and replayer.

``verify_attestation`` recomputes each hash the verifier has the
material for and raises a structured
:class:`~repro.errors.LogAttestationError` on the first mismatch (or
warns, when the caller opted out of strict verification).  Logs that
carry no attestation block (v1 logs, hand-built logs) verify trivially -
attestation is evidence when present, not a gate on old artifacts.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import LogAttestationError
# Attestation, the run store, and divergence fingerprints must hash
# through one implementation (stamps are byte-compatible by test);
# re-exported here for the existing import path.
from repro.util.hashing import canonical_json, sha256_hex  # noqa: F401

ATTESTATION_KEY = "attestation"
ATTESTATION_ALGORITHM = "sha256"


def guest_fingerprint(program) -> str:
    """SHA-256 of a program's structure (not its concrete source text).

    Computed from the validated program object - entry, declarations,
    and every function's instruction list - so the recording and
    replaying sides agree even when one holds source text and the other
    only the compiled program.  Two differently-formatted sources that
    compile to the same program intentionally share a fingerprint.

    Hashed once per program object and kept on it
    (``Program.fingerprint_cache``), so a received log's two attestation
    checks hash no guest after the first.
    """
    cached = program.fingerprint_cache
    if cached is not None:
        return cached
    dump: List[Any] = [
        "minivm-program",
        program.entry,
        sorted(program.globals.items()),
        sorted(program.arrays.items()),
        sorted(program.mutexes),
    ]
    for name in sorted(program.functions):
        fn = program.functions[name]
        dump.append([name, list(fn.params), [repr(i) for i in fn.body]])
    program.fingerprint_cache = sha256_hex(canonical_json(dump))
    return program.fingerprint_cache


def content_fingerprint(log) -> str:
    """SHA-256 of the log's canonical encoding, minus the attestation."""
    from repro.record.serialize import log_to_dict  # avoid import cycle
    data = log_to_dict(log)
    metadata = dict(data.get("metadata") or {})
    metadata.pop(ATTESTATION_KEY, None)
    data["metadata"] = metadata
    return sha256_hex(canonical_json(data))


def stamp_attestation(log, program=None) -> Dict[str, str]:
    """Seal ``log`` with its attestation block; returns the block.

    Must be the *last* metadata write before the log ships - the content
    hash covers every other field, so stamping earlier would invalidate
    it.  ``program`` is the guest the run executed (omitted only by
    callers that genuinely have no program object).
    """
    block: Dict[str, str] = {"algorithm": ATTESTATION_ALGORITHM}
    if program is not None:
        block["guest_sha256"] = guest_fingerprint(program)
    scheduler = log.metadata.get("scheduler")
    if scheduler is not None:
        block["scheduler_sha256"] = sha256_hex(canonical_json(scheduler))
    config = log.metadata.get("replay_config")
    if config is not None:
        block["replay_config_sha256"] = sha256_hex(canonical_json(config))
    log.metadata.pop(ATTESTATION_KEY, None)
    block["content_sha256"] = content_fingerprint(log)
    log.metadata[ATTESTATION_KEY] = block
    return block


def _checks(log, program) -> List[Tuple[str, str, str]]:
    """(field, expected, found) for every hash the verifier can recompute."""
    block = log.metadata.get(ATTESTATION_KEY) or {}
    checks: List[Tuple[str, str, str]] = []
    if "content_sha256" in block:
        checks.append(("content", block["content_sha256"],
                       content_fingerprint(log)))
    if program is not None and "guest_sha256" in block:
        checks.append(("guest", block["guest_sha256"],
                       guest_fingerprint(program)))
    scheduler = log.metadata.get("scheduler")
    if scheduler is not None and "scheduler_sha256" in block:
        checks.append(("scheduler", block["scheduler_sha256"],
                       sha256_hex(canonical_json(scheduler))))
    config = log.metadata.get("replay_config")
    if config is not None and "replay_config_sha256" in block:
        checks.append(("replay_config", block["replay_config_sha256"],
                       sha256_hex(canonical_json(config))))
    return checks


def verify_attestation(log, program=None, strict: bool = True,
                       source: Optional[str] = None) -> bool:
    """Check every attested hash the verifier has the material for.

    Returns ``True`` when the log carries an attestation block and every
    recomputed hash matches, ``False`` when the log is unattested.  On a
    mismatch: raises :class:`~repro.errors.LogAttestationError` naming
    the field (and ``source``, a path or payload description, when
    given); with ``strict=False`` the refusal is downgraded to a
    :class:`UserWarning` - the explicit "I know, replay it anyway"
    escape hatch (``--no-verify`` on the CLI).
    """
    if ATTESTATION_KEY not in (log.metadata or {}):
        return False
    for field, expected, found in _checks(log, program):
        if expected == found:
            continue
        origin = f" in {source!r}" if source else ""
        message = (
            f"recording log{origin} failed {field} attestation: "
            f"stamped {ATTESTATION_ALGORITHM}:{expected[:12]}… but "
            f"recomputed {ATTESTATION_ALGORITHM}:{found[:12]}… - the "
            f"log was tampered with in transit, or the "
            f"{'guest/workload' if field == 'guest' else 'recording'} "
            f"no longer matches what was recorded")
        if strict:
            raise LogAttestationError(message, field=field,
                                      expected=expected, found=found,
                                      path=source or "")
        warnings.warn(f"{message} (verification disabled - replay may "
                      f"silently diverge)", stacklevel=2)
        return False
    return True


def is_attested(log) -> bool:
    """Whether ``log`` carries an attestation block at all."""
    return ATTESTATION_KEY in (log.metadata or {})
