"""The end-to-end debugging pipeline: record → ship → replay → score.

:class:`DebugSession` is the one canonical flow through the system -
what a replay-debugging deployment actually does:

1. ``record()`` runs the failing production run under the session
   model's recorder and stamps the log with its self-describing
   identity: model name, scheduler identity, case reference, and the
   JSON-able replay config.
2. ``ship()`` round-trips the log through the JSON serializer - the log
   the session holds afterwards *is* the decoded copy, exactly as a
   developer workstation would receive it.
3. ``replay()`` dispatches through the model registry
   (:func:`~repro.models.base.replay_log`) - the replayer is chosen from
   the log, not from caller knowledge.
4. ``score()`` computes the paper's debugging metrics (DF, DE, DU)
   against a known ground-truth cause, or re-diagnoses the original run
   when no truth is supplied.

``DebugSession.receive`` is the workstation half on its own: given a
shipped JSON payload (and optionally the case - otherwise resolved from
the log's embedded case reference), it reconstructs a session that can
replay and score having never seen the recorder.
"""

from __future__ import annotations

import json
import weakref
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.analysis.rootcause import (Diagnoser, RootCause,
                                      enumerate_root_causes)
from repro.errors import (LogFormatError, RecordingFailedError, ReproError)
from repro.metrics import DebuggingMetrics, evaluate_replay
from repro.models.base import (DeterminismModel, ModelConfig, get_model,
                               replay_log)
from repro.record import log_from_dict, log_to_dict, record_run
from repro.record.attest import (guest_fingerprint, stamp_attestation,
                                 verify_attestation)
from repro.record.log import RecordingLog
from repro.replay.base import ReplayResult
from repro.replay.diff import DivergenceReport, diff_log_replay
from repro.replay.search import ExecutionSearch, SearchBudget

# Sentinel distinguishing "re-diagnose the original run" from an
# explicitly supplied cause of None ("the original was undiagnosable" -
# a defined degenerate case of debugging fidelity).
REDIAGNOSE = object()


# -- case references ----------------------------------------------------------
#
# Input spaces, I/O specs, and diagnosis rules hold arbitrary callables,
# so a shipped log cannot carry them by value.  It carries a *case
# reference* instead: enough identity for any worker to reconstruct the
# case deterministically - a corpus seed regenerates byte-identically,
# and the hand-written apps are a fixed registry.


def case_ref(case) -> Dict[str, Any]:
    """The JSON-able identity of a case (embedded in shipped logs)."""
    corpus_seed = getattr(case, "corpus_seed", None)
    if corpus_seed is not None:
        return {"kind": "corpus", "seed": corpus_seed, "name": case.name}
    from repro.apps import ALL_APPS
    if case.name in ALL_APPS:
        return {"kind": "app", "name": case.name}
    return {"kind": "custom", "name": case.name}


def resolve_case(ref):
    """Reconstruct a case from a reference (dict or ``kind:key`` string).

    Accepts the dict form produced by :func:`case_ref`, the CLI string
    forms ``corpus:<seed>`` and ``app:<name>``, or a bare app name.  A
    malformed reference raises :class:`~repro.errors.ReproError`: one
    that is neither a dict nor a string, a corpus reference without an
    integer seed (floats and bools are refused, not truncated), or an
    app reference whose name is not a registry app.

    Each call rebuilds the case (a corpus seed from ``generate_case``'s
    per-seed cache, an app from its registry factory) and records the
    content of the object it returns - the normalised reference and the
    guest program's fingerprint - which is what
    :func:`count_root_causes` keys that case's ``n`` by.  Treat a
    resolved case as immutable, like ``generate_case``'s cached cases:
    derive a variant with ``dataclasses.replace``, which does not carry
    the record, never by assigning to a field.
    """
    kind, key = _normalise_ref(ref)
    if kind == "corpus":
        from repro.corpus.generator import generate_case
        case = generate_case(key)
    else:
        from repro.apps import ALL_APPS
        case = ALL_APPS[key]()
    _RESOLVED_CONTENT[case] = (kind, key, guest_fingerprint(case.program))
    return case


def _normalise_ref(ref) -> Tuple[str, Any]:
    """``("corpus", seed)`` or ``("app", name)`` for a case reference."""
    if isinstance(ref, str):
        if ref.startswith("corpus:"):
            ref = {"kind": "corpus", "seed": ref.split(":", 1)[1]}
        elif ref.startswith("app:"):
            ref = {"kind": "app", "name": ref.split(":", 1)[1]}
        else:
            ref = {"kind": "app", "name": ref}
    if not isinstance(ref, dict):
        raise ReproError(f"a case reference is a dict or a string, "
                         f"got {ref!r}")
    kind = ref.get("kind")
    if kind == "corpus":
        seed = ref.get("seed")
        if isinstance(seed, str):  # the CLI form ``corpus:<seed>``
            try:
                seed = int(seed)
            except ValueError:
                pass
        if type(seed) is not int:  # refuses floats and bools
            raise ReproError(
                f"corpus case reference needs an integer seed, "
                f"got {ref.get('seed')!r}")
        return kind, seed
    if kind == "app":
        from repro.apps import ALL_APPS
        name = ref.get("name")
        if not isinstance(name, str) or name not in ALL_APPS:
            raise ReproError(
                f"unknown app case {name!r}; see `python -m repro apps`")
        return kind, name
    raise ReproError(f"cannot resolve case reference {ref!r}; a custom "
                     f"case must be supplied by the caller")


# -- cause counting -----------------------------------------------------------
#
# ``n`` is memoized by what an enumeration reads: the case's program and
# input space, the network and scheduler knobs (a session's config, which
# a received log ships), the failure, and the attempt budget.  A case
# :func:`resolve_case` rebuilt is keyed by its content - the normalised
# reference plus the guest program's fingerprint - so every session that
# rebuilds one app or corpus seed in a process shares one enumeration.
# Any other case is keyed by the case object itself, held weakly: a
# hand-built variant can share a name *and* a program with a registry
# app yet differ in a knob (msg_server's ``net_drop_rate``), so neither
# its name nor its program identifies its execution space.  Never key by
# name alone - generated corpus cases freely share names across seeds.
# ``_RESOLVED_CONTENT`` holds the content of each case object
# ``resolve_case`` returned, weakly, so a ``dataclasses.replace`` copy
# (a new object) is never mistaken for the case it was derived from.
_RESOLVED_CONTENT: "weakref.WeakKeyDictionary[Any, Tuple]" = (
    weakref.WeakKeyDictionary())
_CAUSE_COUNTS_BY_CONTENT: Dict[Tuple, int] = {}
_CAUSE_COUNTS_BY_CASE: ("weakref.WeakKeyDictionary"
                        "[Any, Dict[Tuple, int]]") = (
    weakref.WeakKeyDictionary())
# A session that pins no seed searches for the case's first failing one.
# The search reads the case's program, inputs and knobs, so it is
# memoized by the case object, held weakly, and by the seeds searched
# plus the knobs: the sessions of one case under every model share one
# search, and a ``dataclasses.replace`` variant searches again.
_FAILING_SEEDS_BY_CASE: ("weakref.WeakKeyDictionary"
                         "[Any, Dict[Tuple, Optional[int]]]") = (
    weakref.WeakKeyDictionary())


def clear_cause_counts() -> None:
    """Forget every memoized ``n``, on both keys, and every memoized
    failing seed."""
    _CAUSE_COUNTS_BY_CONTENT.clear()
    _CAUSE_COUNTS_BY_CASE.clear()
    _FAILING_SEEDS_BY_CASE.clear()


def _failing_seed(case, seeds: Iterable[int]) -> Optional[int]:
    """``find_failing_seed(case, seeds)``, memoized (see above); an
    iterator passed as ``seeds`` is consumed once."""
    from repro.apps.base import find_failing_seed
    seeds = tuple(seeds)
    key = (seeds, case.net_drop_rate, case.switch_prob)
    found = _FAILING_SEEDS_BY_CASE.setdefault(case, {})
    if key not in found:
        found[key] = find_failing_seed(case, seeds)
    return found[key]


def cause_search(case, config: Optional[ModelConfig] = None
                 ) -> ExecutionSearch:
    """The execution space :func:`count_root_causes` enumerates: the
    case's input space under 24 production-scheduler seeds, with the
    ``net_drop_rate`` and ``switch_prob`` of ``config`` (the case's own
    when omitted)."""
    knobs = case if config is None else config
    return ExecutionSearch(
        case.program, case.input_space, schedule_seeds=range(24),
        io_spec=case.io_spec, net_drop_rate=knobs.net_drop_rate,
        switch_prob=knobs.switch_prob)


def count_root_causes(case, failure, max_attempts: int = 120,
                      config: Optional[ModelConfig] = None) -> int:
    """The paper's ``n``: distinct root causes reachable for a failure,
    enumerated on ``config``'s knobs (see :func:`cause_search`)."""
    knobs = case if config is None else config
    key = (failure.signature(), max_attempts, knobs.net_drop_rate,
           knobs.switch_prob)
    content = _RESOLVED_CONTENT.get(case)
    if content is None:
        counts = _CAUSE_COUNTS_BY_CASE.setdefault(case, {})
    else:
        counts = _CAUSE_COUNTS_BY_CONTENT
        key = content + key
    if key not in counts:
        causes = enumerate_root_causes(
            cause_search(case, config), failure,
            diagnoser=Diagnoser(extra_rules=case.diagnoser_rules),
            budget=SearchBudget(max_attempts=max_attempts))
        counts[key] = max(len(causes), 1)
    return counts[key]


# -- the session --------------------------------------------------------------


class DebugSession:
    """One record→ship→replay→score pipeline for (case, model)."""

    def __init__(self, case, model, seed: Optional[int] = None,
                 config: Optional[ModelConfig] = None,
                 **config_overrides: Any):
        self.case = case
        self.model: DeterminismModel = get_model(model)
        if config is None:
            config = ModelConfig.from_case(case, **config_overrides)
        elif config_overrides:
            config = config.override(**config_overrides)
        self.config = config
        self.seed = seed
        self.verify = True  # refuse tampered logs at replay
        self.log: Optional[RecordingLog] = None
        self.replay_result: Optional[ReplayResult] = None

    # -- production side ----------------------------------------------------

    def record(self, seeds: Iterable[int] = range(200)) -> RecordingLog:
        """Record the failing production run under the session's model.

        Finds a failing scheduler seed when none was pinned at
        construction - once per case, seeds and knobs in a process (see
        :func:`clear_cause_counts`) - and stamps the log with its
        self-describing identity (model, scheduler, case reference,
        replay config).
        """
        if self.seed is None:
            self.seed = _failing_seed(self.case, seeds)
            if self.seed is None:
                raise RecordingFailedError(
                    f"{self.case.name}: no failing seed found")
        recorder = self.model.make_recorder(self.config)
        log = record_run(
            self.case.program, recorder,
            inputs={k: list(v) for k, v in self.config.inputs.items()},
            seed=self.seed,
            scheduler=self.case.production_scheduler(self.seed),
            io_spec=self.config.io_spec,
            net_drop_rate=self.config.net_drop_rate)
        if log.failure is None:
            raise RecordingFailedError(
                f"{self.case.name}: seed {self.seed} did not fail under "
                f"{self.model.name} recording")
        self._stamp(log)
        self.log = log
        self.replay_result = None
        return log

    def _stamp(self, log: RecordingLog) -> None:
        """Make the log self-describing (the v2 identity fields), then
        seal it: the attestation block hashes the guest program, the
        scheduler identity, the replay config, and the whole log body,
        and must therefore be the last metadata write."""
        log.metadata["determinism_model"] = self.model.name
        log.metadata["case"] = case_ref(self.case)
        log.metadata["replay_config"] = self.config.ship_dict(
            include_inputs=self.model.ships_base_inputs)
        stamp_attestation(log, self.case.program)

    def ship(self) -> str:
        """Round-trip the log through JSON; hold the received copy.

        Returns the payload string exactly as it would cross a process
        or machine boundary; the session's own log is replaced by the
        decoded copy so every later step runs on what a workstation
        would actually have.
        """
        if self.log is None:
            raise ReproError("nothing to ship: record() first")
        payload = json.dumps(log_to_dict(self.log))
        self.log = log_from_dict(json.loads(payload))
        return payload

    # -- workstation side ---------------------------------------------------

    @classmethod
    def receive(cls, payload, case=None,
                verify: bool = True) -> "DebugSession":
        """Build the workstation half from a shipped payload.

        ``payload`` is the JSON string (or an already-decoded
        :class:`RecordingLog`).  Without an explicit ``case``, the log's
        embedded case reference is resolved - the remote-matrix-worker
        path, where the receiver never saw the recorder.

        The payload is *refused* when it is damaged or stale: truncated
        or non-JSON strings, and case references :func:`resolve_case`
        refuses, raise :class:`~repro.errors.LogFormatError`, and an
        attested log whose recomputed hashes disagree with its stamp - a
        tampered body, or a guest program that no longer matches the
        recording - raises :class:`~repro.errors.LogAttestationError`
        rather than silently diverging at replay.  ``verify=False``
        downgrades attestation failures (only) to warnings.
        """
        if isinstance(payload, RecordingLog):
            log = payload
        else:
            try:
                data = json.loads(payload)
            except (json.JSONDecodeError, UnicodeDecodeError,
                    TypeError, RecursionError) as exc:
                raise LogFormatError(
                    f"shipped payload is not valid JSON (truncated "
                    f"upload?): {exc}") from exc
            log = log_from_dict(data, source="shipped payload")
        if case is None:
            ref = log.metadata.get("case")
            if ref is None:
                raise ReproError(
                    "log carries no case reference; pass the case "
                    "explicitly")
            try:
                case = resolve_case(ref)
            except ReproError as exc:
                # Resolved before the attestation check, which needs the
                # case's program: a damaged reference is a damaged
                # payload, refused as one.
                raise LogFormatError(
                    f"shipped payload's JSON case reference does not "
                    f"resolve: {exc}") from exc
        verify_attestation(log, case.program, strict=verify,
                           source="shipped payload")
        session = cls(case, log.model, seed=log.metadata.get("seed"),
                      config=ModelConfig.from_shipped(log, case=case))
        session.verify = verify  # replay honors the receive-time choice
        session.log = log
        return session

    def attach(self, log: RecordingLog) -> "DebugSession":
        """Adopt an existing in-process log (the shim/compat path)."""
        self.log = log
        self.replay_result = None
        if self.seed is None:
            self.seed = log.metadata.get("seed")
        return self

    def replay(self) -> ReplayResult:
        """Replay the held log via registry dispatch on ``log.model``."""
        if self.log is None:
            raise ReproError("nothing to replay: record() or receive() "
                             "first")
        self.replay_result = replay_log(self.case.program, self.log,
                                        config=self.config,
                                        verify=self.verify)
        return self.replay_result

    def diff(self) -> "DivergenceReport":
        """Where the replay first diverged from the recording (if at all).

        Runs the replay when none is held, then walks the log's
        recorded observables against it under the model's
        ``replay_matches`` contract
        (:func:`repro.replay.diff.diff_log_replay`) - the structured
        answer that replaced the old boolean digest check: a
        ``MATCHED`` report, or the first :class:`DivergencePoint` with
        its step index, site, thread, field diffs, and stable
        fingerprint.
        """
        if self.replay_result is None:
            self.replay()
        return diff_log_replay(self.log, self.replay_result)

    def score(self, original_cause=REDIAGNOSE,
              cause_count_attempts: int = 120) -> DebuggingMetrics:
        """Score the replay: DF, DE, DU against the original run.

        ``original_cause`` is the ground truth to score against
        (generated corpus cases carry their planted defect); when left
        at the default the original run is re-executed and re-diagnosed,
        which is sound because recording does not perturb execution
        (observers are passive).  Passing ``None`` explicitly means "the
        original was undiagnosable", a defined degenerate case.
        """
        if self.replay_result is None:
            self.replay()
        if original_cause is REDIAGNOSE:
            original_cause = self._rediagnose()
        # ``n`` is enumerated on the knobs the replay ran on: a received
        # log's shipped config, not the rebuilt case's defaults.
        n_causes = count_root_causes(self.case, self.log.failure,
                                     max_attempts=cause_count_attempts,
                                     config=self.config)
        return evaluate_replay(
            model=self.model.name,
            overhead=self.log.overhead_factor,
            original_failure=self.log.failure,
            original_cause=original_cause,
            original_cycles=self.log.native_cycles,
            replay=self.replay_result,
            n_causes=n_causes,
            diagnoser=Diagnoser(extra_rules=self.config.diagnoser_rules),
        )

    def _rediagnose(self) -> Optional[RootCause]:
        """Diagnose the original run (recorded runs are unperturbed)."""
        if self.seed is None:
            raise ReproError(
                "cannot re-diagnose the original run without its seed; "
                "pass original_cause explicitly")
        original = self.case.run(self.seed)
        return Diagnoser(
            extra_rules=self.config.diagnoser_rules).diagnose(
                original.trace, original.failure)
