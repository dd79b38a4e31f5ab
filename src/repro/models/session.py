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
from repro.record.attest import stamp_attestation, verify_attestation
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
    forms ``corpus:<seed>`` and ``app:<name>``, or a bare app name.
    """
    if isinstance(ref, str):
        if ref.startswith("corpus:"):
            ref = {"kind": "corpus", "seed": ref.split(":", 1)[1]}
        elif ref.startswith("app:"):
            ref = {"kind": "app", "name": ref.split(":", 1)[1]}
        else:
            ref = {"kind": "app", "name": ref}
    kind = ref.get("kind")
    if kind == "corpus":
        from repro.corpus.generator import generate_case
        try:
            seed = int(ref["seed"])
        except (ValueError, TypeError) as exc:
            raise ReproError(
                f"corpus case reference needs an integer seed, "
                f"got {ref.get('seed')!r}") from exc
        return generate_case(seed)
    if kind == "app":
        from repro.apps import ALL_APPS
        name = ref.get("name")
        if name not in ALL_APPS:
            raise ReproError(
                f"unknown app case {name!r}; see `python -m repro apps`")
        return ALL_APPS[name]()
    raise ReproError(f"cannot resolve case reference {ref!r}; a custom "
                     f"case must be supplied by the caller")


# -- cause counting -----------------------------------------------------------
#
# Memoized by *program identity* - never by case name.  Generated corpus
# cases are legion and freely share names across seeds; a name-keyed
# cache would let one case poison another's ``n``.  The outer
# WeakKeyDictionary drops a program's entries when the program itself is
# collected, so a long corpus sweep does not accumulate counts for dead
# cases.
_CAUSE_COUNT_CACHE: ("weakref.WeakKeyDictionary"
                     "[object, Dict[Tuple, int]]") = (
    weakref.WeakKeyDictionary())


def cause_search(case) -> ExecutionSearch:
    """The execution space :func:`count_root_causes` enumerates: the
    case's input space under 24 production-scheduler seeds."""
    return ExecutionSearch(
        case.program, case.input_space, schedule_seeds=range(24),
        io_spec=case.io_spec, net_drop_rate=case.net_drop_rate,
        switch_prob=case.switch_prob)


def count_root_causes(case, failure, max_attempts: int = 120) -> int:
    """The paper's ``n``: distinct root causes reachable for a failure."""
    per_program = _CAUSE_COUNT_CACHE.get(case.program)
    if per_program is None:
        per_program = {}
        _CAUSE_COUNT_CACHE[case.program] = per_program
    key = (failure.signature(), max_attempts)
    if key in per_program:
        return per_program[key]
    causes = enumerate_root_causes(
        cause_search(case), failure,
        diagnoser=Diagnoser(extra_rules=case.diagnoser_rules),
        budget=SearchBudget(max_attempts=max_attempts))
    count = max(len(causes), 1)
    per_program[key] = count
    return count


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
        construction, and stamps the log with its self-describing
        identity (model, scheduler, case reference, replay config).
        """
        from repro.apps.base import find_failing_seed
        if self.seed is None:
            self.seed = find_failing_seed(self.case, seeds)
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
        or non-JSON strings raise
        :class:`~repro.errors.LogFormatError`, and an attested log whose
        recomputed hashes disagree with its stamp - a tampered body, or
        a guest program that no longer matches the recording - raises
        :class:`~repro.errors.LogAttestationError` rather than silently
        diverging at replay.  ``verify=False`` downgrades attestation
        failures to warnings.
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
            case = resolve_case(ref)
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
        n_causes = count_root_causes(self.case, self.log.failure,
                                     max_attempts=cause_count_attempts)
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
