"""The (generated case x determinism model) experiment matrix.

``run_matrix`` evaluates every cell of a corpus sweep in parallel worker
processes, in two phases that mirror how replay debugging is deployed:

1. **Record** (the "production fleet"): each worker regenerates its
   case from the corpus seed, runs the known-failing production run under
   every determinism model's recorder, and returns the recordings as
   JSON strings produced by :mod:`repro.record.serialize` - the logs
   cross the process boundary exactly as production logs ship to
   developer workstations.
2. **Replay** (the "developer workstations"): workers receive the
   serialized logs, decode and *attestation-verify* them with the same
   serializer, replay each one with its model's replayer, and score
   debugging fidelity against the case's *ground-truth* root cause (no
   per-cell re-diagnosis of the original run).

The fleet is supervised (:mod:`repro.corpus.fleet`): cells have
wall-clock timeouts, crashed or hung workers are detected and replaced,
struck cells are retried with deterministic backoff, and a cell that
exhausts its budget is *reported* in the artifact's ``fleet`` section
(status ``failed``/``timeout``/``quarantined``) instead of killing the
sweep.  A payload that arrives damaged - truncated, bit-flipped, or
stale against its case - is refused by the attestation layer and
quarantined.  On the all-healthy path the ``matrix``/``summary``
sections are byte-identical to an unsupervised run's.

Sweeps are resumable: with a run directory, completed cells are
journaled as they finish (:mod:`repro.corpus.journal`) and a resumed
run recomputes only cells with no terminal journal entry.  A resume
whose requested seeds/models/format disagree with the journal header is
refused with a structured error instead of silently merging two sweeps.

With ``backend="remote"`` the cells are dispatched to socket-connected
worker hosts (:mod:`repro.corpus.remote`) under lease-based
at-least-once semantics - heartbeats renew leases, expired leases
requeue with the same deterministic backoff, duplicate deliveries are
deduplicated before journaling - and a coordinator that loses its whole
fleet degrades to the local runner without recomputing journaled cells.
Recordings cross the wire only as attested payload strings, so a frame
tampered in transit is quarantined per-cell exactly like a corrupted
file.

Workers exchange recordings only through the serializer; everything else
that crosses a process boundary is a corpus seed, a model name, or a
plain metric row.  Cell rows are deterministic functions of (seed,
model), so the same seeds produce an identical ``CORPUS_results.json``
modulo the ``timing`` section, regardless of job count, supervision
policy, or interruption/resume history.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.corpus.fleet import (CellOutcome, CellStatus, FleetPolicy,
                                WorkerSupervisor, run_inline)
from repro.corpus.generator import GeneratedCase, generate_case
from repro.corpus.journal import JOURNAL_VERSION, RunJournal
from repro.corpus.protocol import parse_address
from repro.corpus.remote import RemoteCoordinator
from repro.errors import (LogFormatError, ResumeMismatchError,
                          UnknownModelError)
from repro.metrics import summarize_model_rows
from repro.models import DebugSession, get_model, model_order
from repro.replay.diff import quarantine_bucket
from repro.store import RunStore
from repro.util.hashing import content_address, source_tree_hash
from repro.util.tables import Table

CORPUS_RESULTS_PATH = "CORPUS_results.json"
# Smaller than the hand-written apps' default: generated programs are
# tiny and the sweep pays this per (case, failure), so keep ``n``
# enumeration brisk.
CORPUS_CAUSE_ATTEMPTS = 60


@functools.lru_cache(maxsize=None)
def matrix_code_hash() -> str:
    """The code-identity half of a stored cell's ``(seed, model,
    code_hash)`` key.

    A stored row is only reusable while the code that would recompute
    it is unchanged, and a row depends on nearly every layer - the
    generator, recording, replay, the models, analysis and scoring - so
    the hash covers the source of the whole imported ``repro`` package
    (:func:`~repro.util.hashing.source_tree_hash`) plus the
    cause-enumeration budget.  Deliberately conservative: any edit
    anywhere in the package invalidates every stored row, which costs
    one redundant sweep - the opposite mistake serves stale rows
    forever.  Computed once per process, on first use.
    """
    import repro
    return content_address([
        "corpus-matrix-code", 2,
        source_tree_hash(os.path.dirname(os.path.abspath(repro.__file__))),
        CORPUS_CAUSE_ATTEMPTS,
    ])


# -- worker halves (top-level so they pickle by name) -------------------------


def _record_task(task: Tuple[int, Tuple[str, ...]]
                 ) -> Tuple[int, Dict[str, Any], List[Tuple[str, str]]]:
    """Phase 1: record the failing production run under every model."""
    seed, models = task[0], task[1]
    case = generate_case(seed)
    payloads: List[Tuple[str, str]] = []
    for model in models:
        session = DebugSession(case, model, seed=case.failing_seed)
        session.record()
        payloads.append((model, session.ship()))
    return seed, case.provenance(), payloads


def _score_payload(seed: int, model: str, payload: str,
                   verify: bool = True) -> Dict[str, Any]:
    """Phase 2, one cell: decode/verify a shipped log, replay, score.

    The session is rebuilt purely from the shipped payload - the worker
    resolves the case from the log's embedded reference, exactly as a
    remote workstation that never saw the recorder would.  Raises
    :class:`~repro.errors.LogFormatError` (or its attestation subclass)
    when the payload is damaged or stale - the caller quarantines.
    """
    session = DebugSession.receive(payload, verify=verify)
    case = session.case
    metrics = session.score(
        original_cause=case.known_cause,  # ground truth, not re-diagnosis
        cause_count_attempts=CORPUS_CAUSE_ATTEMPTS)
    return {
        "seed": seed,
        "case": case.name,
        "bug_class": case.bug_class,
        "model": model,
        "overhead_x": round(metrics.overhead, 3),
        "DF": round(metrics.fidelity, 3),
        "DE": round(metrics.efficiency, 4),
        "DU": round(metrics.utility, 4),
        "failure_reproduced": metrics.failure_reproduced,
        "truth_matched": case.known_cause.same_cause(
            metrics.replay_cause),
        "n_causes": metrics.n_causes,
        "replay_cause": str(metrics.replay_cause or "-"),
    }


def _replay_task(task: Tuple[int, List[Tuple[str, str]]]
                 ) -> Tuple[int, List[Dict[str, Any]]]:
    """Phase 2, strict form: every payload must score (no quarantine).

    One task carries *all* models of one seed so the expensive
    cause-count enumeration is paid once per case per worker.
    """
    seed, payloads = task[0], task[1]
    return seed, [_score_payload(seed, model, payload)
                  for model, payload in payloads]


# -- supervised cell functions (payload, attempt) -----------------------------


def _fleet_cell(payload: Tuple[str, tuple], attempt: int):
    """The one worker entry point: dispatch on the phase tag.

    A single function lets both phases share one warm, persistent
    fleet - workers (and their decode caches) survive from the record
    phase into the replay phase.
    """
    phase, body = payload
    if phase == "record":
        return _record_cell(body, attempt)
    return _replay_cell(body, attempt)


def _record_cell(body, attempt: int):
    seed, models, faults = body
    if faults is not None:
        faults.inject(f"record:{seed}", attempt)
    __, provenance, payloads = _record_task((seed, models))
    if faults is not None:
        payloads = [(model,
                     faults.corrupt_payload(p, f"payload:{seed}:{model}"))
                    for model, p in payloads]
    return provenance, payloads


def _replay_cell(body, attempt: int):
    seed, payloads, verify, faults = body
    if faults is not None:
        faults.inject(f"replay:{seed}", attempt)
    rows: List[Dict[str, Any]] = []
    quarantined: List[Dict[str, Any]] = []
    for model, payload in payloads:
        try:
            rows.append(_score_payload(seed, model, payload,
                                       verify=verify))
        except LogFormatError as exc:
            # Damaged or attestation-refused payload: quarantine the
            # cell with a structured verdict - never a bare traceback,
            # and never a silently divergent replay.  The refused
            # payload rides along so the coordinator can ship one
            # exemplar per dedupe bucket to the run store; it is
            # stripped before the entry reaches the journal/artifact.
            quarantined.append({
                "seed": seed, "model": model,
                "status": CellStatus.QUARANTINED,
                "error": f"{type(exc).__name__}: {exc}",
                "payload": payload})
    return rows, quarantined


# -- the matrix ---------------------------------------------------------------


def run_matrix(seeds: Iterable[int],
               models: Optional[Sequence[str]] = None,
               jobs: int = 1,
               path: Optional[str] = None,
               cell_timeout: Optional[float] = None,
               retries: int = 2,
               backoff: float = 0.05,
               max_backoff: float = 30.0,
               batch_size: Optional[int] = None,
               run_dir: Optional[str] = None,
               resume: bool = False,
               faults=None,
               verify: bool = True,
               backend: str = "local",
               listen: Optional[str] = None,
               coordinator: Optional[RemoteCoordinator] = None,
               worker_wait: float = 10.0,
               store: Optional[Any] = None) -> Dict[str, Any]:
    """Evaluate every (generated case x model) cell; aggregate per model.

    Returns the full results dict (and writes it to ``path`` as JSON when
    given).  Everything outside the ``timing`` section is a deterministic
    function of (seeds, models).  ``models`` defaults to the registry's
    core sweep order *at call time*, so a core model registered after
    this module was imported still joins the default sweep.

    Fault tolerance (see module docstring): ``cell_timeout`` bounds each
    dispatched task's wall clock, ``retries``/``backoff``/``max_backoff``
    bound the deterministic retry schedule, ``run_dir`` journals
    completed cells for ``resume`` (a resumed run is *refused* with a
    structured :class:`~repro.errors.ResumeMismatchError` when the
    journal header's seeds/models/format disagree with the request),
    ``faults`` (a :class:`~repro.harness.faults.FaultPlan`) injects test
    failures, and ``verify=False`` downgrades attestation refusals to
    warnings.  Supervision engages for ``jobs > 1``, for any
    ``cell_timeout``, or whenever faults are injected; the plain
    sequential path is otherwise unchanged.

    ``backend="remote"`` (or a pre-built ``coordinator``) dispatches
    cells to socket-connected ``repro fleet worker`` hosts instead of
    local processes (:mod:`repro.corpus.remote`): ``listen`` is the
    ``HOST:PORT`` to accept workers on, and when no worker is connected
    for ``worker_wait`` seconds - none ever arrived, or every one died
    mid-sweep - the run *degrades* to the local runner without losing
    journaled progress.

    ``store`` (a directory path or :class:`~repro.store.RunStore`)
    enables the content-addressed store: completed rows are stored
    under ``(seed, model, code_hash)`` and any cell already stored
    under the *current* code hash is loaded instead of recomputed
    (store hits are reported in ``timing``, which determinism
    comparisons exclude, so the artifact stays byte-identical to an
    uncached run's); quarantined/failed recordings are bucketed by
    divergence fingerprint with one exemplar payload shipped per
    bucket.  Journal and store compose: the journal resumes *this*
    run, the store dedupes across runs.
    """
    seed_list = sorted(set(seeds))
    if models is None:
        models = model_order()
    unknown = []
    for model in models:
        try:
            get_model(model)
        except UnknownModelError:
            unknown.append(model)
    if unknown:
        raise UnknownModelError(f"unknown determinism models: {unknown}")
    models = tuple(models)

    journal = RunJournal(run_dir) if run_dir else None
    state = journal.load() if (journal and resume) else None
    if state is not None and state.header:
        _check_resume_header(state.header, seed_list, models,
                             journal.path)
    done_rows: Dict[Tuple[int, str], Dict[str, Any]] = (
        dict(state.rows) if state else {})
    done_quarantines: Dict[Tuple[int, str], Dict[str, Any]] = (
        dict(state.quarantines) if state else {})
    done_cases: Dict[int, Dict[str, Any]] = (
        dict(state.cases) if state else {})
    done = set(done_rows) | set(done_quarantines)
    journaled = len(done)

    # Incremental reruns: any cell already stored under the current
    # code hash is a hit - loaded, never recomputed.  Hits merge into
    # ``done_rows`` (so the artifact is complete) but not into the
    # journal's ``resumed_cells`` count, which stays this-run-only.
    run_store: Optional[RunStore] = (
        RunStore(store) if isinstance(store, str) else store)
    code_hash = matrix_code_hash() if run_store is not None else None
    store_hits: Dict[Tuple[int, str], Dict[str, Any]] = {}
    if run_store is not None:
        owed = [(seed, model) for seed in seed_list for model in models
                if (seed, model) not in done]
        for cell, address in run_store.stored_cells(code_hash,
                                                    owed).items():
            store_hits[cell] = run_store.get_object(address)
        for seed in seed_list:
            if seed not in done_cases:
                provenance = run_store.get_case(seed, code_hash)
                if provenance is not None:
                    done_cases[seed] = provenance
        done_rows.update(store_hits)
        done |= set(store_hits)

    # Cells still owed: per seed, the models with no terminal entry.
    todo: Dict[int, Tuple[str, ...]] = {}
    for seed in seed_list:
        missing = tuple(m for m in models if (seed, m) not in done)
        if missing:
            todo[seed] = missing

    policy = FleetPolicy(cell_timeout=cell_timeout, retries=retries,
                         backoff_base=backoff, backoff_cap=max_backoff,
                         batch_size=batch_size)
    use_remote = backend == "remote" or coordinator is not None
    use_fleet = jobs > 1 or cell_timeout is not None or faults is not None

    if journal:
        journal.open()
        if not (resume and state and state.header):
            journal.write_header(seed_list, models)

    statuses: Dict[Tuple[int, str], str] = {
        cell: CellStatus.OK for cell in done_rows}
    statuses.update({cell: entry.get("status", CellStatus.QUARANTINED)
                     for cell, entry in done_quarantines.items()})
    retried: Dict[str, int] = {}
    fresh_rows: Dict[Tuple[int, str], Dict[str, Any]] = {}
    fresh_quar: Dict[Tuple[int, str], Dict[str, Any]] = {}

    def bucket_cell(entry: Dict[str, Any],
                    payload: Optional[str] = None) -> None:
        """Stamp an injured cell's dedupe bucket; ship one exemplar.

        The bucket fingerprint hashes the failure's *shape* (model,
        terminal status, normalized error), so every cell injured the
        same way shares a bucket; the store keeps the first refused
        payload per bucket and counts the rest.
        """
        entry["bucket"] = quarantine_bucket(
            entry["model"], entry["status"], entry.get("error", ""))
        if run_store is not None:
            run_store.put_bucket_member(
                entry["bucket"],
                failure=[entry["status"], entry.get("error", "")],
                fingerprint=entry["bucket"],
                cell=f"{entry['seed']}:{entry['model']}",
                payload={"recording": payload} if payload else None)

    def finish_record(outcome: CellOutcome, seed: int,
                      missing: Tuple[str, ...]) -> None:
        """Journal a landed recording; report a dead one per cell."""
        if outcome.attempts > 1:
            retried[outcome.key] = outcome.attempts
        if outcome.ok:
            provenance, __ = outcome.value
            done_cases[seed] = provenance
            if journal:
                journal.append({"kind": "case", "seed": seed,
                                "provenance": provenance})
            if run_store is not None:
                run_store.put_case(seed, code_hash, provenance)
            return
        for model in missing:
            entry = {"seed": seed, "model": model,
                     "status": outcome.status,
                     "error": _short_error(outcome.error)}
            bucket_cell(entry)
            fresh_quar[(seed, model)] = entry
            statuses[(seed, model)] = outcome.status
            if journal:
                journal.append({"kind": "quarantine", "model": model,
                                **{k: entry[k] for k in
                                   ("seed", "status", "error", "bucket")}})

    def finish_replay(outcome: CellOutcome, seed: int,
                      missing: Tuple[str, ...]) -> None:
        """Journal each cell row / quarantine verdict as it lands."""
        if outcome.attempts > 1:
            retried[outcome.key] = outcome.attempts
        if outcome.ok:
            rows, quarantined = outcome.value
            for row in rows:
                cell = (seed, row["model"])
                fresh_rows[cell] = row
                statuses[cell] = CellStatus.OK
                if journal:
                    journal.append({"kind": "row", "seed": seed,
                                    "model": row["model"], "row": row})
                if run_store is not None:
                    run_store.put_row(seed, row["model"], code_hash, row)
            for entry in quarantined:
                payload = entry.pop("payload", None)
                bucket_cell(entry, payload)
                cell = (seed, entry["model"])
                fresh_quar[cell] = entry
                statuses[cell] = entry["status"]
                if journal:
                    journal.append({"kind": "quarantine", **entry})
            return
        for model in missing:
            entry = {"seed": seed, "model": model,
                     "status": outcome.status,
                     "error": _short_error(outcome.error)}
            bucket_cell(entry)
            fresh_quar[(seed, model)] = entry
            statuses[(seed, model)] = outcome.status
            if journal:
                journal.append({"kind": "quarantine", **entry})

    def local_fallback(tasks, on_result=None):
        """The degraded-mode runner: the same cells, local processes."""
        if jobs > 1:
            with WorkerSupervisor(_fleet_cell, jobs=jobs,
                                  policy=policy) as fleet:
                return fleet.run(tasks, on_result=on_result)
        return run_inline(_fleet_cell, tasks, policy=policy,
                          on_result=on_result)

    record_seconds = replay_seconds = 0.0
    remote_stats: Optional[Dict[str, Any]] = None
    try:
        if use_remote:
            coord = coordinator
            if coord is None:
                spec = listen if listen is not None else ":0"
                address = (parse_address(spec)
                           if isinstance(spec, str) else tuple(spec))
                coord = RemoteCoordinator(address,
                                          worker_wait=worker_wait)
            coord.configure(policy=policy, faults=faults,
                            fallback=local_fallback)
            try:
                record_seconds, replay_seconds = _run_phases(
                    coord.run, todo, faults, verify,
                    finish_record, finish_replay)
                remote_stats = dict(coord.stats)
            finally:
                if coordinator is None:
                    coord.close()
        elif use_fleet:
            with WorkerSupervisor(_fleet_cell, jobs=jobs,
                                  policy=policy) as fleet:
                record_seconds, replay_seconds = _run_phases(
                    fleet.run, todo, faults, verify,
                    finish_record, finish_replay)
        else:
            record_seconds, replay_seconds = _run_phases(
                local_fallback, todo, faults, verify,
                finish_record, finish_replay)
    finally:
        if journal:
            journal.close()

    all_rows = dict(done_rows)
    all_rows.update(fresh_rows)
    all_quar = dict(done_quarantines)
    all_quar.update(fresh_quar)
    rows = [all_rows[(seed, model)]
            for seed in seed_list for model in models
            if (seed, model) in all_rows]
    summary = summarize_model_rows(rows, models)
    for agg in summary.values():
        # The paper's trade-off in one number: how much debugging utility
        # a model buys per unit of recording overhead it charges.
        agg["DU_per_x"] = round(agg["mean_DU"] / agg["mean_overhead_x"], 4)
    fleet_section = _fleet_report(seed_list, models, statuses, all_quar,
                                  retried, journaled,
                                  store=run_store)
    if remote_stats is not None:
        # Remote transport health rides along only for remote runs, so
        # the local artifact stays byte-identical to the committed one.
        fleet_section["remote"] = remote_stats
    config: Dict[str, Any] = {"seeds": seed_list, "models": list(models),
                              "jobs": jobs}
    if use_remote:
        config["backend"] = "remote"
    results = {
        "artifact": "corpus-matrix",
        "config": config,
        "cases": [done_cases[seed] for seed in seed_list
                  if seed in done_cases],
        "matrix": rows,
        "summary": summary,
        "sweet_spot": _sweet_spot(summary),
        "fleet": fleet_section,
        "timing": {  # excluded from determinism comparisons
            "record_seconds": round(record_seconds, 3),
            "replay_seconds": round(replay_seconds, 3),
            "cells": len(rows),
        },
    }
    if run_store is not None:
        # Store accounting rides in ``timing`` (the one section
        # determinism comparisons exclude), so a store-backed rerun's
        # artifact stays byte-identical to the committed one elsewhere.
        results["timing"]["store_hits"] = len(store_hits)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
    return results


def _run_phases(run_tasks, todo: Dict[int, Tuple[str, ...]],
                faults, verify: bool,
                finish_record, finish_replay) -> Tuple[float, float]:
    """Record then replay every owed cell through one task runner.

    ``run_tasks`` is either a supervised fleet's ``run`` or the inline
    runner - both take ``[(key, payload)]`` plus an ``on_result`` hook
    and return ``{key: CellOutcome}``.
    """
    key_meta = {f"record:{seed}": (seed, missing)
                for seed, missing in todo.items()}

    started = time.perf_counter()
    record_tasks = [(f"record:{seed}",
                     ("record", (seed, missing, faults)))
                    for seed, missing in todo.items()]
    record_outcomes = run_tasks(
        record_tasks,
        on_result=lambda outcome: finish_record(
            outcome, *key_meta[outcome.key]))
    record_seconds = time.perf_counter() - started

    started = time.perf_counter()
    replay_tasks = []
    replay_meta = {}
    for seed, missing in todo.items():
        outcome = record_outcomes[f"record:{seed}"]
        if not outcome.ok:
            continue  # already reported per cell by finish_record
        __, payloads = outcome.value
        replay_tasks.append((f"replay:{seed}",
                             ("replay", (seed, payloads, verify, faults))))
        replay_meta[f"replay:{seed}"] = (seed, missing)
    run_tasks(replay_tasks,
              on_result=lambda outcome: finish_replay(
                  outcome, *replay_meta[outcome.key]))
    return record_seconds, time.perf_counter() - started


def _check_resume_header(header: Dict[str, Any], seed_list, models,
                         journal_path: str) -> None:
    """Refuse to resume a journal recorded for a different sweep.

    Silently merging a journal whose seeds, models, or format differ
    from the request would produce an artifact belonging to neither
    run; every mismatch is named with both values so the caller can
    either fix the invocation or start a fresh run directory.
    """
    checks = (
        ("format", int(header.get("version", 0)), JOURNAL_VERSION),
        ("seeds", [int(s) for s in header.get("seeds", [])],
         list(seed_list)),
        ("models", [str(m) for m in header.get("models", [])],
         list(models)),
    )
    for field, journaled, requested in checks:
        if journaled != requested:
            raise ResumeMismatchError(
                f"cannot resume from {journal_path!r}: the journal was "
                f"written for {field}={journaled!r} but this run "
                f"requests {field}={requested!r}; rerun with the "
                f"original {field} or use a fresh --run-dir",
                field=field, journal=journaled, requested=requested)


def _short_error(error: str) -> str:
    """The last non-empty line of a (possibly multi-line) traceback."""
    lines = [line for line in (error or "").strip().splitlines() if line]
    return lines[-1] if lines else ""


def _fleet_report(seed_list, models, statuses, quarantines, retried,
                  journaled: int, store=None) -> Dict[str, Any]:
    """The sweep's health report: terminal status of every cell.

    Healthy cells are counted, not listed, so an all-healthy artifact
    stays compact and byte-stable; every injured cell appears with its
    status, a one-line reason, and its dedupe bucket.  A ``buckets``
    section (added only when cells were injured, so the all-healthy
    artifact's bytes never move) groups them by divergence fingerprint
    with the store's one-exemplar-per-bucket address when a store was
    attached.
    """
    def cell_id(cell):
        return f"{cell[0]}:{cell[1]}"

    cells = [(seed, model) for seed in seed_list for model in models]
    by_status: Dict[str, List[str]] = {
        CellStatus.FAILED: [], CellStatus.TIMEOUT: [],
        CellStatus.QUARANTINED: []}
    ok = 0
    for cell in cells:
        status = statuses.get(cell, CellStatus.OK)
        if status == CellStatus.OK:
            ok += 1
        else:
            by_status.setdefault(status, []).append(cell_id(cell))
    report = {
        "cells": len(cells),
        "ok": ok,
        "failed": sorted(by_status[CellStatus.FAILED]),
        "timeout": sorted(by_status[CellStatus.TIMEOUT]),
        "quarantined": [
            {"cell": cell_id(cell), "status": entry["status"],
             "error": entry.get("error", ""),
             "bucket": _entry_bucket(cell, entry)}
            for cell, entry in sorted(quarantines.items(),
                                      key=lambda kv: (kv[0][0],
                                                      str(kv[0][1])))],
        "retried": {key: retried[key] for key in sorted(retried)},
        "resumed_cells": journaled,
    }
    buckets = _bucket_report(quarantines, store)
    if buckets:
        report["buckets"] = buckets
    return report


def _entry_bucket(cell, entry: Dict[str, Any]) -> str:
    """The entry's dedupe bucket (recomputed for pre-bucket journals)."""
    return entry.get("bucket") or quarantine_bucket(
        entry.get("model", cell[1]), entry.get("status", ""),
        entry.get("error", ""))


def _bucket_report(quarantines: Dict[Tuple[int, str], Dict[str, Any]],
                   store=None) -> List[Dict[str, Any]]:
    """Injured cells grouped by divergence fingerprint.

    One entry per bucket: the member cells, the representative error,
    and - when a store shipped an exemplar - the exemplar's content
    address, so a developer debugs one recording per failure class
    instead of every copy of it.
    """
    grouped: Dict[str, Dict[str, Any]] = {}
    for cell, entry in sorted(quarantines.items(),
                              key=lambda kv: (kv[0][0], str(kv[0][1]))):
        bucket = _entry_bucket(cell, entry)
        view = grouped.setdefault(bucket, {
            "bucket": bucket, "count": 0, "cells": [],
            "status": entry["status"],
            "error": entry.get("error", ""), "exemplar": None})
        view["count"] += 1
        view["cells"].append(f"{cell[0]}:{cell[1]}")
    if store is not None:
        stored = store.buckets()
        for bucket, view in grouped.items():
            if bucket in stored:
                view["exemplar"] = stored[bucket].exemplar
    return [grouped[bucket] for bucket in sorted(grouped)]


def _sweet_spot(summary: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The model maximizing utility per unit of recording overhead.

    This is §3's sweet-spot criterion made explicit: high debugging
    utility *at* low recording overhead, not utility alone (which the
    full-determinism model trivially maximizes by paying the most).
    Ties break toward higher absolute utility.
    """
    if not summary:
        return {}
    best = min(summary.items(),
               key=lambda item: (-item[1]["DU_per_x"],
                                 -item[1]["mean_DU"]))
    return {"model": best[0], **best[1]}


# -- presentation -------------------------------------------------------------


def corpus_tables(results: Dict[str, Any]) -> Tuple[Table, Table]:
    """Render a results dict as (per-cell table, per-model summary)."""
    cells = Table(["seed", "case", "bug_class", "model", "overhead_x",
                   "DF", "DE", "DU", "failure_reproduced", "truth_matched"],
                  title="Corpus matrix - per-cell determinism comparison")
    for row in results["matrix"]:
        cells.add_row(**{c: row[c] for c in cells.columns})
    sweet = results.get("sweet_spot", {}).get("model")
    summary = Table(["model", "cells", "mean_overhead_x", "mean_DF",
                     "mean_DE", "mean_DU", "DU_per_x", "reproduced",
                     "sweet_spot"],
                    title="Corpus matrix - sweet-spot summary "
                          "(per-model averages)")
    for model, agg in results["summary"].items():
        summary.add_row(model=model, sweet_spot=(model == sweet), **agg)
    return cells, summary


def fleet_table(results: Dict[str, Any]) -> Table:
    """Render the fleet health section (``corpus run`` prints it when
    any cell is unhealthy)."""
    table = Table(["cell", "status", "error"],
                  title="Fleet health - injured cells")
    fleet = results.get("fleet", {})
    for status in (CellStatus.FAILED, CellStatus.TIMEOUT):
        for cell in fleet.get(status, []):
            table.add_row(cell=cell, status=status, error="")
    for entry in fleet.get("quarantined", []):
        table.add_row(cell=entry["cell"], status=entry["status"],
                      error=entry.get("error", "")[:80])
    return table


def corpus_case_table(cases: Iterable[GeneratedCase]) -> Table:
    """Render generated cases (``corpus list``)."""
    table = Table(["seed", "name", "bug_class", "failing_seed",
                   "ground_truth", "description"],
                  title="Generated scenario corpus")
    for case in cases:
        table.add_row(seed=case.corpus_seed, name=case.name,
                      bug_class=case.bug_class,
                      failing_seed=case.failing_seed,
                      ground_truth=str(case.known_cause),
                      description=case.description)
    return table


def run_corpus_experiment() -> Tuple[Table, Table]:
    """The registry entry: a small parallel sweep over all six classes."""
    results = run_matrix(range(6), jobs=2)
    return corpus_tables(results)
