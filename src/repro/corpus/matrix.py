"""The (generated case x determinism model) experiment matrix.

``run_matrix`` evaluates every cell of a corpus sweep as one task per
corpus seed, and each task mirrors how replay debugging is deployed.
The worker regenerates its case from the seed, runs the known-failing
production run under every owed determinism model's recorder, and
ships each recording as the JSON string :mod:`repro.record.serialize`
produces - the "production fleet" half.  It then receives each payload
through the same serializer, *attestation-verifies* it, replays it with
its model's replayer, and scores debugging fidelity against the case's
*ground-truth* root cause (no per-cell re-diagnosis of the original
run) - the "developer workstation" half.

The tasks run through the fleet's one dispatch loop
(:func:`repro.corpus.fleet.dispatch`) over a transport picked once per
sweep - inline, or supervised worker processes: tasks have wall-clock
timeouts, crashed or hung workers are detected and replaced, struck
tasks are retried with deterministic backoff, and a task that exhausts
its budget is *reported* per cell in the artifact's ``fleet`` section
(status ``failed``/``timeout``/``quarantined``) instead of killing the
sweep.  A payload that arrives damaged - truncated,
bit-flipped, or stale against its case - is refused by the attestation
layer and quarantined.  On the all-healthy path the ``matrix``/``summary``
sections are byte-identical to an unsupervised run's.

With a ``coordinator`` the tasks go to socket-connected worker hosts
(:mod:`repro.corpus.remote`) under lease-based at-least-once semantics
- heartbeats renew leases, expired leases requeue with the same
deterministic backoff, duplicate deliveries are dropped before the
matrix sees them - and a coordinator that loses its whole fleet
degrades: the same loop switches to the local transport, and each
task keeps its attempts and strikes.

The run store (:mod:`repro.store`) is the sweep's only index: a cell is
done once its row is stored under the current :func:`matrix_code_hash`.
An interrupted sweep resumes by rerunning it on the same store, a
wider sweep computes only the seeds it adds, and an edit to the code
recomputes everything.  Quarantined and failed cells are never stored,
so every run retries them.

Cell rows are deterministic functions of (seed, model), so the same
seeds produce an identical ``CORPUS_results.json`` modulo the
``timing`` section, regardless of job count, backend, or interruption
history.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.corpus.fleet import (CellOutcome, CellStatus, FleetPolicy,
                                Inline, WorkerSupervisor, dispatch)
from repro.corpus.generator import GeneratedCase, generate_case
from repro.corpus.remote import RemoteCoordinator
from repro.errors import LogFormatError, UnknownModelError
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


# -- the worker half (top-level so it pickles by name) ------------------------


def _score_payload(seed: int, model: str, payload: str,
                   verify: bool = True) -> Dict[str, Any]:
    """One cell's workstation half: decode/verify a shipped log,
    replay, score.

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


def _fleet_cell(payload: Tuple[int, Tuple[str, ...], bool, Any],
                attempt: int):
    """One seed's task, the one worker entry point: record and ship
    every owed model, then receive, replay and score every payload.

    Returns ``(provenance, rows, quarantined, record_seconds,
    replay_seconds)``.  A quarantine verdict carries its refused
    payload so ``run_matrix`` can ship one exemplar per dedupe bucket
    to the run store; it is stripped before the verdict reaches the
    artifact.  Injected faults fire at ``record:{seed}``,
    ``payload:{seed}:{model}`` and ``replay:{seed}``.
    """
    seed, models, verify, faults = payload
    started = time.perf_counter()
    if faults is not None:
        faults.inject(f"record:{seed}", attempt)
    case = generate_case(seed)
    shipped: List[Tuple[str, str]] = []
    for model in models:
        session = DebugSession(case, model, seed=case.failing_seed)
        session.record()
        text = session.ship()
        if faults is not None:
            text = faults.corrupt_payload(text, f"payload:{seed}:{model}")
        shipped.append((model, text))
    recorded = time.perf_counter()
    if faults is not None:
        faults.inject(f"replay:{seed}", attempt)
    rows: List[Dict[str, Any]] = []
    quarantined: List[Dict[str, Any]] = []
    for model, text in shipped:
        try:
            rows.append(_score_payload(seed, model, text, verify=verify))
        except LogFormatError as exc:
            # Damaged or attestation-refused payload: quarantine the
            # cell with a structured verdict - never a bare traceback,
            # and never a silently divergent replay.
            quarantined.append({
                "seed": seed, "model": model,
                "status": CellStatus.QUARANTINED,
                "error": f"{type(exc).__name__}: {exc}",
                "payload": text})
    return (case.provenance(), rows, quarantined,
            recorded - started, time.perf_counter() - recorded)


# -- the matrix ---------------------------------------------------------------


def run_matrix(seeds: Iterable[int],
               models: Optional[Sequence[str]] = None,
               jobs: int = 1,
               path: Optional[str] = None,
               policy: Optional[FleetPolicy] = None,
               faults=None,
               verify: bool = True,
               coordinator: Optional[RemoteCoordinator] = None,
               store: Optional[Any] = None) -> Dict[str, Any]:
    """Evaluate every (generated case x model) cell; aggregate per model.

    Returns the full results dict (and writes it to ``path`` as JSON when
    given).  Everything outside the ``timing`` section is a deterministic
    function of (seeds, models).  ``models`` defaults to the registry's
    core sweep order *at call time*, so a core model registered after
    this module was imported still joins the default sweep.

    Fault tolerance (see module docstring): ``policy`` (a
    :class:`~repro.corpus.fleet.FleetPolicy`) bounds each task's wall
    clock, retry budget, backoff and batch size; ``faults`` (a
    :class:`~repro.harness.faults.FaultPlan`) injects test failures; and
    ``verify=False`` downgrades attestation refusals to warnings.  Tasks
    run on ``jobs`` supervised worker processes when ``jobs > 1``, a
    task timeout is set, or faults are injected, and inline otherwise.
    A ``coordinator`` (owned and closed by the caller) sends them to
    remote ``repro fleet worker`` hosts instead, and the same dispatch
    loop falls back to that local transport when no worker is
    connected.

    ``store`` (a directory path or :class:`~repro.store.RunStore`) is
    the sweep's index: completed rows are stored under ``(seed, model,
    code_hash)`` as they land, and any cell already stored under the
    *current* code hash is loaded instead of recomputed - so rerunning
    an interrupted sweep on the same store resumes it.  Store hits are
    reported in ``timing``, which determinism comparisons exclude, so
    the artifact stays byte-identical to an uncached run's.  Injured
    cells are bucketed by failure shape, with one exemplar payload
    shipped per bucket.
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
    policy = policy or FleetPolicy()

    run_store: Optional[RunStore] = (
        RunStore(store) if isinstance(store, str) else store)
    code_hash = matrix_code_hash() if run_store is not None else None
    rows: Dict[Tuple[int, str], Dict[str, Any]] = {}
    cases: Dict[int, Dict[str, Any]] = {}
    if run_store is not None:
        wanted = [(seed, model) for seed in seed_list for model in models]
        for cell, address in run_store.stored_cells(code_hash,
                                                    wanted).items():
            rows[cell] = run_store.get_object(address)
        for seed in seed_list:
            provenance = run_store.get_case(seed, code_hash)
            if provenance is not None:
                cases[seed] = provenance
    store_hits = len(rows)

    owed: Dict[str, Tuple[int, Tuple[str, ...]]] = {}
    for seed in seed_list:
        missing = tuple(m for m in models if (seed, m) not in rows)
        if missing:
            owed[f"seed:{seed}"] = (seed, missing)
    tasks = [(key, (seed, missing, verify, faults))
             for key, (seed, missing) in owed.items()]

    quarantines: Dict[Tuple[int, str], Dict[str, Any]] = {}
    retried: Dict[str, int] = {}
    seconds = {"record": 0.0, "replay": 0.0}

    def quarantine(entry: Dict[str, Any],
                   payload: Optional[str] = None) -> None:
        """File an injured cell under its dedupe bucket; ship one
        exemplar.

        The bucket fingerprint hashes the failure's *shape* (model,
        terminal status, normalized error), so every cell injured the
        same way shares a bucket; the store keeps the first refused
        payload per bucket and lists each member cell once.
        """
        entry["bucket"] = quarantine_bucket(entry["model"], entry["status"],
                                            entry["error"])
        quarantines[(entry["seed"], entry["model"])] = entry
        if run_store is not None:
            run_store.put_bucket_member(
                entry["bucket"], failure=[entry["status"], entry["error"]],
                fingerprint=entry["bucket"],
                cell=f"{entry['seed']}:{entry['model']}",
                payload={"recording": payload} if payload else None)

    def finish(outcome: CellOutcome) -> None:
        """Store and tally one seed's task as it finalizes."""
        seed, missing = owed[outcome.key]
        if outcome.attempts > 1:
            retried[outcome.key] = outcome.attempts
        if not outcome.ok:
            for model in missing:
                quarantine({"seed": seed, "model": model,
                            "status": outcome.status,
                            "error": _short_error(outcome.error)})
            return
        provenance, new_rows, injured, record_s, replay_s = outcome.value
        seconds["record"] += record_s
        seconds["replay"] += replay_s
        cases[seed] = provenance
        if run_store is not None:
            run_store.put_case(seed, code_hash, provenance)
        for row in new_rows:
            rows[(seed, row["model"])] = row
            if run_store is not None:
                run_store.put_row(seed, row["model"], code_hash, row)
        for entry in injured:
            quarantine(entry, entry.pop("payload"))

    supervised = (jobs > 1 or policy.cell_timeout is not None
                  or faults is not None)
    local = (WorkerSupervisor(_fleet_cell, jobs=jobs, policy=policy)
             if supervised else Inline(_fleet_cell))
    with local:
        if coordinator is not None:
            if faults is not None:
                coordinator.faults = faults
            dispatch(coordinator, tasks, policy, on_result=finish,
                     fallback=local)
        elif supervised:
            # The method the benchmark suite's ledger wraps.
            local.run(tasks, on_result=finish)
        else:
            dispatch(local, tasks, policy, on_result=finish)

    matrix_rows = [rows[(seed, model)]
                   for seed in seed_list for model in models
                   if (seed, model) in rows]
    summary = summarize_model_rows(matrix_rows, models)
    for agg in summary.values():
        # The paper's trade-off in one number: how much debugging utility
        # a model buys per unit of recording overhead it charges.
        agg["DU_per_x"] = round(agg["mean_DU"] / agg["mean_overhead_x"], 4)
    fleet_section = _fleet_report(seed_list, models, quarantines, retried,
                                  store=run_store)
    config: Dict[str, Any] = {"seeds": seed_list, "models": list(models),
                              "jobs": jobs}
    if coordinator is not None:
        # Remote transport health rides along only for remote runs, so
        # the local artifact stays byte-identical to the committed one.
        fleet_section["remote"] = dict(coordinator.stats)
        config["backend"] = "remote"
    results = {
        "artifact": "corpus-matrix",
        "config": config,
        "cases": [cases[seed] for seed in seed_list if seed in cases],
        "matrix": matrix_rows,
        "summary": summary,
        "sweet_spot": _sweet_spot(summary),
        "fleet": fleet_section,
        "timing": {  # excluded from determinism comparisons
            "record_seconds": round(seconds["record"], 3),
            "replay_seconds": round(seconds["replay"], 3),
            "cells": len(matrix_rows),
        },
    }
    if run_store is not None:
        # Store accounting rides in ``timing`` (the one section
        # determinism comparisons exclude), so a store-backed rerun's
        # artifact stays byte-identical to the committed one elsewhere.
        results["timing"]["store_hits"] = store_hits
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
    return results


def _short_error(error: str) -> str:
    """The last non-empty line of a (possibly multi-line) traceback."""
    lines = [line for line in (error or "").strip().splitlines() if line]
    return lines[-1] if lines else ""


def _fleet_report(seed_list, models, quarantines, retried,
                  store=None) -> Dict[str, Any]:
    """The sweep's health report: terminal status of every cell.

    Healthy cells are counted, not listed, so an all-healthy artifact
    stays compact and byte-stable; every injured cell appears with its
    status, a one-line reason, and its dedupe bucket.  A ``buckets``
    section (added only when cells were injured, so the all-healthy
    artifact's bytes never move) groups them by divergence fingerprint
    with the store's one-exemplar-per-bucket address when a store was
    attached.
    """
    injured = sorted(quarantines.items())

    def listed(status: str) -> List[str]:
        return sorted(f"{seed}:{model}" for (seed, model), entry in injured
                      if entry["status"] == status)

    cells = len(seed_list) * len(models)
    report = {
        "cells": cells,
        "ok": cells - len(injured),
        "failed": listed(CellStatus.FAILED),
        "timeout": listed(CellStatus.TIMEOUT),
        "quarantined": [
            {"cell": f"{seed}:{model}", "status": entry["status"],
             "error": entry["error"], "bucket": entry["bucket"]}
            for (seed, model), entry in injured],
        "retried": {key: retried[key] for key in sorted(retried)},
        # Always 0 now that the run store is the only index (a resumed
        # cell is a store hit, counted in ``timing``); the key stays
        # because the committed CORPUS_results.json and the benchmark
        # suite's expected artifacts carry it.
        "resumed_cells": 0,
    }
    buckets = _bucket_report(injured, store)
    if buckets:
        report["buckets"] = buckets
    return report


def _bucket_report(injured: List[Tuple[Tuple[int, str], Dict[str, Any]]],
                   store=None) -> List[Dict[str, Any]]:
    """Injured cells grouped by divergence fingerprint.

    One entry per bucket: the member cells, the representative error,
    and - when a store shipped an exemplar - the exemplar's content
    address, so a developer debugs one recording per failure class
    instead of every copy of it.
    """
    grouped: Dict[str, Dict[str, Any]] = {}
    for (seed, model), entry in injured:
        view = grouped.setdefault(entry["bucket"], {
            "bucket": entry["bucket"], "count": 0, "cells": [],
            "status": entry["status"],
            "error": entry["error"], "exemplar": None})
        view["count"] += 1
        view["cells"].append(f"{seed}:{model}")
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
