"""First-divergence walker: structured divergence instead of booleans.

Every layer of this system used to answer "did the replay reproduce the
run?" with a single boolean - ``trace.fingerprint() == expected``.  A
fleet debugging millions of recordings needs the production-grade
answer instead: *where* did the runs first disagree, on *what* fields,
and under a *stable fingerprint* so equivalent failures dedupe into one
bucket.  This module is that answer, with the replay-engine discipline:

1. **First divergence wins** - comparison halts at the first observable
   difference and reports it; it never "heals" past a mismatch.
2. **Comparison is read-only** - traces and logs are never mutated.
3. **Only observables count** - a diff compares what the runs actually
   exposed (schedule, outputs, failure, branch paths, cycles), and only
   the sections *both* sides carry: a recording log is compared only on
   the fields its determinism model paid to record.  A sparse
   (events-mode) replay trace kept no schedule and no branch paths, so
   ``diff_log_replay`` refuses it.

The shapes mirror a production replay engine: :class:`FieldDiff` (one
field's expected/actual pair), :class:`DivergencePoint` (the step
index, site, thread, and field-level diffs of the first divergence,
plus a stable fingerprint), and :class:`DivergenceReport` (status +
point + what was compared).  Entry points, one per ``repro diff`` verb:

``diff_logs(expected, actual)``      two recording logs, field by field
``diff_log_replay(log, result)``     a log against its own replay

Fingerprints hash the divergence's *shape* - kind, site, thread, and
which fields disagreed - through :func:`repro.util.hashing.content_address`,
deliberately excluding the concrete values: two recordings that diverge
at the same site in the same fields land in the same dedupe bucket,
which is what lets a fleet ship one exemplar per bucket instead of
every recording (:mod:`repro.store`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.hashing import content_address


class DiffStatus:
    """Terminal status of one comparison."""

    MATCHED = "matched"      # observably identical on every shared section
    DIVERGED = "diverged"    # first divergence found (see the point)
    TRUNCATED = "truncated"  # one side ended early; the prefix matched


@dataclass(frozen=True)
class FieldDiff:
    """One field's expected/actual disagreement."""

    path: str        # e.g. "failure", "schedule[42]", "outputs.out[3]"
    expected: Any
    actual: Any

    def __str__(self) -> str:
        return (f"{self.path}: expected {self.expected!r}, "
                f"actual {self.actual!r}")


@dataclass
class DivergencePoint:
    """The first observable divergence between two runs.

    ``kind`` names the section that diverged (``schedule``,
    ``outputs``, ``failure``, ``branch-path``, ``truncated``,
    ``cycles``, or a ``log:`` field for log-vs-log diffs); ``step_index``/``site``/
    ``tid`` locate it in the execution when the section has a position;
    ``diffs`` is the field-level breakdown.
    """

    kind: str
    diffs: Tuple[FieldDiff, ...]
    step_index: Optional[int] = None
    site: Optional[str] = None
    tid: Optional[int] = None

    def fingerprint(self) -> str:
        """Stable identity of this divergence's *shape*.

        Hashes where the runs disagreed (kind, site, thread) and which
        fields - not the concrete values - so deterministic reruns
        fingerprint identically and same-shaped divergences from
        different recordings share a dedupe bucket.
        """
        return content_address([
            "divergence", self.kind, self.site, self.tid,
            sorted(d.path for d in self.diffs)])

    def summary(self) -> str:
        where = []
        if self.step_index is not None:
            where.append(f"step {self.step_index}")
        if self.site:
            where.append(f"site {self.site}")
        if self.tid is not None:
            where.append(f"thread {self.tid}")
        location = " at " + ", ".join(where) if where else ""
        fields = ", ".join(d.path for d in self.diffs)
        return f"{self.kind} divergence{location} ({fields})"


@dataclass
class DivergenceReport:
    """Outcome of one first-divergence comparison."""

    status: str
    point: Optional[DivergencePoint] = None
    steps_compared: int = 0
    sections: Tuple[str, ...] = ()

    @property
    def diverged(self) -> bool:
        return self.status != DiffStatus.MATCHED

    def fingerprint(self) -> Optional[str]:
        return self.point.fingerprint() if self.point else None

    def render(self) -> str:
        """Multi-line human report (the CLI's output)."""
        lines = [f"status:          {self.status}",
                 f"steps compared:  {self.steps_compared}",
                 f"sections:        {', '.join(self.sections) or '-'}"]
        if self.point is not None:
            lines.append(f"divergence:      {self.point.summary()}")
            for diff in self.point.diffs:
                lines.append(f"  {diff}")
            lines.append(f"fingerprint:     {self.point.fingerprint()}")
        return "\n".join(lines)


def _matched(sections: Sequence[str], steps: int) -> DivergenceReport:
    return DivergenceReport(DiffStatus.MATCHED, steps_compared=steps,
                            sections=tuple(sections))


def _report(status: str, point: DivergencePoint, sections: Sequence[str],
            steps: int) -> DivergenceReport:
    return DivergenceReport(status, point=point, steps_compared=steps,
                            sections=tuple(sections))


# -- section diffs ------------------------------------------------------------


def _failure_tuple(failure) -> Optional[Tuple]:
    if failure is None:
        return None
    return (failure.kind.value, failure.location, failure.detail)


def _diff_sequence(path: str, expected: Sequence, actual: Sequence
                   ) -> Optional[DivergencePoint]:
    """First positional disagreement between two sequences."""
    for index, (mine, theirs) in enumerate(zip(expected, actual)):
        if _normalize(mine) != _normalize(theirs):
            return DivergencePoint(
                kind=path, step_index=index,
                diffs=(FieldDiff(f"{path}[{index}]", mine, theirs),))
    if len(expected) != len(actual):
        return DivergencePoint(
            kind=path, step_index=min(len(expected), len(actual)),
            diffs=(FieldDiff(f"len({path})", len(expected), len(actual)),))
    return None


def _diff_channel_map(path: str, expected: Dict, actual: Dict
                      ) -> Optional[DivergencePoint]:
    """First disagreement between two channel->values maps."""
    for channel in sorted(set(expected) | set(actual), key=str):
        point = _diff_sequence(f"{path}.{channel}",
                               expected.get(channel, []),
                               actual.get(channel, []))
        if point is not None:
            return point
    return None


def _diff_failure(expected, actual) -> Optional[DivergencePoint]:
    mine, theirs = _failure_tuple(expected), _failure_tuple(actual)
    if mine == theirs:
        return None
    return DivergencePoint(
        kind="failure",
        site=(expected.location if expected is not None
              else actual.location if actual is not None else None),
        tid=(expected.tid if expected is not None else None),
        step_index=(expected.step_index if expected is not None else None),
        diffs=(FieldDiff("failure", mine, theirs),))


def _diff_branch_paths(expected: Dict[int, List[bool]],
                       actual: Dict[int, List[bool]]
                       ) -> Optional[DivergencePoint]:
    """Branch paths compared as an unordered set of per-thread paths.

    Thread ids are assigned in global spawn order and can legitimately
    permute between two runs of the same behaviour, so paths are
    compared as a multiset - order *within* a thread still matters.
    """
    mine = sorted(tuple(path) for path in expected.values())
    theirs = sorted(tuple(path) for path in actual.values())
    if mine == theirs:
        return None
    return DivergencePoint(
        kind="branch-path",
        diffs=(FieldDiff("thread_branch_paths",
                         [list(p) for p in mine],
                         [list(p) for p in theirs]),))


def _normalize(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    return value


# -- log vs log ---------------------------------------------------------------

# Recorded-log fields compared positionally, in recording order.  A
# field is compared only when either side recorded it, so two logs are
# diffed on exactly the union of what their models paid for.
_LOG_SEQUENCE_FIELDS = ("schedule", "syscalls", "sync_order",
                        "selective_order", "selective_syscalls",
                        "dialup_windows")
_LOG_CHANNEL_FIELDS = ("inputs", "outputs", "thread_reads",
                       "thread_inputs", "thread_syscalls",
                       "thread_spawns", "thread_paths",
                       "selective_inputs")


def diff_logs(expected, actual) -> DivergenceReport:
    """Compare two recording logs, halting at the first divergence.

    Logs of different determinism models diverge immediately on
    ``model`` - an honest answer, since their observables are not
    commensurable.  Identity metadata (case reference, scheduler seed,
    attestation stamp) is deliberately *not* compared: the question is
    whether two recordings show the same behaviour, not whether they
    are the same file.
    """
    sections: List[str] = ["model"]
    if expected.model != actual.model:
        point = DivergencePoint(
            kind="log:model",
            diffs=(FieldDiff("model", expected.model, actual.model),))
        return _report(DiffStatus.DIVERGED, point, sections, 0)

    steps = min(expected.total_steps, actual.total_steps)
    for name in _LOG_SEQUENCE_FIELDS:
        mine, theirs = getattr(expected, name), getattr(actual, name)
        if not mine and not theirs:
            continue
        sections.append(name)
        point = _diff_sequence(name, mine, theirs)
        if point is not None:
            point.kind = f"log:{name}"
            return _report(DiffStatus.DIVERGED, point, sections, steps)
    for name in _LOG_CHANNEL_FIELDS:
        mine, theirs = getattr(expected, name), getattr(actual, name)
        if not mine and not theirs:
            continue
        sections.append(name)
        point = _diff_channel_map(name, mine, theirs)
        if point is not None:
            point.kind = f"log:{name}"
            return _report(DiffStatus.DIVERGED, point, sections, steps)

    sections.append("failure")
    point = _diff_failure(expected.failure, actual.failure)
    if point is not None:
        point.kind = "log:failure"
        return _report(DiffStatus.DIVERGED, point, sections, steps)

    if expected.core_dump is not None or actual.core_dump is not None:
        sections.append("core_dump")
        point = _diff_core_dump(expected.core_dump, actual.core_dump)
        if point is not None:
            return _report(DiffStatus.DIVERGED, point, sections, steps)

    sections.append("counts")
    for name in ("total_steps", "native_cycles"):
        mine, theirs = getattr(expected, name), getattr(actual, name)
        if mine != theirs:
            point = DivergencePoint(
                kind="truncated" if name == "total_steps" else "cycles",
                step_index=min(expected.total_steps, actual.total_steps),
                diffs=(FieldDiff(name, mine, theirs),))
            status = (DiffStatus.TRUNCATED if name == "total_steps"
                      else DiffStatus.DIVERGED)
            return _report(status, point, sections, steps)
    return _matched(sections, steps)


def _diff_core_dump(expected, actual) -> Optional[DivergencePoint]:
    if (expected is None) != (actual is None):
        return DivergencePoint(
            kind="log:core_dump",
            diffs=(FieldDiff("core_dump", expected is not None,
                             actual is not None),))
    point = _diff_failure(expected.failure, actual.failure)
    if point is not None:
        point.kind = "log:core_dump"
        return point
    for name in ("final_memory", "outputs"):
        mine = getattr(expected, name)
        theirs = getattr(actual, name)
        if mine != theirs:
            return DivergencePoint(
                kind="log:core_dump",
                diffs=(FieldDiff(f"core_dump.{name}", mine, theirs),))
    return None


# -- log vs its replay --------------------------------------------------------


def diff_log_replay(log, result) -> DivergenceReport:
    """Diff a recording log against a replay of it.

    Model-aware by construction: only the observables the log actually
    *recorded*, and that its model's ``replay_matches`` contract holds a
    replay to, are compared - a full log is held to its exact schedule,
    an output log to its outputs and branch paths, a failure log only
    to its failure signature, and RCSE's advisory data-plane outputs
    are skipped.  This is the paper's relaxation hierarchy as a
    comparison: each model is judged on the determinism it claims,
    nothing more.  A sparse replay trace cannot be held to a schedule or
    branch paths, so it raises :class:`~repro.errors.SparseTraceError`.
    """
    sections: List[str] = []
    trace = result.trace
    if trace is not None:
        trace.require_every_step("diff_log_replay")
    steps = 0
    contract = _replay_contract(log.model)

    if ("schedule" in contract and log.schedule
            and trace is not None and trace.steps):
        sections.append("schedule")
        point = _diff_sequence("schedule", log.schedule, trace.schedule)
        if point is not None:
            index = point.step_index
            if index is not None and index < len(trace.steps):
                step = trace.steps[index]
                point.site = step.site
                point.tid = step.tid
            return _report(DiffStatus.DIVERGED, point, sections,
                           point.step_index or 0)
        steps = len(log.schedule)

    if "outputs" in contract and log.outputs:
        sections.append("outputs")
        outputs = trace.outputs if trace is not None else {}
        point = _diff_channel_map("outputs", log.outputs, outputs)
        if point is not None:
            return _report(DiffStatus.DIVERGED, point, sections, steps)

    if "branch-path" in contract and log.thread_paths:
        sections.append("branch-path")
        replayed = (trace.thread_branch_paths() if trace is not None
                    else {})
        point = _diff_branch_paths(log.thread_paths, replayed)
        if point is not None:
            return _report(DiffStatus.DIVERGED, point, sections, steps)

    sections.append("failure")
    point = _diff_failure(log.failure, result.failure)
    if point is not None:
        return _report(DiffStatus.DIVERGED, point, sections, steps)
    return _matched(sections, steps)


def _replay_contract(model_name: str) -> Tuple[str, ...]:
    """The sections ``model_name``'s replay is held to (all, if unknown)."""
    from repro.errors import UnknownModelError
    from repro.models.base import get_model
    try:
        return get_model(model_name).replay_matches
    except UnknownModelError:
        return ("schedule", "outputs", "branch-path", "failure")


# -- quarantine bucketing -----------------------------------------------------

_HEX_RUN = re.compile(r"[0-9a-f]{8,}")
_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")
_NUMBER = re.compile(r"\d+")


def normalize_error(error: str) -> str:
    """Collapse an error message to its shape.

    Digests, quoted paths/payloads, and counters vary per cell; the
    *class* of failure does not.  Stripping the volatile parts makes
    every "content attestation mismatch" (for example) normalize to one
    string, so a sweep's quarantines bucket by failure class instead of
    producing one bucket per cell.
    """
    text = (error or "").strip().splitlines()[-1] if error else ""
    text = _QUOTED.sub("'…'", text)
    text = _HEX_RUN.sub("#", text)
    text = _NUMBER.sub("N", text)
    return text


def quarantine_bucket(model: str, status: str, error: str) -> str:
    """The dedupe-bucket fingerprint of one quarantined/failed cell.

    A content address over (model, terminal status, normalized error
    shape) - the divergence fingerprint of a cell that never produced a
    comparable replay.  Cells injured the same way share a bucket, so
    the fleet ships one exemplar per bucket instead of every recording.
    """
    return content_address(
        ["quarantine", model, status, normalize_error(error)])
