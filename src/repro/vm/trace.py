"""Execution traces: the ground truth recorders and analyzers observe.

A :class:`StepRecord` describes the externally relevant effects of one
executed instruction: which thread ran, what it read and wrote in shared
memory, which synchronization/I-O events it performed, and which branch
direction it took.  A :class:`Trace` is the full step sequence plus run
metadata.

Sparse traces
-------------
An ``events``-mode run (:mod:`repro.vm.machine`) keeps a *sparse* trace:
``steps`` holds only the steps that read or wrote shared memory,
synchronized, or did I/O, each with its true global ``index``; the
schedule and branch paths stay empty; outputs, consumed inputs, the
failure, cycles and ``total_steps`` are those of the whole run.  A
sparse trace sets ``sparse``.  On it the event-subset queries
(``io_events``, ``sync_events``, ``shared_accesses``, ``write_events``,
``memory_or_sync_events``) answer exactly as on the full trace of the
same run, and ``last_write_before`` keys on ``StepRecord.index``, so it
answers as on a full trace too.  Every query that needs every step -
``sites_executed``, ``steps_at_site``, ``per_thread_steps``,
``context_switches``, ``thread_branch_paths``, ``first_divergence``,
``fingerprint`` - raises :class:`~repro.errors.SparseTraceError`.

Recorders do not get to peek at anything a real recorder could not see;
each one subscribes to the step stream and logs only the events its
determinism model pays for.

Performance notes
-----------------
``StepRecord`` is slotted and allocates *no* per-step ``reads``/``writes``
lists: both default to a shared empty tuple and the interpreter assigns a
real list only on the (rare) steps that actually touch shared memory.

``Trace`` maintains lazily built indexes - per-location writes keyed by
global step number, per-site positions, cached io/sync/shared-access/
write/memory-or-sync event lists and per-thread branch paths - so the
analysis passes (race detection, root-cause diagnosis, replay search)
ask O(log n)/O(1) questions instead of rescanning the full step list.
Each index has its own watermark and is extended only when a query that
reads it asks, so the hot ``append`` path pays nothing, and a caller of
one query (the lockset detector reads only ``memory_or_sync_events``)
builds no other index - no site string is formatted unless a site query
asks.  They assume steps are only ever *appended*; do not mutate
``trace.steps`` in place.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SparseTraceError
from repro.vm.failures import FailureReport
from repro.vm.memory import Location

# Shared default for steps that touch no shared memory: truthiness,
# iteration, and indexing behave like an empty list without allocating.
_NO_EFFECTS: Tuple = ()


# The per-step fields two runs can observably disagree on, in the order
# a field-level diff reports them.  ``index`` is excluded: positions are
# the comparison *key*, not an observable effect.
STEP_FIELDS = ("tid", "function", "pc", "op", "cost",
               "reads", "writes", "sync", "io", "branch_taken")


class StepRecord:
    """Observable effects of one executed instruction."""

    __slots__ = ("index", "tid", "function", "pc", "op", "cost",
                 "reads", "writes", "sync", "io", "branch_taken")

    def __init__(self,
                 index: int,
                 tid: int,
                 function: str,
                 pc: int,
                 op: str,
                 cost: int,
                 reads=None,
                 writes=None,
                 sync: Optional[Tuple[str, Any]] = None,
                 io: Optional[Tuple[str, str, Any]] = None,
                 branch_taken: Optional[bool] = None):
        self.index = index            # global step number
        self.tid = tid                # executing thread
        self.function = function     # enclosing function name
        self.pc = pc                  # program counter within the function
        self.op = op                  # opcode executed
        self.cost = cost              # base cycles charged
        # (location, value) pairs; empty tuple when the step touched nothing.
        self.reads = _NO_EFFECTS if reads is None else reads
        self.writes = _NO_EFFECTS if writes is None else writes
        # sync: ("lock"|"unlock"|"spawn"|"join", object)  e.g. ("lock", "m")
        self.sync = sync
        # io: ("input"|"output"|"syscall", channel_or_name, value_or_result)
        self.io = io
        # branch outcome: None for non-branches, else True (taken) / False
        self.branch_taken = branch_taken

    @property
    def site(self) -> str:
        """The static code site ``function@pc`` of this step."""
        return f"{self.function}@{self.pc}"

    def _key(self) -> Tuple:
        return (self.index, self.tid, self.function, self.pc, self.op,
                self.cost, tuple(self.reads), tuple(self.writes),
                self.sync, self.io, self.branch_taken)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepRecord):
            return NotImplemented
        return self._key() == other._key()

    def field_diffs(self, other: "StepRecord") -> List[Tuple[str, Any, Any]]:
        """Field-level differences against another step.

        Returns ``(field, mine, theirs)`` triples over
        :data:`STEP_FIELDS`, empty when the two steps are observably
        identical.  Effect lists are compared as tuples so a trace whose
        interpreter allocated lists and one restored from a snapshot
        (shared tuples) compare equal - the same normalization
        :meth:`_key` applies.
        """
        diffs: List[Tuple[str, Any, Any]] = []
        for name in STEP_FIELDS:
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if name in ("reads", "writes"):
                mine, theirs = tuple(mine), tuple(theirs)
            if mine != theirs:
                diffs.append((name, mine, theirs))
        return diffs

    def __repr__(self) -> str:
        extras = []
        if self.reads:
            extras.append(f"reads={list(self.reads)}")
        if self.writes:
            extras.append(f"writes={list(self.writes)}")
        if self.sync is not None:
            extras.append(f"sync={self.sync}")
        if self.io is not None:
            extras.append(f"io={self.io}")
        if self.branch_taken is not None:
            extras.append(f"branch_taken={self.branch_taken}")
        tail = (", " + ", ".join(extras)) if extras else ""
        return (f"StepRecord({self.index}, t{self.tid}, "
                f"{self.function}@{self.pc} {self.op}{tail})")


class Trace:
    """An execution trace plus run metadata.

    A full trace holds every step and the schedule.  A counting-mode
    trace holds no steps, only counts and branch paths.  A ``sparse``
    (events-mode) trace holds only the effect steps, and refuses the
    queries that need every step (see the module docstring).
    """

    def __init__(self,
                 steps: Optional[List[StepRecord]] = None,
                 schedule: Optional[List[int]] = None,
                 outputs: Optional[Dict[str, List[Any]]] = None,
                 inputs_consumed: Optional[Dict[str, List[Any]]] = None,
                 failure: Optional[FailureReport] = None,
                 native_cycles: int = 0,
                 total_steps: int = 0):
        self.steps: List[StepRecord] = steps if steps is not None else []
        self.schedule: List[int] = (schedule if schedule is not None
                                    else [s.tid for s in self.steps])
        self.outputs: Dict[str, List[Any]] = outputs or {}
        self.inputs_consumed: Dict[str, List[Any]] = inputs_consumed or {}
        self.failure = failure
        self.native_cycles = native_cycles
        self.total_steps = total_steps or len(self.steps)
        # Set by an events-mode machine: ``steps`` holds effect steps only.
        self.sparse = False
        # Lazily built indexes, each covering the first _indexed[name]
        # steps (see _unindexed).
        self._indexed: Dict[str, int] = {}
        # loc -> (global step indexes, records) of the writes to it.
        self._write_index: Dict[Location,
                                Tuple[List[int], List[StepRecord]]] = {}
        self._site_index: Dict[str, List[int]] = {}
        self._sites: List[str] = []
        self._io_steps: List[StepRecord] = []
        self._sync_steps: List[StepRecord] = []
        self._shared_steps: List[StepRecord] = []
        self._write_steps: List[StepRecord] = []
        self._memory_or_sync_steps: List[StepRecord] = []
        self._branch_paths: Dict[int, List[bool]] = {}

    def append(self, step: StepRecord) -> None:
        self.steps.append(step)
        self.schedule.append(step.tid)
        self.total_steps += 1

    def record_branch(self, tid: int, taken: bool) -> None:
        """Record a branch outcome without a step (counting-mode runs).

        Counting-mode machines keep no step records but still log the
        per-thread branch paths, which output-deterministic replay needs
        to judge candidates (:meth:`thread_branch_paths`).
        """
        path = self._branch_paths.get(tid)
        if path is None:
            path = self._branch_paths[tid] = []
        path.append(taken)

    def fork(self) -> "Trace":
        """A mid-run copy for machine snapshot/fork.

        Step records are immutable once appended, so the copy shares them
        and only the list spines are duplicated; lazy indexes rebuild on
        first query.  For trace-free (counting) traces the out-of-band
        branch paths are copied instead - they are the only per-step state
        such traces carry.  A sparse trace forks sparse.
        """
        twin = Trace(
            steps=list(self.steps),
            schedule=list(self.schedule),
            outputs={k: list(v) for k, v in self.outputs.items()},
            inputs_consumed={k: list(v)
                             for k, v in self.inputs_consumed.items()},
            failure=self.failure,
            native_cycles=self.native_cycles,
            total_steps=self.total_steps,
        )
        twin.sparse = self.sparse
        if not self.steps and self._branch_paths:
            # Counting-mode trace: branch paths were recorded out of band
            # (with steps present they rebuild lazily from the step list).
            twin._branch_paths = {tid: list(path)
                                  for tid, path in self._branch_paths.items()}
        return twin

    # -- lazy index maintenance -----------------------------------------

    def _unindexed(self, index: str) -> List[StepRecord]:
        """The steps appended since ``index`` was last extended, which
        the caller adds to it; ``index`` now covers every step."""
        steps = self.steps
        upto = self._indexed.get(index, 0)
        self._indexed[index] = len(steps)
        return steps[upto:] if upto else steps

    def require_every_step(self, query: str) -> None:
        """Refuse ``query`` on a sparse trace: it needs every step."""
        if self.sparse:
            raise SparseTraceError(
                f"{query} needs every step, but this trace is sparse: an "
                f"events-mode run keeps only its {len(self.steps)} effect "
                f"steps of {self.total_steps}, and no schedule or branch "
                f"paths")

    # -- queries ---------------------------------------------------------

    def per_thread_steps(self) -> Dict[int, List[StepRecord]]:
        """Group steps by thread, preserving per-thread order."""
        self.require_every_step("per_thread_steps")
        grouped: Dict[int, List[StepRecord]] = {}
        for step in self.steps:
            grouped.setdefault(step.tid, []).append(step)
        return grouped

    def context_switches(self) -> int:
        """Number of points where the running thread changed."""
        self.require_every_step("context_switches")
        switches = 0
        for prev, cur in zip(self.schedule, self.schedule[1:]):
            if prev != cur:
                switches += 1
        return switches

    def _extend_sites(self) -> None:
        sites = self._sites
        site_index = self._site_index
        for step in self._unindexed("sites"):
            site = f"{step.function}@{step.pc}"
            site_index.setdefault(site, []).append(len(sites))
            sites.append(site)

    def sites_executed(self) -> List[str]:
        """Static sites in execution order (used by slicing/diagnosis)."""
        self.require_every_step("sites_executed")
        self._extend_sites()
        return list(self._sites)

    def steps_at_site(self, site: str) -> List[StepRecord]:
        """Every step executed at static site ``function@pc``, in order."""
        self.require_every_step("steps_at_site")
        self._extend_sites()
        return [self.steps[pos] for pos in self._site_index.get(site, ())]

    def io_events(self) -> List[StepRecord]:
        self._io_steps += [step for step in self._unindexed("io")
                           if step.io is not None]
        return list(self._io_steps)

    def sync_events(self) -> List[StepRecord]:
        self._sync_steps += [step for step in self._unindexed("sync")
                             if step.sync is not None]
        return list(self._sync_steps)

    def shared_accesses(self) -> List[StepRecord]:
        self._shared_steps += [step for step in self._unindexed("shared")
                               if step.reads or step.writes]
        return list(self._shared_steps)

    def write_events(self) -> List[StepRecord]:
        """Steps that wrote shared memory, in execution order."""
        self._write_steps += [step for step in self._unindexed("write")
                              if step.writes]
        return list(self._write_steps)

    def memory_or_sync_events(self) -> List[StepRecord]:
        """Steps with shared-memory or synchronization effects, in order.

        Race detectors only react to these; iterating this cached subset
        instead of ``steps`` skips the (dominant) pure-register steps.
        """
        self._memory_or_sync_steps += [
            step for step in self._unindexed("memory_or_sync")
            if step.reads or step.writes or step.sync is not None]
        return list(self._memory_or_sync_steps)

    def thread_branch_paths(self) -> Dict[int, List[bool]]:
        """Per-thread branch outcome sequences (path-determinism checks)."""
        self.require_every_step("thread_branch_paths")
        paths = self._branch_paths
        for step in self._unindexed("branches"):
            if step.branch_taken is not None:
                paths.setdefault(step.tid, []).append(step.branch_taken)
        return {tid: list(path) for tid, path in paths.items()}

    # -- step-keyed comparison -------------------------------------------

    def first_divergence(self, other: "Trace"
                         ) -> Optional[Tuple[int,
                                             List[Tuple[str, Any, Any]]]]:
        """First step where this trace and ``other`` observably differ.

        Walks the common step prefix and returns ``(index, diffs)`` for
        the first position whose records disagree, where ``diffs`` is
        the per-field ``(field, mine, theirs)`` breakdown from
        :meth:`StepRecord.field_diffs` - the structured replacement for
        "the fingerprints differ".  Returns ``None`` when the common
        prefix is identical; a pure length difference is the *caller's*
        verdict (truncation, not divergence), because whichever run is
        shorter executed no step to disagree at.
        """
        self.require_every_step("first_divergence")
        other.require_every_step("first_divergence")
        for mine, theirs in zip(self.steps, other.steps):
            diffs = mine.field_diffs(theirs)
            if diffs:
                return mine.index, diffs
        return None

    def fingerprint(self) -> str:
        """Stable digest of the full observable behaviour of this run.

        Covers every step's effects (reads, writes, sync, io, branch
        outcomes, costs), the schedule, the failure report, outputs,
        consumed inputs, and the metered native cycles.  Two runs with
        the same fingerprint are observationally identical; the golden
        determinism regression test pins these digests so performance
        work on the interpreter cannot silently change semantics.
        """
        self.require_every_step("fingerprint")
        digest = hashlib.sha256()
        for step in self.steps:
            digest.update(repr(step._key()).encode("utf-8"))
            digest.update(b"\n")
        digest.update(repr(self.schedule).encode("utf-8"))
        failure = self.failure
        if failure is not None:
            digest.update(repr((failure.kind.value, failure.location,
                                failure.detail, failure.tid,
                                failure.step_index)).encode("utf-8"))
        digest.update(repr(sorted(self.outputs.items())).encode("utf-8"))
        digest.update(repr(sorted(
            self.inputs_consumed.items())).encode("utf-8"))
        digest.update(str(self.native_cycles).encode("utf-8"))
        return digest.hexdigest()

    def last_write_before(self, loc: Location,
                          step_index: int) -> Optional[StepRecord]:
        """Most recent write to ``loc`` strictly before ``step_index``.

        ``step_index`` is a global step number (``StepRecord.index``),
        and the per-location write index is keyed on it, so a sparse
        trace - which keeps every write - answers as a full one does.
        O(log n): a bisect finds the last write preceding ``step_index``.
        """
        write_index = self._write_index
        for step in self._unindexed("write_index"):
            for written, __ in step.writes:
                writes = write_index.get(written)
                if writes is None:
                    writes = write_index[written] = ([], [])
                writes[0].append(step.index)
                writes[1].append(step)
        writes = write_index.get(loc)
        if writes is None:
            return None
        cut = bisect_left(writes[0], step_index)
        if cut == 0:
            return None
        return writes[1][cut - 1]
