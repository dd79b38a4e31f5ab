"""Data-race detection: happens-before and lockset analyses.

Two complementary detectors, as in the literature the paper cites for
trigger-based selection ([10], DataCollider-class detectors):

* :class:`HappensBeforeDetector` - vector-clock based; precise on the
  observed interleaving (no false positives), used online as a recording
  trigger.
* :class:`LocksetDetector` - Eraser-style; schedule-insensitive (a racy
  pair is flagged whatever interleaving the run happened to take), used
  by root-cause diagnosis where the replayed schedule may differ from the
  original.

Both consume the step stream, so they run either offline over a
:class:`~repro.vm.trace.Trace` or online as machine observers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.util.vclock import VectorClock
from repro.vm.memory import Location
from repro.vm.trace import StepRecord, Trace


@dataclass(frozen=True)
class RaceReport:
    """Two unordered conflicting accesses to one location."""

    location: Location
    site_a: str
    site_b: str
    tid_a: int
    tid_b: int
    is_write_write: bool

    @property
    def key(self) -> Tuple[Location, FrozenSet[str]]:
        """Schedule-independent identity of the racy pair."""
        return (self.location, frozenset((self.site_a, self.site_b)))

    def __str__(self) -> str:
        kind = "write/write" if self.is_write_write else "read/write"
        return (f"{kind} race on {self.location} between "
                f"t{self.tid_a}:{self.site_a} and t{self.tid_b}:{self.site_b}")


@dataclass
class _Access:
    tid: int
    site: str
    clock: VectorClock
    is_write: bool
    locks: FrozenSet[str]


class HappensBeforeDetector:
    """Vector-clock race detector over the step stream.

    Tracks one clock per thread and per mutex; spawn/join/lock/unlock
    create the happens-before edges.  An access races with a previous
    access when their clocks are concurrent and at least one is a write.
    """

    def __init__(self):
        self._thread_clocks: Dict[int, VectorClock] = {0: VectorClock().tick(0)}
        self._lock_clocks: Dict[str, VectorClock] = {}
        self._last_accesses: Dict[Location, List[_Access]] = {}
        self._held_locks: Dict[int, Set[str]] = {}
        self.reports: List[RaceReport] = []
        self.report_keys: Set[Tuple] = set()

    # -- observer interface -------------------------------------------------

    def observe(self, machine, step: StepRecord) -> List[RaceReport]:
        """Process one step; returns any *new* races it exposed."""
        return self.process(step)

    def process(self, step: StepRecord) -> List[RaceReport]:
        tid = step.tid
        clock = self._clock(tid)
        new_reports: List[RaceReport] = []
        if step.sync is not None:
            self._process_sync(tid, step)
            clock = self._clock(tid)
        held = frozenset(self._held_locks.get(tid, ()))
        for loc, __ in step.reads:
            new_reports.extend(
                self._access(loc, tid, step.site, clock, False, held))
        for loc, __ in step.writes:
            new_reports.extend(
                self._access(loc, tid, step.site, clock, True, held))
        return new_reports

    def run_on_trace(self, trace: Trace) -> List[RaceReport]:
        # Pure-register steps carry no sync/shared-memory effects, so the
        # detector's state is unchanged by them; the trace's cached event
        # subset skips them wholesale.
        for step in trace.memory_or_sync_events():
            self.process(step)
        return self.reports

    # -- internals ------------------------------------------------------------

    def _clock(self, tid: int) -> VectorClock:
        if tid not in self._thread_clocks:
            self._thread_clocks[tid] = VectorClock().tick(tid)
        return self._thread_clocks[tid]

    def _process_sync(self, tid: int, step: StepRecord) -> None:
        kind, obj = step.sync
        clock = self._clock(tid)
        if kind == "lock":
            self._held_locks.setdefault(tid, set()).add(obj)
            lock_clock = self._lock_clocks.get(obj)
            if lock_clock is not None:
                clock = clock.join(lock_clock)
        elif kind == "unlock":
            self._held_locks.setdefault(tid, set()).discard(obj)
            self._lock_clocks[obj] = clock
        elif kind == "spawn":
            child = obj
            self._thread_clocks[child] = clock.tick(child)
        elif kind == "join":
            child_clock = self._thread_clocks.get(obj)
            if child_clock is not None:
                clock = clock.join(child_clock)
        self._thread_clocks[tid] = clock.tick(tid)

    def _access(self, loc: Location, tid: int, site: str,
                clock: VectorClock, is_write: bool,
                held: FrozenSet[str]) -> List[RaceReport]:
        new_reports: List[RaceReport] = []
        history = self._last_accesses.setdefault(loc, [])
        for prior in history:
            if prior.tid == tid:
                continue
            if not (is_write or prior.is_write):
                continue
            if prior.clock.concurrent_with(clock):
                report = RaceReport(
                    location=loc, site_a=prior.site, site_b=site,
                    tid_a=prior.tid, tid_b=tid,
                    is_write_write=is_write and prior.is_write)
                if report.key not in self.report_keys:
                    self.report_keys.add(report.key)
                    self.reports.append(report)
                    new_reports.append(report)
        access = _Access(tid, site, clock, is_write, held)
        # Keep history bounded: a write supersedes everything it ordered.
        if is_write:
            history[:] = [a for a in history
                          if a.clock.concurrent_with(clock)]
        history.append(access)
        if len(history) > 16:
            del history[0]
        return new_reports


class LocksetDetector:
    """Eraser-style lockset analysis over the step stream.

    A location is racy when it is accessed by more than one thread with at
    least one write and the intersection of lock sets over all accesses is
    empty.  Insensitive to the particular interleaving, so a racy pair is
    reported even on runs where the accesses happened to be ordered.
    """

    def __init__(self):
        self._held_locks: Dict[int, Set[str]] = {}
        self._candidates: Dict[Location, Set[str]] = {}
        self._accessors: Dict[Location, Set[int]] = {}
        self._writers: Dict[Location, Set[int]] = {}
        self._sites: Dict[Location, Dict[int, str]] = {}

    def observe(self, machine, step: StepRecord) -> None:
        self.process(step)

    def process(self, step: StepRecord) -> None:
        tid = step.tid
        if step.sync is not None:
            kind, obj = step.sync
            if kind == "lock":
                self._held_locks.setdefault(tid, set()).add(obj)
            elif kind == "unlock":
                self._held_locks.setdefault(tid, set()).discard(obj)
        held = self._held_locks.get(tid, set())
        for loc, __ in step.reads:
            self._touch(loc, tid, step.site, held, is_write=False)
        for loc, __ in step.writes:
            self._touch(loc, tid, step.site, held, is_write=True)

    def run_on_trace(self, trace: Trace) -> List[RaceReport]:
        for step in trace.memory_or_sync_events():
            self.process(step)
        return self.racy_locations()

    def _touch(self, loc: Location, tid: int, site: str,
               held: Set[str], is_write: bool) -> None:
        if loc not in self._candidates:
            self._candidates[loc] = set(held)
        else:
            self._candidates[loc] &= held
        self._accessors.setdefault(loc, set()).add(tid)
        if is_write:
            self._writers.setdefault(loc, set()).add(tid)
        self._sites.setdefault(loc, {})[tid] = site

    def racy_locations(self) -> List[RaceReport]:
        """Locations whose candidate lockset is empty (shared + written)."""
        reports: List[RaceReport] = []
        for loc, lockset in self._candidates.items():
            accessors = self._accessors.get(loc, set())
            writers = self._writers.get(loc, set())
            if len(accessors) < 2 or not writers:
                continue
            if lockset:
                continue
            tids = sorted(accessors)
            sites = self._sites.get(loc, {})
            reports.append(RaceReport(
                location=loc,
                site_a=sites.get(tids[0], "?"),
                site_b=sites.get(tids[1], "?"),
                tid_a=tids[0], tid_b=tids[1],
                is_write_write=len(writers) > 1))
        return reports


def find_races(trace: Trace, method: str = "lockset") -> List[RaceReport]:
    """Convenience: run a detector over a complete trace."""
    if method == "lockset":
        return LocksetDetector().run_on_trace(trace)
    if method == "happens-before":
        return HappensBeforeDetector().run_on_trace(trace)
    raise ValueError(f"unknown race detection method {method!r}")


def cached_lockset_races(trace: Trace) -> List[RaceReport]:
    """Lockset analysis of ``trace``, memoized on the trace itself.

    Root-cause enumeration diagnoses the same trace repeatedly (once for
    search deduplication, once for the final cause set); caching turns
    those repeat O(n) passes into O(1) lookups.  The cache is keyed by
    the trace's step count so a trace that grows is re-analyzed.
    """
    cached = getattr(trace, "_lockset_cache", None)
    if cached is not None and cached[0] == trace.total_steps:
        return cached[1]
    reports = LocksetDetector().run_on_trace(trace)
    trace._lockset_cache = (trace.total_steps, reports)
    return reports
