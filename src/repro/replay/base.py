"""Replayer interface, replay results, and shared replay machinery."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.record.log import RecordingLog
from repro.replay.search import SearchOutcome
from repro.vm.failures import FailureReport, IOSpec
from repro.vm.machine import Machine
from repro.vm.program import Program
from repro.vm.trace import StepRecord, Trace


@dataclass
class ReplayResult:
    """Outcome of one replay-debugging session.

    ``inference_cycles`` counts the simulated cycles spent *searching* for
    an execution (all rejected attempts included); ``replay_cycles`` is
    the cost of the final accepted execution.  Debugging efficiency is
    original cycles over their sum.
    """

    model: str
    trace: Optional[Trace]
    failure: Optional[FailureReport]
    replay_cycles: int = 0
    inference_cycles: int = 0
    attempts: int = 1
    divergences: int = 0
    found: bool = True
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_debug_cycles(self) -> int:
        return self.replay_cycles + self.inference_cycles

    def reproduced_failure(self, original: Optional[FailureReport]) -> bool:
        """Did this replay exhibit the original failure?"""
        if original is None or self.failure is None:
            return False
        return original.same_failure(self.failure)


class Replayer:
    """Base class: replays a recording log into an execution."""

    model: str = "abstract"

    def replay(self, program: Program, log: RecordingLog,
               io_spec: Optional[IOSpec] = None) -> ReplayResult:
        raise NotImplementedError

    @staticmethod
    def _result_from_machine(model: str, machine: Machine,
                             **extra) -> ReplayResult:
        return ReplayResult(
            model=model,
            trace=machine.trace,
            failure=machine.failure,
            replay_cycles=machine.meter.native_cycles,
            **extra,
        )

    @staticmethod
    def _result_from_outcome(model: str,
                             outcome: SearchOutcome) -> ReplayResult:
        """The replay a search found, or a not-found result charging
        what it explored."""
        if not outcome.found or outcome.machine is None:
            return ReplayResult(model=model, trace=None, failure=None,
                                inference_cycles=outcome.inference_cycles,
                                attempts=outcome.attempts, found=False)
        # outcome.inference_cycles already excludes the accepted execution.
        return Replayer._result_from_machine(
            model, outcome.machine, attempts=outcome.attempts,
            inference_cycles=outcome.inference_cycles)


class TidMapper:
    """Maps replay-run thread ids to original-run thread ids.

    Thread ids are assigned in global spawn order, which can differ
    between runs when multiple threads spawn concurrently.  Recorders log
    per-parent spawn sequences (``thread_spawns``); this mapper walks the
    same sequences during replay so per-thread logs are read by the right
    thread.  Install :meth:`observe` as a machine observer; it reads only
    spawn steps, so it can subscribe with ``sync_or_io=True``.
    """

    def __init__(self, thread_spawns: Dict[int, List[Tuple[str, int]]]):
        self._orig_spawns = thread_spawns
        self._replay_to_orig: Dict[int, int] = {0: 0}
        self._spawn_counts: Dict[int, int] = {}
        self.unmatched_spawns = 0

    def observe(self, machine: Machine, step: StepRecord) -> None:
        if step.sync is None or step.op != "spawn":
            return
        replay_child = step.sync[1]
        parent_orig = self._replay_to_orig.get(step.tid)
        if parent_orig is None:
            self.unmatched_spawns += 1
            return
        index = self._spawn_counts.get(parent_orig, 0)
        self._spawn_counts[parent_orig] = index + 1
        recorded = self._orig_spawns.get(parent_orig, [])
        if index < len(recorded):
            self._replay_to_orig[replay_child] = recorded[index][1]
        else:
            self.unmatched_spawns += 1

    def to_original(self, replay_tid: int) -> Optional[int]:
        return self._replay_to_orig.get(replay_tid)


class PerThreadFeed:
    """Per-original-thread FIFO feeds for reads/inputs/syscalls."""

    def __init__(self, per_thread: Dict[int, List[Any]]):
        self._queues = {tid: list(values)
                        for tid, values in per_thread.items()}
        self._cursor = {tid: 0 for tid in self._queues}
        self.misses = 0

    def next_value(self, orig_tid: Optional[int]):
        """Pop the next recorded value for a thread (None = miss)."""
        if orig_tid is None or orig_tid not in self._queues:
            self.misses += 1
            return None
        cursor = self._cursor[orig_tid]
        queue = self._queues[orig_tid]
        if cursor >= len(queue):
            self.misses += 1
            return None
        self._cursor[orig_tid] = cursor + 1
        return queue[cursor]

    def exhausted(self) -> bool:
        return all(self._cursor[tid] >= len(q)
                   for tid, q in self._queues.items())
