"""Value-deterministic replay (iDNA-class).

Each thread re-executes with every shared-memory read, input, and syscall
result fed from its per-thread log.  Threads therefore recompute exactly
their original data flow - same values at the same execution points - and
the original failure re-manifests in the failing thread.

Cross-thread scheduling is *not* reconstructed (it was never recorded):
threads are interleaved by an arbitrary round-robin.  This is the paper's
point about value determinism: the developer sees correct per-thread
values but must reason about cross-CPU causality without help.
"""

from __future__ import annotations

from typing import Optional

from repro.record.log import RecordingLog
from repro.replay.base import (PerThreadFeed, Replayer, ReplayResult,
                               TidMapper)
from repro.vm.environment import Environment
from repro.vm.failures import IOSpec
from repro.vm.machine import INTERCEPT_MISS, Machine
from repro.vm.program import Program
from repro.vm.scheduler import RoundRobinScheduler


class ValueReplayer(Replayer):
    """Replays a :class:`~repro.record.value.ValueRecorder` log."""

    model = "value"

    def __init__(self, quantum: int = 50):
        # A coarse quantum keeps per-thread execution contiguous, which is
        # how instruction-level tracing frameworks replay threads.
        self.quantum = quantum

    def replay(self, program: Program, log: RecordingLog,
               io_spec: Optional[IOSpec] = None) -> ReplayResult:
        env = Environment(inputs={}, seed=0)
        machine = Machine(
            program, env=env,
            scheduler=RoundRobinScheduler(quantum=self.quantum),
            io_spec=io_spec,
            max_steps=max(log.total_steps * 4, 1000))

        mapper = TidMapper(log.thread_spawns)
        machine.add_observer(mapper.observe, sync_or_io=True)
        reads = PerThreadFeed(log.thread_reads)
        inputs = PerThreadFeed(log.thread_inputs)
        syscalls = PerThreadFeed(log.thread_syscalls)
        divergences = [0]

        def force_reads(tid: int, loc, actual):
            value = reads.next_value(mapper.to_original(tid))
            if value is None:
                divergences[0] += 1
                return INTERCEPT_MISS
            return value

        def force_io(tid: int, kind: str, name: str, actual):
            if kind == "input":
                entry = inputs.next_value(mapper.to_original(tid))
            elif kind == "syscall":
                entry = syscalls.next_value(mapper.to_original(tid))
            else:
                return INTERCEPT_MISS
            if entry is None:
                divergences[0] += 1
                return INTERCEPT_MISS
            recorded_name, value = entry
            if recorded_name != name:
                divergences[0] += 1
                return INTERCEPT_MISS
            return value

        machine.load_interceptor = force_reads
        machine.io_interceptor = force_io
        machine.run()
        return self._result_from_machine(
            self.model, machine,
            divergences=divergences[0] + mapper.unmatched_spawns)
