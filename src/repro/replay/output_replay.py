"""Output-deterministic replay (ODR-class), both recording schemes.

:class:`OutputOnlyReplayer` reconstructs an execution from outputs alone
by searching the input/schedule space for *any* run with identical
outputs.  As §2 of the paper warns, the first such run may be a correct
execution that never fails (output 5 from inputs 1+4), in which case the
replay is useless for debugging - debugging fidelity 0.

:class:`OdrReplayer` replays the practical scheme (inputs + per-thread
paths + sync order recorded): it re-runs under the recorded sync order
and searches only over the residual race interleavings until the
replayed run matches the recorded outputs and branch paths.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional

from repro.record.log import RecordingLog
from repro.replay.base import PerThreadFeed, Replayer, ReplayResult, TidMapper
from repro.replay.search import (ExecutionSearch, InputSpace, SearchBudget,
                                 divergent_output_abort)
from repro.vm.environment import Environment
from repro.vm.failures import IOSpec
from repro.vm.machine import INTERCEPT_MISS, Machine
from repro.vm.program import Program
from repro.vm.scheduler import RandomScheduler, SyncOrderScheduler


def outputs_match(machine: Machine, recorded_outputs) -> bool:
    """Exact equality on every output channel."""
    return machine.env.outputs == recorded_outputs


class OutputOnlyReplayer(Replayer):
    """Infers an execution whose outputs equal the recorded outputs."""

    model = "output"

    def __init__(self, input_space: InputSpace,
                 schedule_seeds: Iterable[int] = range(8),
                 budget: Optional[SearchBudget] = None,
                 net_drop_rate: float = 0.0):
        self.input_space = input_space
        self.schedule_seeds = list(schedule_seeds)
        self.budget = budget or SearchBudget()
        self.net_drop_rate = net_drop_rate

    def replay(self, program: Program, log: RecordingLog,
               io_spec: Optional[IOSpec] = None) -> ReplayResult:
        search = ExecutionSearch(
            program, self.input_space,
            schedule_seeds=self.schedule_seeds,
            io_spec=io_spec, net_drop_rate=self.net_drop_rate)
        # Candidates after the first run trace-free, and each dies at its
        # first output value that diverges from the log.
        outcome = search.search(
            lambda m: outputs_match(m, log.outputs), budget=self.budget,
            early_abort=divergent_output_abort(log.outputs))
        return self._result_from_outcome(self.model, outcome)


class OdrReplayer(Replayer):
    """Replays inputs+path+sync-order logs, inferring race outcomes.

    The recorded synchronization order constrains lock acquisitions; the
    interleaving of *racing* (unsynchronized) accesses is searched until
    the run reproduces the recorded outputs and per-thread branch paths.
    A run that matches is output- and path-equivalent to the original,
    which is everything this model guarantees.
    """

    model = "output"

    def __init__(self, inner_seeds: Iterable[int] = range(64),
                 budget: Optional[SearchBudget] = None):
        self.inner_seeds = list(inner_seeds)
        self.budget = budget or SearchBudget()

    def replay(self, program: Program, log: RecordingLog,
               io_spec: Optional[IOSpec] = None) -> ReplayResult:
        # The recorded inputs under each inner seed.  The first candidate
        # keeps full tracing; retries run trace-free (branch paths are
        # still collected - the acceptor needs them) and die at the first
        # output that diverges from the recorded log.  A candidate whose
        # race interleaving breaks the recorded sync order is rejected.
        search = ExecutionSearch(
            program, InputSpace.fixed(log.inputs),
            schedule_seeds=self.inner_seeds,
            build=partial(self._machine, program, log, io_spec))
        outcome = search.search(
            lambda m: (outputs_match(m, log.outputs)
                       and self._paths_match(m, log)),
            budget=self.budget,
            early_abort=divergent_output_abort(log.outputs))
        return self._result_from_outcome(self.model, outcome)

    @staticmethod
    def _machine(program: Program, log: RecordingLog,
                 io_spec: Optional[IOSpec], inputs: Dict[str, List[Any]],
                 seed: int, trace_mode: str) -> Machine:
        """One candidate: the recorded sync order around inner ``seed``,
        with each thread's recorded inputs and syscall results forced."""
        env = Environment(inputs=inputs, seed=0)
        scheduler = SyncOrderScheduler(
            log.sync_order, inner=RandomScheduler(seed=seed,
                                                  switch_prob=0.3))
        machine = Machine(program, env=env, scheduler=scheduler,
                          io_spec=io_spec,
                          max_steps=max(log.total_steps * 4, 1000),
                          trace_mode=trace_mode)
        mapper = TidMapper(log.thread_spawns)
        machine.add_observer(mapper.observe, sync_or_io=True)
        feeds = {"input": PerThreadFeed(log.thread_inputs),
                 "syscall": PerThreadFeed(log.thread_syscalls)}

        def force_io(tid: int, kind: str, name: str, actual):
            feed = feeds.get(kind)
            if feed is None:
                return INTERCEPT_MISS
            entry = feed.next_value(mapper.to_original(tid))
            if entry is None or entry[0] != name:
                return INTERCEPT_MISS
            return entry[1]

        machine.io_interceptor = force_io
        return machine

    @staticmethod
    def _paths_match(machine: Machine, log: RecordingLog) -> bool:
        replayed = machine.trace.thread_branch_paths()
        # Compare as multisets of per-thread paths: tids may be renumbered
        # between runs, but each recorded thread's path must be realized.
        recorded = sorted(map(tuple, log.thread_paths.values()))
        actual = sorted(map(tuple, replayed.values()))
        return recorded == actual
