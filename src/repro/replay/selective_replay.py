"""RCSE replay: precise where it was recorded, relaxed elsewhere.

Replays a :class:`~repro.record.selective.SelectiveRecorder` log by
enforcing exactly the constraints the recorder paid for:

* the global synchronization order (always recorded);
* the relative order of *recorded-class* steps - steps in control-plane
  functions plus steps inside trigger-dialed windows;
* recorded input values and syscall results for recorded-class steps.

Everything else - data-plane scheduling, data-plane syscall results - is
re-simulated with a fresh seed.  If the root cause lives in the recorded
region, the replay reproduces it; if the heuristics missed it, the replay
may diverge (counted, not hidden).  That asymmetry *is* the RCSE gamble
the paper describes.

Since the developer has the bug report, the replayer retries data-plane
seeds until the reported failure re-manifests (retries are charged as
inference cycles), mirroring how a debugging session actually uses a
best-effort replayer.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.record.log import RecordingLog
from repro.replay.base import Replayer, ReplayResult, TidMapper
from repro.replay.search import ExecutionSearch, InputSpace, SearchBudget
from repro.vm.environment import Environment
from repro.vm.failures import FailureReport, IOSpec
from repro.vm.machine import INTERCEPT_MISS, Machine
from repro.vm.program import Program
from repro.vm.scheduler import (RandomScheduler, Scheduler, quiet_inner,
                                 sticky_inner)
from repro.vm.thread import ThreadState


class GuidedOrderScheduler(Scheduler):
    """Enforces recorded sync order + recorded-class step order.

    Tolerates divergence: when no runnable thread can legally proceed the
    blocking queue head is skipped and counted, so a replay of an
    imperfect (relaxed) recording always makes progress.

    The inner scheduler only picks: it is never notified, so an inner
    that needs its ``notify`` is refused (as by
    :class:`~repro.vm.scheduler.SyncOrderScheduler`).
    """

    # Pervasive divergence means the recorded constraints no longer
    # describe this execution (e.g. re-randomized data-plane work
    # changed loop trip counts); past this many skipped queue heads the
    # replayer abandons the remaining constraints instead of thrashing.
    max_divergences = 200

    def __init__(self,
                 sync_order: List[Tuple[int, str, Any]],
                 selective_order: List[Tuple[int, str]],
                 control_plane: Set[str],
                 dialup_sites: Set[str],
                 mapper: TidMapper,
                 inner: Scheduler):
        self.sync_order = list(sync_order)
        self.selective_order = list(selective_order)
        self.control_plane = control_plane
        self.dialup_sites = dialup_sites
        self.mapper = mapper
        self.inner = quiet_inner(inner, "guided-order")
        self._sticky = sticky_inner(inner)
        self.sync_index = 0
        self.sel_index = 0
        self.divergences = 0
        self.abandoned = False

    # -- classification -----------------------------------------------------

    def records_next_step(self, threads: Dict[int, ThreadState],
                          tid: int) -> bool:
        """Whether thread ``tid``'s next step is of the recorded class:
        in a control-plane function or at a dial-up site.

        ``pc == len(body)`` is the implicit-ret virtual site: it
        executes (and is recorded) exactly like an explicit ret, so it
        is classified like any other site.
        """
        thread = threads[tid]
        if not thread.frames:
            return False
        frame = thread.frames[-1]
        name = frame.function.name
        return (name in self.control_plane
                or f"{name}@{frame.pc}" in self.dialup_sites)

    # -- scheduling -----------------------------------------------------------

    def _allowed(self, threads: Dict[int, ThreadState],
                 runnable: List[int]) -> List[int]:
        """The threads of ``runnable`` whose next step the queue heads
        admit (``runnable`` itself while no thread is held back)."""
        sync_open = self.sync_index < len(self.sync_order)
        sel_open = self.sel_index < len(self.selective_order)
        if not (sync_open or sel_open):
            return runnable
        if sync_open:
            sync_tid, sync_op, __ = self.sync_order[self.sync_index]
        if sel_open:
            sel_tid, sel_site = self.selective_order[self.sel_index]
        to_original = self.mapper.to_original
        control_plane = self.control_plane
        dialup_sites = self.dialup_sites
        allowed = runnable
        for position, tid in enumerate(runnable):
            # pc == len(body) is the implicit-ret site: no sync op, but
            # gated by the recorded order like any other site.
            frame = threads[tid].frames[-1]
            function = frame.function
            pc = frame.pc
            held = False
            if sync_open:
                op = function.sync_ops[pc]
                held = op is not None and (to_original(tid) != sync_tid
                                           or op != sync_op)
            if not held and sel_open:
                name = function.name
                if name in control_plane or (
                        dialup_sites and f"{name}@{pc}" in dialup_sites):
                    held = (to_original(tid) != sel_tid
                            or f"{name}@{pc}" != sel_site)
            if held:
                if allowed is runnable:
                    allowed = runnable[:position]
            elif allowed is not runnable:
                allowed.append(tid)
        return allowed

    def pick(self, machine: Machine, runnable: List[int]) -> int:
        threads = machine.threads
        sticky = self._sticky
        if sticky is not None:
            current = sticky.current
            if current in runnable and self._allowed(threads, [current]):
                # The current thread may run, so the allowed list holds
                # it: no queue head is skipped, and the stay is settled
                # from that thread alone.
                if sticky.keeps():
                    return current
                return sticky.switch(self._allowed(threads, runnable))
        # Skip queue heads until some thread can proceed (divergence
        # tolerance for relaxed recordings).
        while True:
            allowed = self._allowed(threads, runnable)
            if allowed:
                return self.inner.pick(machine, allowed)
            self.divergences += 1
            if self.divergences > self.max_divergences:
                self._abandon()
                return self.inner.pick(machine, runnable)
            if self.sel_index < len(self.selective_order):
                self.sel_index += 1
            elif self.sync_index < len(self.sync_order):
                self.sync_index += 1
            else:
                return self.inner.pick(machine, runnable)

    def _abandon(self) -> None:
        if not self.abandoned:
            self.abandoned = True
            self.sel_index = len(self.selective_order)
            self.sync_index = len(self.sync_order)

    def notify(self, step) -> None:
        mapped = self.mapper.to_original(step.tid)
        if (step.sync is not None
                and self.sync_index < len(self.sync_order)):
            expected_tid, expected_op, __ = self.sync_order[self.sync_index]
            if mapped == expected_tid and step.op == expected_op:
                self.sync_index += 1
        if self.sel_index < len(self.selective_order):
            function = step.function
            if function in self.control_plane or (
                    self.dialup_sites and step.site in self.dialup_sites):
                expected_tid, expected_site = (
                    self.selective_order[self.sel_index])
                if mapped == expected_tid and step.site == expected_site:
                    self.sel_index += 1


class SelectiveReplayer(Replayer):
    """Replays an RCSE log; retries data-plane seeds to hit the failure."""

    model = "rcse"

    def __init__(self,
                 base_inputs: Optional[Dict[str, List[Any]]] = None,
                 replay_seeds: Iterable[int] = range(12),
                 net_drop_rate: float = 0.0,
                 target_failure: Optional[FailureReport] = None):
        self.base_inputs = base_inputs or {}
        self.replay_seeds = list(replay_seeds)
        self.net_drop_rate = net_drop_rate
        self.target_failure = target_failure

    def replay(self, program: Program, log: RecordingLog,
               io_spec: Optional[IOSpec] = None) -> ReplayResult:
        target = self.target_failure or log.failure
        # The replay environment re-supplies the workload's inputs; the
        # partially recorded inputs (control-plane consumption and
        # dial-up windows) only fill channels the workload cannot
        # regenerate - overriding a re-suppliable channel with a partial
        # log would starve the replayed run.
        inputs = {k: list(v) for k, v in self.base_inputs.items()}
        for channel, values in log.selective_inputs.items():
            if channel not in inputs:
                inputs[channel] = list(values)
        search = ExecutionSearch(
            program, InputSpace.fixed(inputs),
            schedule_seeds=self.replay_seeds,
            build=partial(self._machine, program, log, io_spec))
        # The seed list is the only bound.  The first seed runs with full
        # tracing (a replay that lands the target failure at once needs
        # no second run); retries are trace-free - only the failure
        # signature is judged.
        outcome = search.search(
            lambda m: target is None or (m.failure is not None
                                         and target.same_failure(m.failure)),
            budget=SearchBudget(max_attempts=len(self.replay_seeds),
                                max_cycles=None))
        machine = outcome.machine
        inference_cycles = outcome.inference_cycles
        if machine is None:
            # No seed landed the failure: the last run is the replay.  It
            # is re-run with full tracing, and its charge refunded.
            machine = search.run_candidate(inputs, self.replay_seeds[-1])
            inference_cycles -= machine.meter.native_cycles
        return self._result_from_machine(
            self.model, machine, attempts=outcome.attempts,
            inference_cycles=inference_cycles,
            divergences=machine.scheduler.divergences)

    def _machine(self, program: Program, log: RecordingLog,
                 io_spec: Optional[IOSpec], inputs: Dict[str, List[Any]],
                 seed: int, trace_mode: str) -> Machine:
        """One candidate: the recorded orders around inner ``seed``, with
        recorded-class syscall results forced and a fresh data plane."""
        env = Environment(inputs=inputs, seed=90_000 + seed,
                          net_drop_rate=self.net_drop_rate)
        mapper = TidMapper(log.thread_spawns)
        control_plane = set(log.control_plane)
        dialup_sites = {site for __, site in
                        log.metadata.get("dialup_sites", [])}
        scheduler = GuidedOrderScheduler(
            log.sync_order, log.selective_order, control_plane,
            dialup_sites, mapper,
            inner=RandomScheduler(seed=seed, switch_prob=0.3))
        machine = Machine(program, env=env, scheduler=scheduler,
                          io_spec=io_spec,
                          max_steps=max(log.total_steps * 8, 20_000),
                          trace_mode=trace_mode)
        machine.add_observer(mapper.observe, sync_or_io=True)

        syscall_feed: Dict[int, List[Tuple[str, Any]]] = {}
        for tid, name, result in log.selective_syscalls:
            syscall_feed.setdefault(tid, []).append((name, result))
        cursors: Dict[int, int] = {}
        # The interceptor is stored on the machine, so it closes over the
        # threads mapping rather than the machine itself (no cycle).
        threads = machine.threads

        def force_control_syscalls(tid: int, kind: str, name: str, actual):
            if kind != "syscall" or not scheduler.records_next_step(threads,
                                                                    tid):
                return INTERCEPT_MISS
            mapped = mapper.to_original(tid)
            queue = syscall_feed.get(mapped, [])
            cursor = cursors.get(mapped, 0)
            if cursor >= len(queue) or queue[cursor][0] != name:
                return INTERCEPT_MISS
            cursors[mapped] = cursor + 1
            return queue[cursor][1]

        machine.io_interceptor = force_control_syscalls
        return machine
