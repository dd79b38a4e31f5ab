"""Oracle: the run loop's keep rule and the sticky picks make the
decisions pick-every-step made.

Plain runs: a :class:`~repro.vm.scheduler.RandomScheduler` hands the
run loop a keep rule, so between two steps of one thread the loop draws
the keep itself and calls the scheduler only on a switch; in
``counting`` and ``events`` mode a pure run draws it between a thread's
register-only steps.  The reference is a subclass whose ``pick`` is
overridden (it calls the base pick), so it offers no keep rule and is
asked on every step.  Each case runs at its failing seed under both, in
every trace mode, and the runs must agree: the fingerprint in ``full``;
steps, cycles, outputs, failure and branch paths in ``counting``; the
effect steps in ``events``.  The limits oracle cuts the ``counting`` and
``events`` runs at seeded step limits and cycle ceilings: both must stop
at the same step and cycle, with the same flags, and with the
scheduler's stream at the same state.

Replays: around a RandomScheduler, the constraining schedulers -
:class:`~repro.vm.scheduler.SyncOrderScheduler` (the output model's ODR
replay), whose keep rule the loop uses between sync ops, and
:class:`~repro.replay.selective_replay.GuidedOrderScheduler` (rcse),
whose pick settles a stay from the current thread alone - build the
allowed list only when a pick needs it.  This oracle keeps the
schedulers they replaced as references: they scan every runnable thread
on every step and hand the allowed list to ``inner.pick``.  Each case is
recorded and shipped once, then the workstation replays it under both,
and the two replays must agree on ``attempts``, ``inference_cycles``,
``found`` and the replay trace's fingerprint.

Tier-1 covers the seven apps and corpus seeds 0-23;
``benchmarks/bench_schedulers.py`` runs the same oracles over corpus
seeds 0-119.  Pure runs also keep the undefined-register error and every
every-step observer call of a run that asks for one.
"""

from collections import Counter
from contextlib import contextmanager
from typing import Optional, Tuple
from unittest import mock

import pytest

from repro.apps import ALL_APPS
from repro.apps.base import find_failing_seed
from repro.errors import MachineError, ReplayDivergenceError
from repro.models import DebugSession
from repro.models.session import resolve_case
from repro.replay import output_replay, selective_replay
from repro.replay.base import TidMapper
from repro.util.rng import DeterministicRng
from repro.vm import Machine, RandomScheduler, assemble
from repro.vm.cost import CostModel
from repro.vm.environment import Environment
from repro.vm.machine import code_table
from repro.vm.scheduler import SyncOrderScheduler

MODELS = ("output", "rcse")
TRACE_MODES = ("full", "counting", "events")
# The modes a pure run serves.
SPARSE_MODES = ("counting", "events")


class PickEveryStepRandom(RandomScheduler):
    """The production scheduler with its pick overridden: it offers no
    keep rule, so the run loop asks it on every step."""

    def pick(self, machine, runnable):
        return super().pick(machine, runnable)


class FilterThenPickSyncOrder(SyncOrderScheduler):
    """The sync-order pick before sticky picks: filter, then pick."""

    def pick(self, machine, runnable):
        index = self._index
        if index >= len(self.sync_order):
            return self._inner.pick(machine, runnable)
        expected_tid, expected_op, __ = self.sync_order[index]
        threads = machine.threads
        allowed = runnable
        for position, tid in enumerate(runnable):
            frame = threads[tid].frames[-1]
            op = frame.function.sync_ops[frame.pc]
            if op is not None and (tid != expected_tid
                                   or op != expected_op):
                if allowed is runnable:
                    allowed = runnable[:position]
                continue
            if allowed is not runnable:
                allowed.append(tid)
        if not allowed:
            raise ReplayDivergenceError(
                f"sync-order replay stuck at event {index}")
        return self._inner.pick(machine, allowed)


class FilterThenPickGuidedOrder(selective_replay.GuidedOrderScheduler):
    """The guided-order pick before sticky picks: filter, then pick."""

    def _filtered(self, machine, runnable):
        sync_open = self.sync_index < len(self.sync_order)
        sel_open = self.sel_index < len(self.selective_order)
        if not (sync_open or sel_open):
            return runnable
        if sync_open:
            sync_tid, sync_op, __ = self.sync_order[self.sync_index]
        if sel_open:
            sel_tid, sel_site = self.selective_order[self.sel_index]
        to_original = self.mapper.to_original
        allowed = runnable
        for position, tid in enumerate(runnable):
            frame = machine.threads[tid].frames[-1]
            function = frame.function
            pc = frame.pc
            held = False
            if sync_open:
                op = function.sync_ops[pc]
                held = op is not None and (to_original(tid) != sync_tid
                                           or op != sync_op)
            if not held and sel_open:
                name = function.name
                if name in self.control_plane or (
                        self.dialup_sites
                        and f"{name}@{pc}" in self.dialup_sites):
                    held = (to_original(tid) != sel_tid
                            or f"{name}@{pc}" != sel_site)
            if held:
                if allowed is runnable:
                    allowed = runnable[:position]
            elif allowed is not runnable:
                allowed.append(tid)
        return allowed

    def pick(self, machine, runnable):
        while True:
            allowed = self._filtered(machine, runnable)
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


@contextmanager
def filter_then_pick():
    """Replayers build the reference schedulers while this is open."""
    with mock.patch.object(output_replay, "SyncOrderScheduler",
                           FilterThenPickSyncOrder), \
            mock.patch.object(selective_replay, "GuidedOrderScheduler",
                              FilterThenPickGuidedOrder):
        yield


def _summary(replay) -> Tuple[int, int, bool, Optional[str]]:
    fingerprint = None if replay.trace is None else replay.trace.fingerprint()
    return (replay.attempts, replay.inference_cycles, replay.found,
            fingerprint)


def check_replays(ref: str, model: str) -> Tuple[int, int, bool,
                                                  Optional[str]]:
    """Record ``ref`` under ``model`` at its failing seed, ship it, and
    replay the payload with the sticky and the reference schedulers;
    the two replays must agree.  Returns the replay's summary."""
    case = resolve_case(ref)
    session = DebugSession(case, model,
                           seed=getattr(case, "failing_seed", None))
    session.record()
    payload = session.ship()
    sticky = _summary(DebugSession.receive(payload).replay())
    with filter_then_pick():
        reference = _summary(DebugSession.receive(payload).replay())
    assert sticky == reference, f"{ref} under {model}"
    return sticky


def failing_seed(case) -> int:
    """A corpus case's pinned failing seed, or an app's first one."""
    seed = getattr(case, "failing_seed", None)
    return find_failing_seed(case) if seed is None else seed


def _plain_run(case, seed: int, trace_mode: str, scheduler_class,
               max_steps: int = 500_000,
               max_native_cycles: Optional[int] = None) -> Machine:
    """``case``'s production run at ``seed`` (as ``AppCase.run``), under
    ``scheduler_class`` and the given limits."""
    env = Environment(inputs={k: list(v) for k, v in case.inputs.items()},
                      seed=seed, net_drop_rate=case.net_drop_rate)
    return Machine(case.program, env=env,
                   scheduler=scheduler_class(seed, case.switch_prob),
                   io_spec=case.io_spec, max_steps=max_steps,
                   trace_mode=trace_mode,
                   max_native_cycles=max_native_cycles).run()


def run_summary(machine: Machine):
    """What a run's trace mode keeps: the fingerprint in ``full``; else
    steps, cycles, outputs, failure, and the branch paths (``counting``)
    or the effect steps (``events``)."""
    trace = machine.trace
    if machine.trace_mode == "full":
        return trace.fingerprint()
    kept = (trace.thread_branch_paths() if machine.trace_mode == "counting"
            else list(trace.steps))
    return (machine.steps, machine.meter.native_cycles, trace.outputs,
            trace.failure, kept)


def check_plain_runs(ref: str) -> None:
    """Run ``ref`` at its failing seed in every trace mode under the
    production scheduler and under the pick-every-step reference; the
    runs must agree."""
    case = resolve_case(ref)
    seed = failing_seed(case)
    for trace_mode in TRACE_MODES:
        ruled = _plain_run(case, seed, trace_mode, RandomScheduler)
        reference = _plain_run(case, seed, trace_mode, PickEveryStepRandom)
        assert run_summary(ruled) == run_summary(reference), \
            f"{ref} in {trace_mode}"


def _limited_summary(machine: Machine):
    return (run_summary(machine), machine.hit_step_limit,
            machine.hit_cycle_limit, machine.scheduler._stream.getstate())


def check_limits(ref: str) -> None:
    """Cut ``ref``'s run at its failing seed at three seeded step limits
    and three seeded cycle ceilings below the whole run's totals, in
    ``counting`` and ``events``, under the production scheduler and the
    pick-every-step reference: the runs must stop at the same step and
    cycle, with the same limit flags, outputs, failure and kept branch
    paths or effect steps, and leave the scheduler's stream at the same
    state (no draw past a limit)."""
    case = resolve_case(ref)
    seed = failing_seed(case)
    whole = _plain_run(case, seed, "counting", RandomScheduler)
    rng = DeterministicRng(0, f"limits:{ref}")
    limits = (
        [{"max_steps": rng.randint(1, max(1, whole.steps - 1))}
         for __ in range(3)]
        + [{"max_native_cycles":
            rng.randint(1, max(1, whole.meter.native_cycles - 1))}
           for __ in range(3)])
    for trace_mode in SPARSE_MODES:
        for limit in limits:
            ruled = _plain_run(case, seed, trace_mode, RandomScheduler,
                               **limit)
            reference = _plain_run(case, seed, trace_mode,
                                   PickEveryStepRandom, **limit)
            assert _limited_summary(ruled) == _limited_summary(reference), \
                (ref, trace_mode, limit)
            if "max_steps" in limit:
                assert ruled.hit_step_limit, (ref, trace_mode, limit)


def test_reference_schedulers_are_patched_in():
    """The references run their own picks, on every step (else the
    oracles would compare the keep rule or the sticky path with
    itself)."""
    picks = Counter()
    steps = Counter()

    def counted(cls):
        pick = cls.pick

        def counted_pick(self, machine, runnable):
            picks[cls.__name__] += 1
            return pick(self, machine, runnable)
        return counted_pick

    run = Machine.run

    def counted_run(machine):
        try:
            return run(machine)
        finally:
            steps[type(machine.scheduler).__name__] += machine.steps

    references = (FilterThenPickSyncOrder, FilterThenPickGuidedOrder,
                  PickEveryStepRandom)
    with mock.patch.object(Machine, "run", counted_run), \
            mock.patch.object(FilterThenPickSyncOrder, "pick",
                              counted(FilterThenPickSyncOrder)), \
            mock.patch.object(FilterThenPickGuidedOrder, "pick",
                              counted(FilterThenPickGuidedOrder)), \
            mock.patch.object(PickEveryStepRandom, "pick",
                              counted(PickEveryStepRandom)):
        for model in MODELS:
            check_replays("app:racy_counter", model)
        check_plain_runs("app:racy_counter")
    for cls in references:
        # One pick per decision: at least one per step.
        name = cls.__name__
        assert steps[name] > 0, name
        assert picks[name] >= steps[name], name
    assert output_replay.SyncOrderScheduler is SyncOrderScheduler


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_app_replays_match_filter_then_pick(name, model):
    check_replays(f"app:{name}", model)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(24))
def test_corpus_replays_match_filter_then_pick(seed, model):
    check_replays(f"corpus:{seed}", model)


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_app_plain_runs_match_pick_every_step(name):
    check_plain_runs(f"app:{name}")


@pytest.mark.parametrize("seed", range(24))
def test_corpus_plain_runs_match_pick_every_step(seed):
    check_plain_runs(f"corpus:{seed}")


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_app_limited_runs_match_pick_every_step(name):
    check_limits(f"app:{name}")


@pytest.mark.parametrize("seed", range(24))
def test_corpus_limited_runs_match_pick_every_step(seed):
    check_limits(f"corpus:{seed}")


# Each read of an undefined register, with the handler its shape
# compiles to: the register-direct ones (comparisons have their own),
# then two getter ones.
UNDEFINED_READS = {
    "add %x, %missing, 1": ("run_binary_reg_const", "missing"),
    "add %x, %missing, %i": ("run_binary_reg_reg", "missing"),
    "sub %x, %i, %missing": ("run_binary_reg_reg", "missing"),
    "xor %x, %missing, %gone": ("run_binary_reg_reg", "missing"),
    "gt %x, %missing, %gone": ("run_compare_reg_reg", "missing"),
    "ge %x, %i, %missing": ("run_compare_reg_reg", "missing"),
    "lt %x, %missing, 1": ("run_compare_reg_const", "missing"),
    "mov %x, %missing": ("run_mov_reg", "missing"),
    "jz %missing, loop": ("run_jz_reg", "missing"),
    "jnz %missing, loop": ("run_jnz_reg", "missing"),
    "add %x, 1, %missing": ("run_binary", "missing"),
    "not %x, %missing": ("run_not", "missing"),
}


@pytest.mark.parametrize("line", sorted(UNDEFINED_READS))
def test_undefined_register_reads_fail_alike_in_a_pure_run(line):
    """A worker's loop of register-only steps ends in ``line``, which
    reads an undefined register.  In ``counting`` and ``events`` under
    the production scheduler (inside a pure run: with ``switch_prob``
    0 the loop is one run), under the pick-every-step reference, and in
    ``full`` mode the run raises the same error at the same step and
    cycle."""
    handler, register = UNDEFINED_READS[line]
    program = assemble(f"""
    fn main():
        spawn %t, worker, 5
        join %t
        halt
    fn worker(n):
        mov %i, %n
    loop:
        sub %i, %i, 1
        gt %c, %i, 0
        jnz %c, loop
        {line}
        ret
    """)
    code = code_table(program, CostModel())["worker"]
    assert code[4][1].__name__ == handler

    def failed(scheduler, trace_mode):
        machine = Machine(program, scheduler=scheduler,
                          trace_mode=trace_mode)
        with pytest.raises(MachineError) as error:
            machine.run()
        return (str(error.value), machine.steps,
                machine.meter.native_cycles)

    for seed, switch_prob in ((0, 0.0), (1, 0.25), (2, 0.5)):
        runs = [failed(RandomScheduler(seed, switch_prob), trace_mode)
                for trace_mode in TRACE_MODES]
        runs += [failed(PickEveryStepRandom(seed, switch_prob), trace_mode)
                 for trace_mode in SPARSE_MODES]
        assert runs[0][0] == (f"thread 1: read of undefined register "
                              f"%{register} in worker")
        assert runs == [runs[0]] * len(runs), (line, seed)


@pytest.mark.parametrize("trace_mode", SPARSE_MODES)
def test_every_step_observers_see_every_step(trace_mode):
    """An every-step observer turns pure runs off: it is called once per
    step, in step order."""
    case = resolve_case("app:racy_counter")
    seed = failing_seed(case)
    env = Environment(inputs={k: list(v) for k, v in case.inputs.items()},
                      seed=seed, net_drop_rate=case.net_drop_rate)
    machine = Machine(case.program, env=env,
                      scheduler=case.production_scheduler(seed),
                      io_spec=case.io_spec, trace_mode=trace_mode)
    seen = []
    machine.add_observer(lambda __, record: seen.append(record.index))
    machine.run()
    assert machine.steps > 100
    assert seen == list(range(machine.steps))


def test_odr_replay_asks_the_scheduler_only_at_sync_ops_and_switches():
    """On msg_server's output replay the sync-order scheduler's pick runs
    on few steps - the loop settles every kept step between sync ops -
    and its sync hook runs once per sync step; the thread-id mapper runs
    once per sync or I/O step.  The scheduler scans every runnable
    thread (``_allowed``) on under a fifth of its picks and keep-rule
    switches: otherwise it re-vets only the thread that moved."""
    case = resolve_case("app:msg_server")
    session = DebugSession(case, "output")
    session.record()
    payload = session.ship()
    calls = Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def counted_method(self, *args):
            calls[name] += 1
            return method(self, *args)
        return mock.patch.object(cls, name, counted_method)

    def count_steps(machine, record):
        calls["steps"] += 1
        calls["sync steps"] += record.sync is not None
        calls["sync or io steps"] += (record.sync is not None
                                      or record.io is not None)

    run = Machine.run

    def counted_run(machine):
        machine.add_observer(count_steps)
        return run(machine)

    keep_rule = SyncOrderScheduler.keep_rule

    def counted_keep_rule(self, machine):
        draw, switch_prob, gated, switch = keep_rule(self, machine)

        def counted_switch(runnable):
            calls["switch"] += 1
            return switch(runnable)
        return draw, switch_prob, gated, counted_switch

    allowed = SyncOrderScheduler._allowed

    def counted_allowed(*args):
        calls["_allowed"] += 1
        return allowed(*args)

    with mock.patch.object(Machine, "run", counted_run), \
            counted(SyncOrderScheduler, "pick"), \
            counted(SyncOrderScheduler, "notify_sync"), \
            counted(TidMapper, "observe"), \
            mock.patch.object(SyncOrderScheduler, "keep_rule",
                              counted_keep_rule), \
            mock.patch.object(SyncOrderScheduler, "_allowed",
                              staticmethod(counted_allowed)):
        replay = DebugSession.receive(payload).replay()
    assert replay.found
    assert calls["steps"] > 100_000
    assert calls["pick"] < 0.1 * calls["steps"]
    assert calls["notify_sync"] == calls["sync steps"] > 0
    assert calls["observe"] == calls["sync or io steps"]
    assert calls["switch"] > calls["pick"] > 0
    assert 0 < calls["_allowed"] < 0.2 * (calls["switch"] + calls["pick"])
