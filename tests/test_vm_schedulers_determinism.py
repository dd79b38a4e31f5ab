"""Scheduler behaviour and the determinism property replay relies on."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MachineError, ReplayDivergenceError
from repro.util.rng import copy_stream
from repro.vm import (FixedScheduler, Machine, RandomScheduler,
                      RoundRobinScheduler, SyncOrderScheduler, assemble,
                      run_program)
from repro.vm.scheduler import Scheduler, sticky_inner
from repro.vm.thread import ThreadStatus

RACY = assemble("""
global counter = 0
fn main():
    spawn %t1, worker, 25
    spawn %t2, worker, 25
    join %t1
    join %t2
    load %c, counter
    output "o", %c
    halt
fn worker(n):
loop:
    jz %n, done
    load %c, counter
    add %c, %c, 1
    store counter, %c
    sub %n, %n, 1
    jmp loop
done:
    ret
""")

LOCKED = assemble("""
global counter = 0
mutex m
fn main():
    spawn %t1, worker, 25
    spawn %t2, worker, 25
    join %t1
    join %t2
    load %c, counter
    output "o", %c
    halt
fn worker(n):
loop:
    jz %n, done
    lock m
    load %c, counter
    add %c, %c, 1
    store counter, %c
    unlock m
    sub %n, %n, 1
    jmp loop
done:
    ret
""")


def test_round_robin_is_deterministic():
    a = run_program(RACY, scheduler=RoundRobinScheduler(quantum=3))
    b = run_program(RACY, scheduler=RoundRobinScheduler(quantum=3))
    assert a.trace.schedule == b.trace.schedule


def test_round_robin_quantum_validated():
    from repro.errors import SchedulerError
    with pytest.raises(SchedulerError):
        RoundRobinScheduler(quantum=0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_same_seed_identical_execution(seed):
    a = run_program(RACY, scheduler=RandomScheduler(seed=seed))
    b = run_program(RACY, scheduler=RandomScheduler(seed=seed))
    assert a.trace.schedule == b.trace.schedule
    assert a.env.outputs == b.env.outputs
    assert a.meter.native_cycles == b.meter.native_cycles


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_fixed_schedule_reproduces_any_run(seed):
    original = run_program(RACY, scheduler=RandomScheduler(
        seed=seed, switch_prob=0.4))
    replay = run_program(RACY,
                         scheduler=FixedScheduler(original.trace.schedule))
    assert replay.env.outputs == original.env.outputs
    assert [s.site for s in replay.trace.steps] == \
        [s.site for s in original.trace.steps]


def test_races_produce_lost_updates_somewhere():
    results = {run_program(RACY, scheduler=RandomScheduler(
        seed=s, switch_prob=0.4)).env.outputs["o"][0] for s in range(25)}
    assert any(r < 50 for r in results), "expected at least one lost update"


def test_locks_prevent_lost_updates():
    for seed in range(15):
        m = run_program(LOCKED, scheduler=RandomScheduler(
            seed=seed, switch_prob=0.4))
        assert m.env.outputs["o"] == [50]


def test_fixed_scheduler_strict_divergence():
    # Schedule refers to thread 5 which never exists.
    with pytest.raises(ReplayDivergenceError):
        run_program(RACY, scheduler=FixedScheduler([0, 5, 0]))


def test_fixed_scheduler_nonstrict_falls_back():
    m = run_program(RACY, scheduler=FixedScheduler([0, 5, 0], strict=False))
    assert m.failure is None


def test_fixed_scheduler_exhausted_falls_back_to_round_robin():
    # Two recorded steps (the spawns); everything after runs round-robin.
    m = run_program(RACY, scheduler=FixedScheduler([0, 0]))
    assert m.failure is None
    assert m.env.outputs["o"][0] <= 50


def test_sync_order_scheduler_refuses_an_inner_that_needs_notify():
    """The sync-order scheduler never notifies its inner scheduler, so
    an inner whose class overrides ``notify`` or ``notify_sync`` is
    refused rather than left silently unnotified."""
    from repro.errors import SchedulerError
    with pytest.raises(SchedulerError, match="does not notify"):
        SyncOrderScheduler([], inner=FixedScheduler([0]))
    with pytest.raises(SchedulerError, match="does not notify"):
        SyncOrderScheduler([], inner=SyncOrderScheduler([]))
    SyncOrderScheduler([], inner=RandomScheduler())


def test_sync_order_scheduler_enforces_lock_order():
    original = run_program(LOCKED, scheduler=RandomScheduler(seed=9))
    sync_order = [(s.tid, s.op, s.sync[1])
                  for s in original.trace.sync_events()]
    replay = run_program(
        LOCKED, scheduler=SyncOrderScheduler(
            sync_order, inner=RandomScheduler(seed=1234)))
    replayed_order = [(s.tid, s.op, s.sync[1])
                      for s in replay.trace.sync_events()]
    assert replayed_order == sync_order


class _WatchingRandom(RandomScheduler):
    """A RandomScheduler whose own pick records, per pick, how many
    threads were runnable and the list it was given: around it the
    constraining schedulers keep filter-then-pick."""

    def __init__(self, seed, switch_prob):
        super().__init__(seed, switch_prob)
        self.picks = []

    def pick(self, machine, runnable):
        ready = sum(1 for thread in machine.threads.values()
                    if thread.is_runnable)
        self.picks.append((ready, list(runnable)))
        return super().pick(machine, runnable)


class _OwnKeeps(RandomScheduler):
    """A RandomScheduler whose keep draw is its own: it offers no keep
    rule, since the run loop would draw around it."""

    def keeps(self):
        return super().keeps()


def test_sync_order_sticky_pick_matches_filter_then_pick():
    """Around a RandomScheduler the run loop settles the current thread's
    stay with the keep rule, and builds the allowed list only on a
    switch; around any other pick the list is built on every step.  Both
    make the same draws, so the same run."""
    original = run_program(LOCKED, scheduler=RandomScheduler(seed=9))
    sync_order = [(s.tid, s.op, s.sync[1])
                  for s in original.trace.sync_events()]
    assert sticky_inner(RandomScheduler()) is not None
    assert sticky_inner(_WatchingRandom(0, 0.3)) is None
    assert sticky_inner(_OwnKeeps()) is None
    assert _OwnKeeps().keep_rule(None) is None
    assert sticky_inner(RoundRobinScheduler()) is None
    held_back = 0
    for seed in range(8):
        sticky = run_program(LOCKED, scheduler=SyncOrderScheduler(
            sync_order, inner=RandomScheduler(seed, 0.3)))
        watcher = _WatchingRandom(seed, 0.3)
        filtered = run_program(LOCKED, scheduler=SyncOrderScheduler(
            sync_order, inner=watcher))
        assert sticky.trace.fingerprint() == filtered.trace.fingerprint()
        assert len(watcher.picks) >= filtered.steps
        held_back += sum(1 for ready, given in watcher.picks
                         if len(given) < ready)
    assert held_back > 0, "no pick held a thread back"


# -- the pick contract ------------------------------------------------------

class _BadPick(Scheduler):
    """Round-robin until a thread of the ``kind`` exists, then picks it:
    a blocked thread, a finished one, or a tid that was never spawned.
    Asked again after a bad pick, it fails the test instead of letting a
    machine that ignored the pick spin on it."""

    def __init__(self, kind):
        self.kind = kind
        self.inner = RoundRobinScheduler()
        self.bad_picks = 0

    def pick(self, machine, runnable):
        assert self.bad_picks == 0, "the machine ran a non-runnable pick"
        if self.kind == "unknown":
            bad = 99
        else:
            status = {"blocked": ThreadStatus.BLOCKED_JOIN,
                      "finished": ThreadStatus.DONE}[self.kind]
            bad = next((tid for tid, thread in machine.threads.items()
                        if thread.status is status), None)
        if bad is None:
            return self.inner.pick(machine, runnable)
        self.bad_picks += 1
        return bad


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_switch_draws_what_randrange_draws(seed):
    """``RandomScheduler.switch`` draws its index inline; for every list
    length it returns what ``randrange`` on a copy of its stream returns
    and leaves the stream in the same state."""
    scheduler = RandomScheduler(seed)
    stream = scheduler._stream
    for count in range(1, 65):
        allowed = list(range(100, 100 + count))
        twin = copy_stream(stream)
        for __ in range(4):
            expected = allowed[twin.randrange(count)]
            assert scheduler.switch(allowed) == expected
            assert scheduler.current == expected
        assert stream.getstate() == twin.getstate(), count


@pytest.mark.parametrize("kind", ["blocked", "finished", "unknown"])
@pytest.mark.parametrize("entry", ["run", "advance"])
def test_picking_a_non_runnable_thread_raises(kind, entry):
    machine = Machine(RACY, scheduler=_BadPick(kind))
    with pytest.raises(MachineError, match="non-runnable thread"):
        if entry == "run":
            machine.run()
        else:
            machine.advance(10_000)


@pytest.mark.parametrize("pause_at", [1, 9, 60, 150])
def test_sync_order_advance_then_run_matches_one_run(pause_at):
    original = run_program(LOCKED, scheduler=RandomScheduler(seed=9))
    sync_order = [(s.tid, s.op, s.sync[1])
                  for s in original.trace.sync_events()]

    def replay_machine():
        return Machine(LOCKED, scheduler=SyncOrderScheduler(
            sync_order, inner=RandomScheduler(seed=1234)))

    whole = replay_machine().run()
    paused = replay_machine()
    paused.advance(pause_at)
    assert paused.steps == pause_at
    assert paused.run().trace.fingerprint() == whole.trace.fingerprint()


# -- the per-function sync-op table ----------------------------------------

def _programs():
    from repro.apps import ALL_APPS
    from repro.corpus.generator import generate_case
    for name, make in ALL_APPS.items():
        yield name, make().program
    for seed in range(24):
        yield f"corpus:{seed}", generate_case(seed).program


def test_sync_ops_table_matches_the_body_at_every_pc():
    """``sync_ops[pc]`` is the op exactly when it is a sync op, and the
    implicit ``ret`` at ``pc == len(body)`` has an entry, ``None``."""
    from repro.vm.instructions import SYNC_OPS
    checked = 0
    for where, program in _programs():
        for fn in program.functions.values():
            body = fn.body
            assert len(fn.sync_ops) == len(body) + 1, (where, fn.name)
            for pc in range(len(body) + 1):
                op = body[pc].op if pc < len(body) else None
                expected = op if op in SYNC_OPS else None
                assert fn.sync_ops[pc] == expected, (where, fn.name, pc)
                checked += 1
    assert checked > 1000


# main spawns two workers, then joins them; worker one locks, unlocks,
# runs a nop and falls off the end of its body (an implicit ``ret``).
FALLS_OFF = assemble("""
mutex m
fn main():
    spawn %t1, first
    spawn %t2, second
    join %t1
    join %t2
    halt
fn first():
    lock m
    unlock m
    nop
fn second():
    lock m
    unlock m
    ret
""")


class _Watching(RoundRobinScheduler):
    """Round-robin that records, per pick, the machine's runnable list,
    the list the sync-order scheduler allowed, how many sync steps have
    run, and each runnable thread's (pc, body length, table entry)."""

    def __init__(self):
        super().__init__()
        self.picks = []

    def pick(self, machine, runnable):
        ready = [tid for tid, thread in sorted(machine.threads.items())
                 if thread.is_runnable]
        state = {}
        for tid in ready:
            frame = machine.threads[tid].frames[-1]
            state[tid] = (frame.pc, len(frame.function.body),
                          frame.function.sync_ops[frame.pc])
        synced = sum(1 for s in machine.trace.steps if s.sync is not None)
        self.picks.append((ready, list(runnable), synced, state))
        return super().pick(machine, runnable)


def test_sync_order_admits_a_thread_falling_off_its_end_while_holding():
    sync_order = [(0, "spawn", 1), (0, "spawn", 2), (1, "lock", "m"),
                  (1, "unlock", "m"), (2, "lock", "m"), (2, "unlock", "m"),
                  (0, "join", 1), (0, "join", 2)]
    watcher = _Watching()
    machine = Machine(FALLS_OFF, scheduler=SyncOrderScheduler(
        sync_order, inner=watcher)).run()
    assert machine.failure is None
    assert [(s.tid, s.op, s.sync[1])
            for s in machine.trace.sync_events()] == sync_order
    assert "first@3" in [s.site for s in machine.trace.steps
                         if s.op == "ret"]
    # Each pick allowed exactly the threads whose table entry is None or
    # the next recorded (tid, op); one admitted ``first`` at its end
    # (pc == len(body), entry None) while main was held at a join.
    admitted_at_end = False
    for runnable, allowed, synced, state in watcher.picks:
        if synced == len(sync_order):  # past the recorded window
            assert allowed == runnable
            continue
        expected = sync_order[synced][:2]
        assert allowed == [tid for tid in runnable
                           if state[tid][2] is None
                           or (tid, state[tid][2]) == expected]
        if (1 in allowed and state[1][0] == state[1][1]
                and 0 in runnable and 0 not in allowed):
            assert state[1][2] is None and state[0][2] == "join"
            admitted_at_end = True
    assert admitted_at_end


# -- sync-order vetting -----------------------------------------------------
#
# The sync-order scheduler keeps the allowed list of its expected event
# and, while the sync index and the machine's ``runnable_version`` stand
# still, re-vets only its inner's current thread: every other thread has
# not run since, so nothing else about the list can have changed.

# LOCKED with a main that fails once it has joined both workers.
FAILS_AT_END = assemble("""
global counter = 0
mutex m
fn main():
    spawn %t1, worker, 6
    spawn %t2, worker, 6
    join %t1
    join %t2
    const %ok, 0
    assert %ok, "joined"
    halt
fn worker(n):
loop:
    jz %n, done
    lock m
    load %c, counter
    add %c, %c, 1
    store counter, %c
    unlock m
    sub %n, %n, 1
    jmp loop
done:
    ret
""")

_EDITS = {(ThreadStatus.RUNNABLE, ThreadStatus.BLOCKED_LOCK): "block",
          (ThreadStatus.RUNNABLE, ThreadStatus.BLOCKED_JOIN): "block",
          (ThreadStatus.BLOCKED_LOCK, ThreadStatus.RUNNABLE): "unblock",
          (ThreadStatus.BLOCKED_JOIN, ThreadStatus.RUNNABLE): "unblock",
          (ThreadStatus.RUNNABLE, ThreadStatus.DONE): "finish",
          (ThreadStatus.RUNNABLE, ThreadStatus.FAILED): "fail"}


def test_runnable_version_moves_on_every_runnable_edit():
    """Run one step at a time: whenever a step spawns, blocks, unblocks,
    finishes or fails a thread, ``runnable_version`` moves, and the
    runnable list is the runnable threads in tid order."""
    seen = Counter()
    for seed in range(6):
        machine = Machine(FAILS_AT_END,
                          scheduler=RandomScheduler(seed, 0.5))
        while machine._runnable and machine.failure is None:
            statuses = {tid: thread.status
                        for tid, thread in machine.threads.items()}
            version = machine.runnable_version
            machine.advance(1)
            edits = {"spawn" for tid in machine.threads
                     if tid not in statuses}
            edits.update(_EDITS.get((before, machine.threads[tid].status))
                         for tid, before in statuses.items())
            edits.discard(None)
            if edits:
                assert machine.runnable_version != version, edits
            seen.update(edits)
            assert machine._runnable == sorted(
                tid for tid, thread in machine.threads.items()
                if thread.status is ThreadStatus.RUNNABLE)
        assert machine.failure is not None
    assert set(seen) == {"spawn", "block", "unblock", "finish", "fail"}


def _scan(threads, runnable, expected):
    """Filter-then-pick's allowed list for the expected ``(tid, op)``."""
    allowed = []
    for tid in runnable:
        frame = threads[tid].frames[-1]
        op = frame.function.sync_ops[frame.pc]
        if op is None or (tid, op) == expected:
            allowed.append(tid)
    return allowed


def _locked_replays():
    """Sync-order replays of LOCKED recorded at seeds 0-5, each around
    RandomScheduler inners of four seeds and three switch rates."""
    for recorded_seed in range(6):
        original = run_program(LOCKED,
                               scheduler=RandomScheduler(recorded_seed))
        sync_order = [(s.tid, s.op, s.sync[1])
                      for s in original.trace.sync_events()]
        for inner_seed in range(4):
            for switch_prob in (0.1, 0.3, 0.6):
                yield Machine(LOCKED, scheduler=SyncOrderScheduler(
                    sync_order, inner=RandomScheduler(inner_seed,
                                                      switch_prob)))


def test_sync_order_vetting_matches_a_full_scan():
    """Every list the sync-order scheduler hands its inner, on a pick or
    a keep-rule switch, is the one a full scan builds then.  The kept
    list is rescanned once the sync index moved or the runnable set
    changed (a block, an unblock, a spawn, a finish), is used as kept
    when the current thread is still admitted, and loses the current
    thread when that thread reached an out-of-order sync op - the
    replays take each of these paths."""
    vetted = SyncOrderScheduler._vetted
    paths = Counter()

    def checked(self, machine, runnable, index):
        kept = self._vet
        allowed = vetted(self, machine, runnable, index)
        assert allowed == _scan(machine.threads, runnable,
                                tuple(self.sync_order[index][:2]))
        if kept is None:
            paths["first"] += 1
        elif kept[0] != index:
            paths["index moved"] += 1
        elif kept[1] != machine.runnable_version:
            paths["runnable set changed"] += 1
        elif self._vet is kept:
            paths["kept"] += 1
        else:
            assert len(allowed) == len(kept[2]) - 1
            paths["current dropped"] += 1
        return allowed

    with mock.patch.object(SyncOrderScheduler, "_vetted", checked):
        for machine in _locked_replays():
            try:
                machine.run()
            except ReplayDivergenceError:
                pass
    assert set(paths) == {"first", "index moved", "runnable set changed",
                          "kept", "current dropped"}, paths


@pytest.mark.parametrize("pause_at", [3, 20, 45, 90, 140, 200])
def test_sync_order_clone_keeps_no_vetted_list(pause_at):
    """A snapshot starts with nothing vetted: forked after its original
    ran on to the end (emptying that machine's runnable list), it makes
    every decision a run from scratch makes."""
    original = run_program(LOCKED, scheduler=RandomScheduler(seed=9))
    sync_order = [(s.tid, s.op, s.sync[1])
                  for s in original.trace.sync_events()]

    def replay_machine():
        return Machine(LOCKED, scheduler=SyncOrderScheduler(
            sync_order, inner=RandomScheduler(seed=1234)))

    whole = replay_machine().run().trace.fingerprint()
    machine = replay_machine()
    machine.advance(pause_at)
    assert machine.scheduler._vet is not None
    snapshot = machine.snapshot()
    assert snapshot.scheduler._vet is None
    assert machine.run().trace.fingerprint() == whole
    assert snapshot.fork().run().trace.fingerprint() == whole


# Main runs plain steps up to a lock that the recorded order gives the
# worker first: when main is current there, only the worker may run.
LOCK_TAKEN_FIRST = assemble("""
mutex m
global shared = 0
fn main():
    spawn %t, worker
    const %a, 1
    add %a, %a, 1
    add %a, %a, 1
    lock m
    store shared, %a
    unlock m
    join %t
    halt
fn worker():
    const %b, 7
    add %b, %b, 1
    lock m
    store shared, %b
    unlock m
    ret
""")


def test_sync_order_drops_a_current_thread_at_an_out_of_order_sync_op():
    """Whoever the inner switches to, a current thread that ran up to an
    out-of-order sync op is held back there, so every replay keeps the
    recorded order and the worker's store lands first."""
    sync_order = [(0, "spawn", 1), (1, "lock", "m"), (1, "unlock", "m"),
                  (0, "lock", "m"), (0, "unlock", "m"), (0, "join", 1)]
    dropped = 0
    for seed in range(16):
        for switch_prob in (0.2, 0.5, 0.8):
            scheduler = SyncOrderScheduler(
                sync_order, inner=RandomScheduler(seed, switch_prob))
            vetted = scheduler._vetted

            def watched(machine, runnable, index):
                nonlocal dropped
                kept = scheduler._vet
                allowed = vetted(machine, runnable, index)
                dropped += (kept is not None and scheduler._vet is not kept
                            and kept[0] == index
                            and kept[1] == machine.runnable_version)
                return allowed

            scheduler._vetted = watched
            machine = Machine(LOCK_TAKEN_FIRST, scheduler=scheduler).run()
            assert [(s.tid, s.op, s.sync[1])
                    for s in machine.trace.sync_events()] == sync_order
            assert machine.memory.snapshot()["globals"]["shared"] == 3
    assert dropped > 0


class _StalePick(RandomScheduler):
    """Picks the highest tid it is offered, but names only the first
    thread it picked ``current``: a pick of its own, whose ``current``
    the kept list must not trust."""

    def pick(self, machine, runnable):
        if self.current is None:
            self.current = runnable[0]
        return runnable[-1]


def test_sync_order_rescans_around_an_inner_with_its_own_pick():
    """Around an inner whose pick is not RandomScheduler's own,
    ``current`` may name a thread other than the one that ran, so every
    decision rescans: the worker, picked whenever it is admitted, is
    held at its lock until main has taken and released it in the
    recorded order."""
    sync_order = [(0, "spawn", 1), (0, "lock", "m"), (0, "unlock", "m"),
                  (1, "lock", "m"), (1, "unlock", "m"), (0, "join", 1)]
    scheduler = SyncOrderScheduler(sync_order, inner=_StalePick(0))
    machine = Machine(LOCK_TAKEN_FIRST, scheduler=scheduler).run()
    assert [(s.tid, s.op, s.sync[1])
            for s in machine.trace.sync_events()] == sync_order
    assert machine.memory.snapshot()["globals"]["shared"] == 8
