"""Replay edge cases: divergence detection, tid mapping, interceptors."""

import pytest

from repro.errors import ReplayDivergenceError
from repro.record import FullRecorder, ValueRecorder, record_run
from repro.replay import DeterministicReplayer, TidMapper, ValueReplayer
from repro.replay.base import PerThreadFeed
from repro.vm import RandomScheduler, assemble, run_program

NESTED_SPAWNS = assemble("""
global total = 0
mutex m
fn main():
    spawn %a, parent, 2
    spawn %b, parent, 3
    join %a
    join %b
    load %t, total
    output "o", %t
    halt
fn parent(n):
    spawn %c1, child, %n
    spawn %c2, child, %n
    join %c1
    join %c2
    ret
fn child(n):
    lock m
    load %t, total
    add %t, %t, %n
    store total, %t
    unlock m
    ret
""")


def test_nested_spawn_totals():
    m = run_program(NESTED_SPAWNS, scheduler=RandomScheduler(seed=4))
    assert m.env.outputs["o"] == [10]  # 2+2+3+3


def test_value_replay_maps_tids_across_spawn_trees():
    """Concurrent parents spawn children: global tid order varies, the
    per-parent spawn log must still route per-thread feeds correctly."""
    for seed in range(8):
        log = record_run(NESTED_SPAWNS, ValueRecorder(), seed=seed,
                         scheduler=RandomScheduler(seed=seed,
                                                   switch_prob=0.4))
        result = ValueReplayer().replay(NESTED_SPAWNS, log)
        assert result.trace.outputs == {"o": [10]}
        assert result.divergences == 0, f"seed {seed} diverged"


def test_deterministic_replay_detects_corrupt_schedule():
    log = record_run(NESTED_SPAWNS, FullRecorder(), seed=1,
                     scheduler=RandomScheduler(seed=1))
    log.schedule[len(log.schedule) // 2] = 99  # corrupt one entry
    with pytest.raises(ReplayDivergenceError):
        DeterministicReplayer().replay(NESTED_SPAWNS, log)


def test_deterministic_replay_detects_corrupt_syscalls():
    program = assemble("""
    fn main():
        syscall %r, "random", 10
        output "o", %r
        halt
    """)
    log = record_run(program, FullRecorder(), seed=7)
    log.syscalls.clear()  # pretend the syscall log was truncated
    with pytest.raises(ReplayDivergenceError):
        DeterministicReplayer().replay(program, log)


def test_deterministic_replay_forces_syscall_results():
    program = assemble("""
    fn main():
        syscall %r, "random", 1000000
        output "o", %r
        halt
    """)
    log = record_run(program, FullRecorder(), seed=7)
    original_value = log.outputs = dict()  # log has no outputs; use env
    result = DeterministicReplayer().replay(program, log)
    # The replayed machine got the recorded random value, not a fresh one.
    recorded = log.syscalls[0][2]
    assert result.trace.outputs["o"] == [recorded]


def test_tid_mapper_identity_for_main():
    mapper = TidMapper({})
    assert mapper.to_original(0) == 0
    assert mapper.to_original(3) is None


def test_tid_mapper_unmatched_spawns_counted():
    mapper = TidMapper({0: [("child", 1)]})

    class FakeStep:
        sync = ("spawn", 5)
        op = "spawn"
        tid = 0
    mapper.observe(None, FakeStep())          # matches the one record
    assert mapper.to_original(5) == 1
    FakeStep.sync = ("spawn", 6)
    mapper.observe(None, FakeStep())          # no more records: unmatched
    assert mapper.unmatched_spawns == 1


def test_per_thread_feed_miss_accounting():
    feed = PerThreadFeed({1: ["a", "b"]})
    assert feed.next_value(1) == "a"
    assert feed.next_value(1) == "b"
    assert feed.next_value(1) is None      # exhausted
    assert feed.next_value(2) is None      # unknown thread
    assert feed.next_value(None) is None   # unmapped thread
    assert feed.misses == 3


def test_value_replay_divergence_counted_on_emptied_log():
    log = record_run(NESTED_SPAWNS, ValueRecorder(), seed=2,
                     scheduler=RandomScheduler(seed=2))
    for tid in log.thread_reads:
        log.thread_reads[tid] = []  # lose every recorded read value
    result = ValueReplayer().replay(NESTED_SPAWNS, log)
    assert result.divergences > 0
