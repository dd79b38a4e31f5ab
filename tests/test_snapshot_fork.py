"""Checkpoint/fork determinism and the trace-free candidate machinery.

The contract every replay-search optimization rests on: a forked machine
continues byte-for-byte identically to the original, and a counting- or
events-mode run is the *same execution* as its full-trace twin minus
the records it does not keep.
Fingerprints reuse the golden-trace hashing
(:meth:`repro.vm.trace.Trace.fingerprint`), and the step-0 fork is
checked against the pinned golden digest itself.
"""

from functools import partial

import pytest

from repro.apps import ALL_APPS
from repro.errors import ReplayDivergenceError
from repro.harness.bench import COUNTER_SRC
from repro.models.session import resolve_case
from repro.replay.search import (ExecutionSearch, InputSpace, SearchBudget,
                                 default_dedupe_key, divergent_output_abort)
from repro.util.intervals import Interval
from repro.util.rng import DeterministicRng
from repro.vm import (RandomScheduler, SyncOrderScheduler, assemble,
                      run_program)
from repro.vm.environment import Environment
from repro.vm.machine import Machine

from test_golden_traces import GOLDEN_COUNTER_DIGEST
from test_scheduler_oracle import TRACE_MODES, failing_seed, run_summary

# Exercises inputs, syscalls (seeded RNG), locks, spawn/join, and shared
# memory - every state category a snapshot must capture.
MIXED_SRC = """
global total = 0
mutex m
fn main():
    spawn %a, worker, 2
    spawn %b, worker, 3
    input %x, "in"
    join %a
    join %b
    load %t, total
    add %t, %t, %x
    syscall %r, "random", 10
    add %t, %t, %r
    output "out", %t
    halt
fn worker(n):
    lock m
    load %t, total
    add %t, %t, %n
    store total, %t
    unlock m
    ret
"""


def counter_machine():
    return Machine(assemble(COUNTER_SRC), env=Environment(),
                   scheduler=RandomScheduler(seed=1))


def mixed_machine(trace_mode="full"):
    return Machine(assemble(MIXED_SRC),
                   env=Environment(inputs={"in": [5]}, seed=3),
                   scheduler=RandomScheduler(seed=7, switch_prob=0.4),
                   trace_mode=trace_mode)


def test_fork_at_step_zero_matches_golden_digest():
    machine = counter_machine()
    fork = machine.fork()
    assert fork.run().trace.fingerprint() == GOLDEN_COUNTER_DIGEST
    assert machine.run().trace.fingerprint() == GOLDEN_COUNTER_DIGEST


@pytest.mark.parametrize("fork_at", [1, 7, 113, 1000, 4000])
def test_fork_mid_run_is_byte_identical(fork_at):
    machine = counter_machine()
    machine.advance(fork_at)
    assert machine.steps == min(fork_at, 4809)
    fork = machine.fork()
    a = machine.run().trace.fingerprint()
    b = fork.run().trace.fingerprint()
    assert a == b == GOLDEN_COUNTER_DIGEST


def test_fork_covers_env_rng_locks_and_threads():
    reference = mixed_machine().run()
    for fork_at in (0, 3, 11, 20):
        machine = mixed_machine()
        machine.advance(fork_at)
        fork = machine.fork()
        assert fork.run().trace.fingerprint() == \
            reference.trace.fingerprint()
        # The original is not perturbed by having been forked.
        assert machine.run().trace.fingerprint() == \
            reference.trace.fingerprint()


def test_snapshot_is_reusable_many_times():
    machine = counter_machine()
    machine.advance(500)
    checkpoint = machine.snapshot()
    digests = {checkpoint.fork().run().trace.fingerprint()
               for __ in range(3)}
    assert digests == {GOLDEN_COUNTER_DIGEST}


def test_fork_isolates_shared_state():
    machine = mixed_machine()
    machine.advance(5)
    fork = machine.fork()
    fork.run()
    machine.run()
    # Forked runs mutated their own memory/env, not each other's.
    assert machine.memory.snapshot() == fork.memory.snapshot()
    assert machine.env.outputs == fork.env.outputs


# -- pause and fork under the keep rule ------------------------------------
#
# A run loop entry's first decision goes to ``pick``; later ones between
# two steps of one thread are settled by the scheduler's keep rule, and
# in counting and events mode a pure run draws the rule between its
# register-only steps.  So a run paused at any step, then resumed or
# forked, must still make every decision a run from scratch makes, in
# every trace mode.

def _pause_cases():
    return ([f"app:{name}" for name in sorted(ALL_APPS)]
            + [f"corpus:{seed}" for seed in range(24)])


def _outcome(build, pause_at=None, fork=False):
    """How a run ends: its step count and what its trace mode keeps
    (``run_summary``), or its step count and ``"stuck"`` where its sync
    order admitted no thread.  With ``pause_at`` the run is paused there
    and then resumed - or, with ``fork``, continued by a fork."""
    machine = build()
    try:
        if pause_at is not None:
            machine.advance(pause_at)
            if fork:
                machine = machine.fork()
        machine.run()
    except ReplayDivergenceError:
        return machine.steps, "stuck"
    return machine.steps, run_summary(machine)


def check_pauses(ref: str) -> None:
    """Under the production scheduler and a bare sync-order scheduler
    over the recorded sync order (no feeds, no mapper: a fork drops
    observers), ``advance(k)`` then ``run()`` and ``advance(k)`` then
    ``fork().run()`` both match the run from scratch, at three seeded
    ``k`` in every trace mode."""
    case = resolve_case(ref)
    seed = failing_seed(case)
    sync_order = [(s.tid, s.op, s.sync[1])
                  for s in case.run(seed).trace.sync_events()]

    def machine(scheduler, trace_mode):
        env = Environment(inputs={k: list(v) for k, v in case.inputs.items()},
                          seed=seed, net_drop_rate=case.net_drop_rate)
        return Machine(case.program, env=env, scheduler=scheduler,
                       io_spec=case.io_spec, max_steps=500_000,
                       trace_mode=trace_mode)

    builds = {
        "random": lambda mode: machine(case.production_scheduler(seed),
                                       mode),
        "sync-order": lambda mode: machine(SyncOrderScheduler(
            sync_order, inner=RandomScheduler(seed=1234)), mode),
    }
    rng = DeterministicRng(0, f"pause:{ref}")
    for name, build in builds.items():
        pauses = None
        for trace_mode in TRACE_MODES:
            build_in_mode = partial(build, trace_mode)
            scratch = _outcome(build_in_mode)
            if pauses is None:
                # Every mode runs the same steps: one set of pauses.
                pauses = sorted({rng.randint(1, max(1, scratch[0] - 1))
                                 for __ in range(3)})
            for pause_at in pauses:
                for fork in (False, True):
                    assert _outcome(build_in_mode, pause_at, fork) \
                        == scratch, (ref, name, trace_mode, pause_at, fork)


@pytest.mark.parametrize("ref", _pause_cases())
def test_paused_and_forked_runs_match_a_scratch_run(ref):
    check_pauses(ref)


# -- counting mode ----------------------------------------------------------

def test_counting_mode_is_same_execution_without_records():
    full = mixed_machine().run()
    counting = mixed_machine(trace_mode="counting").run()
    assert counting.trace.steps == []
    assert counting.steps == full.steps
    assert counting.meter.native_cycles == full.meter.native_cycles
    assert counting.env.outputs == full.env.outputs
    assert counting.env.inputs_consumed == full.env.inputs_consumed
    assert counting.failure == full.failure
    assert counting.trace.total_steps == full.trace.total_steps
    assert counting.trace.thread_branch_paths() == \
        full.trace.thread_branch_paths()


def test_counting_fork_continues_identically():
    full = mixed_machine().run()
    counting = mixed_machine(trace_mode="counting")
    counting.advance(9)
    fork = counting.fork().run()
    assert fork.steps == full.steps
    assert fork.env.outputs == full.env.outputs
    assert fork.meter.native_cycles == full.meter.native_cycles
    assert fork.trace.thread_branch_paths() == \
        full.trace.thread_branch_paths()


def _effect_keys(steps):
    return [s._key() for s in steps
            if s.reads or s.writes or s.sync is not None
            or s.io is not None]


@pytest.mark.parametrize("fork_at", [1, 7, 113, 1000, 4000])
def test_events_fork_continues_identically(fork_at):
    def events_machine():
        return Machine(assemble(COUNTER_SRC), env=Environment(),
                       scheduler=RandomScheduler(seed=1),
                       trace_mode="events")
    full = counter_machine().run()
    reference = events_machine().run()
    machine = events_machine()
    machine.advance(fork_at)
    fork = machine.fork().run()
    assert fork.trace.sparse
    for run in (reference, fork):
        assert [s._key() for s in run.trace.steps] == \
            _effect_keys(full.trace.steps)
        assert run.steps == run.trace.total_steps == full.steps
        assert run.meter.native_cycles == full.meter.native_cycles
        assert run.failure == full.failure
        assert run.trace.schedule == []


def test_unknown_trace_mode_rejected():
    from repro.errors import MachineError
    with pytest.raises(MachineError):
        mixed_machine(trace_mode="sparse")


# -- early abort and cycle ceiling ------------------------------------------

ECHO_SRC = """
fn main():
    input %a, "in"
    output "echo", %a
    input %b, "in"
    output "echo", %b
    output "done", 1
    halt
"""


def test_early_abort_kills_at_first_divergent_output():
    program = assemble(ECHO_SRC)
    recorded = run_program(program, inputs={"in": [4, 6]})
    machine = Machine(program, env=Environment(inputs={"in": [9, 6]}))
    machine.early_abort = divergent_output_abort(recorded.env.outputs)
    machine.run()
    assert machine.aborted
    assert machine.env.outputs == {"echo": [9]}, \
        "the run must stop at the first divergent output"
    assert machine.failure is None, \
        "aborted candidates are not judged against the io spec"


def test_early_abort_lets_matching_runs_finish():
    program = assemble(ECHO_SRC)
    recorded = run_program(program, inputs={"in": [4, 6]})
    machine = Machine(program, env=Environment(inputs={"in": [4, 6]}))
    machine.early_abort = divergent_output_abort(recorded.env.outputs)
    machine.run()
    assert not machine.aborted
    assert machine.env.outputs == recorded.env.outputs


def test_cycle_ceiling_truncates_run():
    unlimited = counter_machine().run()
    capped = counter_machine()
    capped.max_native_cycles = unlimited.meter.native_cycles // 2
    capped.run()
    assert capped.hit_cycle_limit
    assert capped.steps < unlimited.steps
    assert capped.meter.native_cycles <= \
        unlimited.meter.native_cycles // 2 + 50


def test_cycle_ceiling_not_flagged_on_completed_run():
    unlimited = counter_machine().run()
    exact = counter_machine()
    exact.max_native_cycles = unlimited.meter.native_cycles
    exact.run()
    assert not exact.hit_cycle_limit
    assert exact.steps == unlimited.steps


def test_search_budget_cycle_overshoot_is_bounded():
    """One candidate can no longer blow past max_cycles by a whole run."""
    program = assemble(COUNTER_SRC)
    budget = SearchBudget(max_attempts=50, max_cycles=2000)
    search = ExecutionSearch(program, InputSpace.fixed({}),
                             schedule_seeds=range(8))
    outcome = search.search(lambda m: False, budget=budget)
    # A single counter run costs ~9k cycles; the ceiling must hold.
    assert outcome.inference_cycles <= budget.max_cycles + 50
    assert outcome.capped_candidates >= 1


# -- search-level behaviour --------------------------------------------------

def grid_search(**kwargs):
    program = assemble(ECHO_SRC)
    space = InputSpace.grid({"in": (2, Interval(0, 4))})
    return program, ExecutionSearch(program, space,
                                    schedule_seeds=range(2), **kwargs)


def test_prefix_sharing_preserves_search_results():
    program = assemble(ECHO_SRC)
    recorded = run_program(program, inputs={"in": [3, 2]})

    def accept(m):
        return m.env.outputs == recorded.env.outputs

    __, shared = grid_search()
    __, scratch = grid_search(prefix_sharing=False,
                              candidate_trace_mode="full")
    a = shared.search(accept,
                      early_abort=divergent_output_abort(
                          recorded.env.outputs))
    b = scratch.search(accept)
    assert a.found and b.found
    assert a.attempts == b.attempts, \
        "pruning must not change the enumeration order"
    assert a.machine.trace.fingerprint() == b.machine.trace.fingerprint()
    assert a.machine.trace.inputs_consumed == {"in": [3, 2]}
    assert a.forked_candidates > 0
    assert a.saved_cycles > 0
    assert a.inference_cycles < b.inference_cycles


def test_prefix_sharing_keeps_env_factory_channels():
    """Forked candidates must not lose pending inputs a custom candidate
    builder's environment supplies outside the candidate assignment."""
    program = assemble("""
    fn main():
        input %a, "in"
        input %c, "ctl"
        input %b, "in"
        add %s, %a, %b
        add %s, %s, %c
        output "o", %s
        halt
    """)
    space = InputSpace.grid({"in": (2, Interval(0, 3))})

    def build(inputs, seed, trace_mode):
        return Machine(program,
                       env=Environment(inputs={**inputs, "ctl": [10]},
                                       seed=seed),
                       scheduler=RandomScheduler(seed=seed),
                       trace_mode=trace_mode)

    def accept(m):
        return m.env.outputs == {"o": [15]}  # 2 + 10 + 3

    results = {}
    for sharing in (False, True):
        search = ExecutionSearch(program, space, schedule_seeds=range(2),
                                 build=build, prefix_sharing=sharing)
        outcome = search.search(accept)
        assert outcome.found, f"prefix_sharing={sharing} lost the target"
        results[sharing] = outcome
    assert results[True].attempts == results[False].attempts
    assert results[True].machine.trace.fingerprint() == \
        results[False].machine.trace.fingerprint()
    assert results[True].forked_candidates > 0


def test_prefix_sharing_respects_input_blocking():
    """Variable-length candidates: a checkpoint holding a thread blocked
    on a drained channel must not be resumed for a candidate that still
    has values on it - blocking is an availability observation, and the
    from-scratch run would have scheduled that thread differently."""
    from repro.vm.scheduler import RoundRobinScheduler
    # Under round-robin, the worker takes c[0]; main's read of "c" then
    # *blocks* on short-c candidates, after which the worker still
    # consumes "d" - so the previous candidate's checkpoint chain gains
    # a snapshot (at the "d" consumption) holding main in BLOCKED_INPUT.
    program = assemble("""
    global acc = 0
    fn main():
        spawn %w, worker
        input %a, "c"
        join %w
        load %t, acc
        add %t, %t, %a
        output "o", %t
        halt
    fn worker():
        input %b, "c"
        input %d, "d"
        mul %v, %b, 10
        add %v, %v, %d
        store acc, %v
        ret
    """)
    space = InputSpace.choices([
        {"c": [9], "d": [5]},       # main starves on "c": deadlock
        {"c": [1], "d": [5]},       # main starves, checkpoints at "d"
        {"c": [1, 2], "d": [5]},    # both reads of "c" satisfied
    ])

    def accept(m):
        # worker acc = 1*10 + 5; main output = acc + 2
        return m.failure is None and m.env.outputs == {"o": [17]}

    def build(inputs, seed, trace_mode):
        return Machine(program, env=Environment(inputs=inputs, seed=seed),
                       scheduler=RoundRobinScheduler(),
                       trace_mode=trace_mode)

    results = {}
    for sharing in (False, True):
        search = ExecutionSearch(program, space, schedule_seeds=range(1),
                                 build=build, prefix_sharing=sharing)
        outcome = search.search(accept)
        assert outcome.found, \
            f"prefix_sharing={sharing} wrongly rejected the full candidate"
        results[sharing] = outcome
    assert results[True].attempts == results[False].attempts
    assert results[True].machine.trace.fingerprint() == \
        results[False].machine.trace.fingerprint()


def test_accepted_machine_is_fully_traced():
    program = assemble(ECHO_SRC)
    recorded = run_program(program, inputs={"in": [1, 2]})
    __, search = grid_search()
    outcome = search.search(
        lambda m: m.env.outputs == recorded.env.outputs)
    assert outcome.found
    assert outcome.machine.trace_mode == "full"
    assert len(outcome.machine.trace.steps) == outcome.machine.steps
    assert outcome.materialized_runs == 1


def test_first_candidate_accept_is_not_rerun():
    """The first candidate runs with full tracing, so a first-try accept
    is the caller's replay as it ran: nothing is materialized, and
    nothing is charged to inference."""
    program = assemble(ECHO_SRC)
    recorded = run_program(program, inputs={"in": [0, 0]})
    __, search = grid_search()
    outcome = search.search(
        lambda m: m.env.outputs == recorded.env.outputs)
    assert outcome.found and outcome.attempts == 1
    assert outcome.machine.trace_mode == "full"
    assert len(outcome.machine.trace.steps) == outcome.machine.steps
    assert outcome.materialized_runs == 0
    assert outcome.inference_cycles == 0


class _StuckScheduler(RandomScheduler):
    """Raises ReplayDivergenceError at its fourth pick, as a sync-order
    scheduler does when the recorded order admits no runnable thread."""

    def pick(self, machine, runnable):
        if machine.steps == 3:
            raise ReplayDivergenceError("stuck")
        return super().pick(machine, runnable)


def test_diverging_candidate_is_rejected_and_charged():
    program = assemble(ECHO_SRC)
    recorded = run_program(program, inputs={"in": [1, 2]})

    def build(inputs, seed, trace_mode):
        scheduler = (RandomScheduler if seed else _StuckScheduler)(seed)
        return Machine(program, env=Environment(inputs=inputs),
                       scheduler=scheduler, trace_mode=trace_mode)

    search = ExecutionSearch(program, InputSpace.fixed({"in": [1, 2]}),
                             schedule_seeds=range(2), build=build)
    outcome = search.search(
        lambda m: m.env.outputs == recorded.env.outputs)
    stuck = build({"in": [1, 2]}, 0, "full")
    with pytest.raises(ReplayDivergenceError):
        stuck.run()
    assert stuck.meter.native_cycles > 0
    assert outcome.found and outcome.attempts == 2
    assert outcome.diverged_candidates == 1
    assert outcome.inference_cycles == stuck.meter.native_cycles
    assert outcome.machine.env.outputs == recorded.env.outputs


def test_enumeration_search_runs_candidates_in_events_mode():
    """collect_all with a dedupe key (root-cause enumeration) keeps each
    accepted candidate's sparse events trace, forks included."""
    __, search = grid_search()
    outcome = search.search(lambda m: True,
                            budget=SearchBudget(max_attempts=100),
                            collect_all=True,
                            dedupe_key=lambda m: tuple(m.env.outputs["echo"]))
    assert outcome.forked_candidates > 0
    assert outcome.materialized_runs == 0
    assert len(outcome.all_accepted) == 25  # one per distinct echo pair
    for machine in outcome.all_accepted:
        assert machine.trace_mode == "events" and machine.trace.sparse
        full = search.run_candidate(machine.trace.inputs_consumed, 0)
        assert [s._key() for s in machine.trace.steps] == \
            _effect_keys(full.trace.steps)


def test_collect_all_default_dedupe_key_is_behavioural():
    """id(machine) never deduplicated; the default key must."""
    program = assemble("""
    fn main():
        input %x, "in"
        div %y, %x, %x
        output "o", 1
        halt
    """)
    space = InputSpace.grid({"in": (1, Interval(1, 4))})
    search = ExecutionSearch(program, space, schedule_seeds=range(3))
    outcome = search.search(lambda m: m.failure is None,
                            budget=SearchBudget(max_attempts=100),
                            collect_all=True)
    # 4 inputs x 3 seeds all produce output [1] and no failure: one
    # behaviour, one representative.
    assert outcome.attempts == 12
    assert len(outcome.all_accepted) == 1
    keys = {default_dedupe_key(m) for m in outcome.all_accepted}
    assert len(keys) == 1
