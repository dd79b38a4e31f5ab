"""Trace utilities, environment behaviour, overhead metering."""

import pytest

from repro.corpus.generator import generate_case
from repro.errors import MachineError, SparseTraceError
from repro.vm import RandomScheduler, assemble, run_program
from repro.record.log import RecordingLog
from repro.vm.cost import CostModel, OverheadMeter, RecordingCosts
from repro.vm.environment import Environment
from repro.util.rng import DeterministicRng
from repro.vm.machine import Machine
from repro.vm.trace import StepRecord, Trace


def sample_machine(seed=5):
    return run_program(assemble("""
    global g = 0
    fn main():
        spawn %t, w, 3
        const %x, 1
        store g, %x
        join %t
        load %y, g
        output "o", %y
        halt
    fn w(n):
        store g, %n
        ret
    """), scheduler=RandomScheduler(seed=seed))


def test_trace_event_selectors():
    trace = sample_machine().trace
    assert all(s.writes for s in trace.write_events())
    assert all(s.reads or s.writes or s.sync
               for s in trace.memory_or_sync_events())


# -- sparse (events-mode) traces ----------------------------------------------


@pytest.fixture(scope="module")
def twins():
    """Corpus seed 0's failing run, traced in full and in events mode."""
    case = generate_case(0)
    traces = []
    for mode in ("full", "events"):
        env = Environment(inputs={k: list(v) for k, v in case.inputs.items()},
                          seed=case.failing_seed,
                          net_drop_rate=case.net_drop_rate)
        traces.append(Machine(
            case.program, env=env,
            scheduler=case.production_scheduler(case.failing_seed),
            io_spec=case.io_spec, trace_mode=mode).run().trace)
    full, events = traces
    assert events.sparse and not full.sparse
    assert 0 < len(events.steps) < len(full.steps)
    return full, events


def _keys(steps):
    return [step._key() for step in steps]


# The effect subsets an events trace keeps: the two the trace answers,
# and the I/O, sync and shared-access steps read off ``steps``.
SUBSETS = {
    "io_events": lambda trace: [s for s in trace.steps if s.io is not None],
    "sync_events":
        lambda trace: [s for s in trace.steps if s.sync is not None],
    "shared_accesses":
        lambda trace: [s for s in trace.steps if s.reads or s.writes],
    "write_events": lambda trace: trace.write_events(),
    "memory_or_sync_events": lambda trace: trace.memory_or_sync_events(),
}


@pytest.mark.parametrize("query", list(SUBSETS))
def test_sparse_event_subsets_match_the_full_trace(twins, query):
    full, events = twins
    assert _keys(SUBSETS[query](events)) == _keys(SUBSETS[query](full))


def test_sparse_trace_keeps_every_write_with_its_global_index(twins):
    """An events trace keeps every write of the run, each under its
    global step index: the full trace's step at that index."""
    full, events = twins
    writes = events.write_events()
    assert writes
    assert _keys(writes) == _keys(s for s in full.steps if s.writes)
    for step in writes:
        assert full.steps[step.index]._key() == step._key()


@pytest.mark.parametrize("query", [
    lambda trace: trace.thread_branch_paths(),
    lambda trace: trace.fingerprint(),
], ids=["thread_branch_paths", "fingerprint"])
def test_queries_needing_every_step_refuse_a_sparse_trace(twins, query):
    full, events = twins
    query(full)
    with pytest.raises(SparseTraceError):
        query(events)
    with pytest.raises(SparseTraceError):
        query(events.fork())


# -- per-query lazy indexes ----------------------------------------------------


QUERIES = {
    "write_events": lambda trace: _keys(trace.write_events()),
    "memory_or_sync_events":
        lambda trace: _keys(trace.memory_or_sync_events()),
    "thread_branch_paths": lambda trace: trace.thread_branch_paths(),
}
EVERY_STEP = ("thread_branch_paths",)


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("sparse", [False, True], ids=["full", "events"])
def test_indexes_grown_between_queries_match_a_fresh_trace(twins, sparse,
                                                           order):
    """Appends and queries interleaved in seeded orders: every answer is
    the one a trace built from the same steps at once gives."""
    full = twins[0]
    source = twins[1] if sparse else full
    rng = DeterministicRng(order, "trace-index-order")
    names = [name for name in QUERIES
             if not (sparse and name in EVERY_STEP)]
    grown = Trace()
    grown.sparse = sparse
    cuts = sorted(rng.randint(0, len(source.steps)) for __ in range(5))
    done = 0
    for cut in cuts + [len(source.steps)]:
        for step in source.steps[done:cut]:
            grown.append(step)
        done = cut
        fresh = Trace(steps=source.steps[:cut])
        fresh.sparse = sparse
        for name in rng.shuffle(names)[:rng.randint(1, len(names))]:
            assert QUERIES[name](grown) == QUERIES[name](fresh), (name, cut)


class _WatchedStep(StepRecord):
    """A step counting reads of ``function``, which every site string
    is formatted from."""

    __slots__ = ("_function",)
    function_reads = 0

    @property
    def function(self):
        _WatchedStep.function_reads += 1
        return self._function

    @function.setter
    def function(self, value):
        self._function = value


def test_event_and_branch_queries_format_no_site_string(twins, monkeypatch):
    full, __ = twins
    trace = Trace(steps=[
        _WatchedStep(s.index, s.tid, s.function, s.pc, s.op, s.cost,
                     s.reads, s.writes, s.sync, s.io, s.branch_taken)
        for s in full.steps])
    monkeypatch.setattr(_WatchedStep, "function_reads", 0)
    writes = trace.write_events()
    events = trace.memory_or_sync_events()
    paths = trace.thread_branch_paths()
    assert _WatchedStep.function_reads == 0
    assert _keys(writes) == _keys(full.write_events())
    assert _keys(events) == _keys(full.memory_or_sync_events())
    assert paths == full.thread_branch_paths()
    # The watch sees a site string formatted.
    monkeypatch.setattr(_WatchedStep, "function_reads", 0)
    assert [step.site for step in trace.steps] == \
        [step.site for step in full.steps]
    assert _WatchedStep.function_reads == len(full.steps)


def test_environment_input_bookkeeping():
    env = Environment(inputs={"a": [1, 2], "b": [3]})
    assert env.has_input("a")
    assert env.read_input("a") == 1
    assert env.inputs_consumed == {"a": [1]}
    env.read_input("a")
    env.read_input("b")
    assert not env.has_input("a") and not env.has_input("b")
    with pytest.raises(MachineError):
        env.read_input("a")


def test_environment_unknown_syscall():
    env = Environment()

    class FakeMachine:
        pass
    env.attach(FakeMachine())
    with pytest.raises(MachineError):
        env.syscall("frobnicate", [])


def test_time_syscall_reads_the_machine_only_while_it_lives():
    """The environment holds its machine weakly: ``time`` reads the
    running machine's cycles, and once the machine is dropped (freed at
    once, as no cycle holds it) ``env.machine`` refuses like an
    environment that was never attached."""
    program = assemble("""
    fn main():
        mov %a, 1
        syscall %t, "time"
        output "o", %t
        halt
    """)
    from repro.vm.machine import Machine
    machine = Machine(program).run()
    env = machine.env
    assert env.outputs["o"] == [machine.cost_model.instruction_cost("mov")]
    assert env.machine is machine
    del machine
    with pytest.raises(MachineError, match="not attached"):
        env.machine
    with pytest.raises(MachineError, match="not attached"):
        Environment().syscall("time", [])


def test_net_send_drop_rate():
    env = Environment(seed=3, net_drop_rate=1.0)

    class FakeMachine:
        pass
    env.attach(FakeMachine())
    assert env.syscall("net_send", ["ch", 9]) == 0
    assert env.outputs.get("ch") is None
    env2 = Environment(seed=3, net_drop_rate=0.0)
    env2.attach(FakeMachine())
    assert env2.syscall("net_send", ["ch", 9]) == 1
    assert env2.outputs["ch"] == [9]


def _overhead(meter):
    """The overhead a recording log reports for ``meter``'s run."""
    return RecordingLog("full", native_cycles=meter.native_cycles,
                        recording_cycles=meter.recording_cycles
                        ).overhead_factor


def test_overhead_meter_accounting():
    meter = OverheadMeter(native_cycles=100)
    assert _overhead(meter) == 1.0
    meter.charge_recording("input", 30, count=2)
    assert meter.recording_cycles == 60
    assert meter.recorded_events == {"input": 2}
    assert _overhead(meter) == pytest.approx(1.6)


def test_overhead_meter_empty_run():
    assert _overhead(OverheadMeter()) == 1.0


def test_cost_model_overrides():
    model = CostModel(instruction_costs={"mul": 99},
                      recording=RecordingCosts(input=5))
    assert model.instruction_cost("mul") == 99
    assert model.instruction_cost("add") == 1
    assert model.recording.input == 5


def test_cost_model_charged_per_instruction():
    machine = sample_machine()
    assert machine.meter.native_cycles > machine.steps, \
        "multi-cycle instructions must cost more than 1"


# Counts down, then draws twice from the environment stream.
DRAWS_LATE = """
fn main():
    const %i, 6
loop:
    sub %i, %i, 1
    jnz %i, loop
    syscall %r, "random", 1000
    syscall %s, "random", 1000
    output "o", %r
    output "o", %s
    halt
"""


def test_environment_stream_is_seeded_at_its_first_draw():
    """A run that never draws leaves its environment stream unseeded;
    forks taken at every step, before and after the first draw, run on
    as the run from scratch does."""
    quiet = run_program(assemble("""
    fn main():
        output "o", 1
        halt
    """), seed=4)
    assert quiet.env.rng._random is None
    program = assemble(DRAWS_LATE)
    whole = run_program(program, seed=4)
    machine = Machine(program, env=Environment(seed=4),
                      scheduler=RandomScheduler())
    forks = []
    while machine.steps < whole.steps:
        forks.append((machine.env.rng._random is None, machine.fork()))
        machine.advance(1)
    assert machine.env.rng._random is not None
    assert {unseeded for unseeded, __ in forks} == {True, False}
    for unseeded, fork in forks:
        assert (fork.env.rng._random is None) == unseeded
        assert fork.run().trace.fingerprint() == whole.trace.fingerprint()
        assert fork.env.outputs == whole.env.outputs
