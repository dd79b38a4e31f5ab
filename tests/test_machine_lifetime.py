"""A dropped machine is freed by reference counting, not by the collector.

No reference cycle runs through a :class:`~repro.vm.machine.Machine`: it
keeps its plain step function (not a bound method of itself), its
environment holds it weakly, ``record_run`` detaches the recorder, and
the selective replayer's interceptor closes over the threads mapping.
Nor does one run through a program: its code table holds no reference
back to it, and an :class:`~repro.replay.search.ExecutionSearch` stores
no bound method or lambda over itself.  So a machine and its trace go
the moment their last reference does, and so do a program a received
log rebuilt and the searches that ran it.  Each test runs a workload
with the cyclic collector off and ``gc.DEBUG_SAVEALL`` on, then
collects: any watched object that only the collector could free lands
in ``gc.garbage``.
"""

import gc
from collections import Counter

import pytest

from repro.apps import ALL_APPS
from repro.apps.base import find_failing_seed
from repro.models import DebugSession, model_order
from repro.models.session import (clear_cause_counts, count_root_causes,
                                  resolve_case)
from repro.replay.search import ExecutionSearch
from repro.vm.assembler import assemble
from repro.vm.environment import Environment
from repro.vm.machine import Machine
from repro.vm.program import Function, Program
from repro.vm.trace import StepRecord, Trace

WATCHED = (Machine, Trace, StepRecord, Environment, Program, Function,
           ExecutionSearch)


def cyclic_garbage(workload, watched=WATCHED) -> Counter:
    """The ``watched`` objects ``workload`` left for the cyclic
    collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        workload()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage
                       if isinstance(obj, watched))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("trace_mode", ["full", "counting", "events"])
def test_bare_run_and_fork_leave_no_cycles(trace_mode):
    case = ALL_APPS["racy_counter"]()

    def run_and_fork():
        machine = Machine(case.program,
                          env=Environment(inputs=case.inputs),
                          scheduler=case.production_scheduler(0),
                          trace_mode=trace_mode)
        machine.advance(40)
        fork = machine.fork()
        assert machine.run().steps == fork.run().steps > 40

    assert cyclic_garbage(run_and_fork) == Counter()


def test_recursive_program_leaves_nothing_for_the_collector():
    """A program's code table holds no cycle, even for a function that
    calls itself: the ``call`` handler reads the callee's code off the
    machine instead of capturing it."""
    source = """
    fn fact(n):
        jz %n, base
        sub %m, %n, 1
        call %r, fact, %m
        mul %r, %r, %n
        ret %r
    base:
        ret 1
    fn main():
        call %x, fact, 5
        output "o", %x
        halt
    """

    def assemble_and_run():
        assert Machine(assemble(source)).run().env.outputs["o"] == [120]

    assert cyclic_garbage(assemble_and_run, watched=object) == Counter()


@pytest.mark.parametrize("ref", ["app:racy_counter", "corpus:0"])
@pytest.mark.parametrize("model", model_order())
def test_debug_session_leaves_no_cycles(ref, model):
    def session():
        recorder = DebugSession(resolve_case(ref), model)
        recorder.record()
        workstation = DebugSession.receive(recorder.ship())
        workstation.replay()
        workstation.score(cause_count_attempts=6)

    assert cyclic_garbage(session) == Counter()


def test_count_root_causes_leaves_no_cycles():
    case = ALL_APPS["racy_counter"]()
    failure = case.run(find_failing_seed(case)).failure

    def count():
        clear_cause_counts()
        assert count_root_causes(case, failure, max_attempts=20) >= 1

    try:
        assert cyclic_garbage(count) == Counter()
    finally:
        clear_cause_counts()
