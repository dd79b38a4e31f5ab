"""A dropped machine is freed by reference counting, not by the collector.

No reference cycle runs through a :class:`~repro.vm.machine.Machine`: it
keeps its plain step function (not a bound method of itself), its
environment holds it weakly, ``record_run`` detaches the recorder, and
the selective replayer's interceptor closes over the threads mapping.
So a machine and its trace go the moment their last reference does.
Each test runs a workload with the cyclic collector off and
``gc.DEBUG_SAVEALL`` on, then collects: any machine, trace, step record
or environment that only the collector could free lands in
``gc.garbage``.
"""

import gc
from collections import Counter

import pytest

from repro.apps import ALL_APPS
from repro.apps.base import find_failing_seed
from repro.models import DebugSession, model_order
from repro.models.session import (clear_cause_counts, count_root_causes,
                                  resolve_case)
from repro.vm.environment import Environment
from repro.vm.machine import Machine
from repro.vm.trace import StepRecord, Trace

WATCHED = (Machine, Trace, StepRecord, Environment)


def cyclic_garbage(workload) -> Counter:
    """The watched objects ``workload`` left for the cyclic collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        workload()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage
                       if isinstance(obj, WATCHED))
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
