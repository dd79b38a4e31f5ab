"""Substrate throughput sanity benchmarks (real wall-clock this time).

These are conventional micro-benchmarks: MiniVM interpretation speed,
DistSim event dispatch speed and recorder overhead.  They exist so substrate regressions are visible, not to
reproduce a figure.
"""

import os
import sys

import pytest

from repro.distsim import Node, Simulator
from repro.vm import RandomScheduler, assemble, run_program

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from test_golden_traces import COUNTER_SRC  # noqa: E402

pytestmark = pytest.mark.perf

# The counter workload the golden-trace test pins.
COUNTER = assemble(COUNTER_SRC)


def test_vm_throughput(benchmark):
    machine = benchmark(lambda: run_program(
        COUNTER, scheduler=RandomScheduler(seed=1)))
    assert machine.failure is None
    assert machine.steps > 4000


class _Relay(Node):
    def __init__(self, name, peer, hops):
        super().__init__(name)
        self.peer = peer
        self.hops = hops

    def attach(self, sim):
        super().attach(sim)
        if self.name == "a":
            self.set_timer(0.1, "kickoff")

    def timer_kickoff(self, __):
        self.send(self.peer, "hop", self.hops)

    def handle_hop(self, src, body):
        if body > 0:
            self.send(self.peer, "hop", body - 1)


def _run_relay():
    sim = Simulator(seed=3)
    a = _Relay("a", "b", 2000)
    b = _Relay("b", "a", 0)
    sim.add_node(a)
    sim.add_node(b)
    return sim.run()


def test_distsim_throughput(benchmark):
    trace = benchmark(_run_relay)
    assert len(trace.deliveries) >= 2000


def test_recorder_observation_cost(benchmark):
    """Recording must not change guest behaviour, only add meter cost."""
    from repro.record import ValueRecorder, record_run

    def recorded():
        return record_run(COUNTER, ValueRecorder(), seed=1,
                          scheduler=RandomScheduler(seed=1))

    log = benchmark(recorded)
    assert log.failure is None
    assert log.overhead_factor > 1.0
