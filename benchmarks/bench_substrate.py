"""Substrate throughput sanity benchmarks (real wall-clock this time).

These are conventional micro-benchmarks: MiniVM interpretation speed,
DistSim event dispatch speed, indexed trace queries and recorder
overhead.  They exist so substrate regressions are visible, not to
reproduce a figure.
"""

import os
import sys

import pytest

from repro.distsim import Node, Simulator
from repro.vm import RandomScheduler, assemble, run_program
from repro.vm.trace import StepRecord, Trace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from test_golden_traces import COUNTER_SRC  # noqa: E402

pytestmark = pytest.mark.perf

# The counter workload the golden-trace test pins.
COUNTER = assemble(COUNTER_SRC)

TRACE_BENCH_STEPS = 100_000
TRACE_BENCH_LOCATIONS = 64
TRACE_BENCH_QUERIES = 2000


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


def build_synthetic_trace() -> Trace:
    """A large trace with a realistic mix of step kinds for query benches."""
    trace = Trace()
    for i in range(TRACE_BENCH_STEPS):
        kind = i % 10
        if kind < 6:  # pure register step
            trace.append(StepRecord(i, i % 3, "main", i % 500, "add", 1))
        elif kind < 8:
            loc = ("g", f"g{i % TRACE_BENCH_LOCATIONS}")
            trace.append(StepRecord(i, i % 3, "main", i % 500, "store", 2,
                                    writes=[(loc, i)]))
        elif kind < 9:
            loc = ("g", f"g{i % TRACE_BENCH_LOCATIONS}")
            trace.append(StepRecord(i, i % 3, "main", i % 500, "load", 2,
                                    reads=[(loc, i)]))
        else:
            trace.append(StepRecord(i, i % 3, "main", i % 500, "lock", 6,
                                    sync=("lock", "m")))
    return trace


def last_write_query_hits(trace: Trace) -> int:
    """Run the standard ``last_write_before`` query mix; returns hits."""
    n_steps = trace.total_steps
    hits = 0
    for i in range(TRACE_BENCH_QUERIES):
        step = trace.last_write_before(
            ("g", f"g{i % TRACE_BENCH_LOCATIONS}"), (i * 37) % n_steps)
        if step is not None:
            hits += 1
    return hits


def test_trace_query_cost(benchmark):
    """Indexed trace queries on a 100k-step trace.

    ``last_write_before`` was an O(n) backwards scan per call and
    ``sites_executed`` an O(n) rebuild per call; both now hit lazily
    built indexes (bisect over per-location write positions, cached site
    list), so thousands of queries cost milliseconds, not minutes.
    """
    trace = build_synthetic_trace()
    trace.sites_executed()  # build the lazy indexes once, up front

    def queries():
        return last_write_query_hits(trace), len(trace.sites_executed())

    hits, n_sites = benchmark(queries)
    assert n_sites == TRACE_BENCH_STEPS
    assert hits > 1000


def test_recorder_observation_cost(benchmark):
    """Recording must not change guest behaviour, only add meter cost."""
    from repro.record import ValueRecorder, record_run

    def recorded():
        return record_run(COUNTER, ValueRecorder(), seed=1,
                          scheduler=RandomScheduler(seed=1))

    log = benchmark(recorded)
    assert log.failure is None
    assert log.overhead_factor > 1.0
