"""Interpreter hot-path benchmarks (decode-once dispatch).

Statistical (pytest-benchmark) counterpart of ``python -m repro bench``:
each workload from :mod:`repro.harness.bench` runs under the benchmark
fixture, and the module writes the ``BENCH_interpreter.json`` summary at
teardown so the perf trajectory is tracked across PRs.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_interpreter.py
"""

import pytest

from repro.harness.bench import (BENCH_SUMMARY_PATH, WORKLOADS,
                                 bench_search, bench_trace_queries,
                                 odr_replay_runner, run_workload,
                                 write_summary)
from repro.util.tables import Table

pytestmark = pytest.mark.perf

# workload -> {steps, steps_per_sec}, filled by the throughput tests and
# flushed to BENCH_interpreter.json when the module finishes.
_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_summary():
    yield
    if not _RESULTS:
        return
    table = Table(["workload", "steps", "seconds", "steps_per_sec"])
    for name, row in _RESULTS.items():
        table.add_row(workload=name, steps=row["steps"],
                      seconds=row["seconds"],
                      steps_per_sec=row["steps_per_sec"])
    write_summary(table, bench_trace_queries(), path=BENCH_SUMMARY_PATH,
                  search=bench_search())


@pytest.mark.parametrize("workload", list(WORKLOADS) + ["odr_replay"])
def test_interpreter_throughput(benchmark, workload):
    if workload == "odr_replay":
        run = odr_replay_runner()
    else:
        def run():
            return run_workload(workload)
    machine = benchmark(run)
    assert machine.failure is None
    assert machine.steps > 100
    fastest = benchmark.stats.stats.min
    _RESULTS[workload] = {
        "steps": machine.steps,
        "seconds": fastest,
        "steps_per_sec": round(machine.steps / fastest),
    }
    benchmark.extra_info["steps_per_sec"] = _RESULTS[workload][
        "steps_per_sec"]


def test_counter_meets_throughput_floor():
    """The COUNTER workload must clear 2x the seed interpreter's rate.

    The pre-dispatch interpreter ran this workload at ~150k steps/sec on
    the reference container; decode-once dispatch must keep a comfortable
    margin above double that.  Wall-clock floors are fragile across
    hardware, so the floor is deliberately conservative.
    """
    import time
    run_workload("counter")  # warmup + decode
    best = 0.0
    for __ in range(3):
        start = time.perf_counter()
        machine = run_workload("counter")
        elapsed = time.perf_counter() - start
        best = max(best, machine.steps / elapsed)
    assert best > 250_000, f"counter workload regressed: {best:,.0f} steps/s"
