#!/usr/bin/env python3
"""Run one workload of the benchmark suite and print its metrics.

From the repository root::

    python3 benchmarks/suite/run.py --workload corpus-sweep --seed 0 \\
        --seconds 10 --trace 0 [--out run.json]

This process is the one closed-loop client.  It starts one unit process
(``unit.py``) at a time - a fresh interpreter that imports ``repro``,
sets the workload up and sends it its requests one after another - and
starts the next unit only when the last has finished.  ``--seconds``
fixes how many units run (``UNITS_PER_10_S``, and at least enough for
100 latency samples), so a faster commit does the same work, not more.
Only the corpus-fleet units start workers of their own (two, one per
core).

Every unit repeats the same requests in a fresh process.  A request's
time is its wall time scaled by the host's speed while it ran, read
from the unit's kernel sampler (``unit.SpeedSampler``), in seconds of
the reference host.  Throughput takes, for each request, the median
over units; the latency percentiles pool every request of every unit.

``--trace 0`` reports the end-to-end metrics from untraced units.
``--trace 1`` measures one untraced and one traced unit and reports the
per-layer ledger (``ledger.py``) of the traced one, plus the tracing
overhead.  Every output is checked against the pinned digests in
``expected/``, against the committed ``CORPUS_results.json`` rows it
overlaps, and against every other unit of the run; a mismatch counts
its cells as failed and makes the exit code 1.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from unit import digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected")
COMMITTED = os.path.join(ROOT, "CORPUS_results.json")

# Units an untraced run measures per 10 s of ``--seconds``, the setting
# the bounds in BENCHMARK.json were measured at.  A unit's timed phase
# takes about 5.4 s on the reference host (sweep), 5 s (fleet), 1 s
# (rerun) or 12 s (app; LATENCY_SAMPLES makes that three units).  A
# traced run measures one untraced and one traced unit.
UNITS_PER_10_S = {"corpus-sweep": 1, "corpus-fleet": 2,
                  "corpus-rerun": 2, "app-sessions": 1}
SETUP_SAMPLES = 3
# Request latencies an untraced run pools, at least: the 90th
# percentile then has ten samples beyond it.
LATENCY_SAMPLES = 100
# Median of one ``unit.SpeedSampler`` kernel reading on the reference
# host (2-vCPU Intel Xeon VM, CPython 3.11): a time scaled by the mean
# of this over the readings taken during it is in reference seconds.
REFERENCE_SAMPLE_S = 0.00022
# Sampler readings that make a span's speed estimate (~0.25 s of them).
MIN_SAMPLES = 10
# Every unit must finish this long after the run starts.
RUN_DEADLINE_S = 170.0


class UnitFailed(Exception):
    """A unit process crashed or overran the run deadline."""


def run_unit(spec, deadline: float) -> dict:
    """Start one unit process, wait for it, return its JSON result."""
    command = [sys.executable, os.path.join(HERE, "unit.py"),
               json.dumps(spec)]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, err = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # The unit's fleet workers share its process group.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise UnitFailed(f"{spec['workload']} {spec['mode']} unit ran "
                             f"past the {RUN_DEADLINE_S:.0f}s deadline")
        raise
    if process.returncode != 0:
        raise UnitFailed(f"{spec['workload']} {spec['mode']} unit exited "
                         f"{process.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def reference_seconds(unit, calibrated: bool = True) -> list:
    """Each span's duration (set-up first, then the requests) in seconds
    of the reference host, or in wall seconds if not ``calibrated``.

    A span ran at the mean speed (``REFERENCE_SAMPLE_S`` over the
    reading) of the sampler readings taken during it; one too short to
    hold ``MIN_SAMPLES`` of them, at that of the ``MIN_SAMPLES``
    readings nearest its middle.  The readings come at even steps of
    wall time, so their mean speed is the work done per second of the
    span: the host switches between a fast and a slow state, and the
    mean follows the share of the span spent in each, where a median
    would jump from one state to the other.  A reading stretched by a
    stall weighs at most one step, as the stall did.
    """
    at = [started for started, __ in unit["samples"]]
    speeds = [REFERENCE_SAMPLE_S / seconds for __, seconds in unit["samples"]]
    result = []
    for started, ended in unit["spans"]:
        speed = 1.0
        if calibrated:
            low = bisect.bisect_left(at, started)
            high = bisect.bisect_right(at, ended)
            if high - low < MIN_SAMPLES:
                middle = bisect.bisect_left(at, (started + ended) / 2)
                low = max(0, min(middle - MIN_SAMPLES // 2,
                                 len(at) - MIN_SAMPLES))
                high = low + MIN_SAMPLES
            speed = statistics.fmean(speeds[low:high])
        result.append((ended - started) * speed)
    return result


def typical_requests(units, calibrated: bool = True) -> list:
    """Per request, its median seconds over ``units``."""
    return [statistics.median(column) for column in zip(
        *(reference_seconds(unit, calibrated)[1:] for unit in units))]


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (``inclusive``)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def unit_digest(unit) -> str:
    return digest([output["digest"] for output in unit["outputs"]])


def pinned_digest(workload: str, seed: int):
    """The committed digest of one unit's outputs at ``seed``."""
    path = os.path.join(EXPECTED, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        value = json.load(handle).get(str(seed))
    if value is None or isinstance(value, str):
        return value
    return digest([digest(row) for row in value])  # an app-sessions table


def committed_mismatches(rows) -> int:
    """Rows that differ from the committed ``CORPUS_results.json``."""
    if not rows:
        return 0
    with open(COMMITTED, encoding="utf-8") as handle:
        committed = {(row["seed"], row["model"]): row
                     for row in json.load(handle)["matrix"]}
    return sum(committed.get((row["seed"], row["model"])) != row
               for row in rows)


def check(args, units, fixture):
    """(attempted, failed) cells over every measured output.

    A unit whose outputs differ from the pin (or, for an unpinned seed,
    from the first unit) fails all its cells; a rerun output must also
    equal the cold output of the same seeds in the fixture that filled
    its store.
    """
    pinned = None if args.tiny else pinned_digest(args.workload, args.seed)
    reference = pinned or unit_digest(units[0])
    cold = fixture and [output["digest"] for output in fixture["outputs"]]
    attempted = failed = 0
    for unit in units:
        cells = sum(output["cells"] for output in unit["outputs"])
        attempted += cells
        if unit_digest(unit) != reference:
            failed += cells
        else:
            failed += sum(
                output["cells"]
                if cold and output["digest"] != cold[index % len(cold)]
                else output["cells"] - output["ok"]
                for index, output in enumerate(unit["outputs"]))
        if args.workload != "app-sessions":
            failed += committed_mismatches(unit["rows"])
    return attempted, failed


def measure(args, scratch: str, deadline: float):
    """Run every unit; returns (units, set-up units, fixture)."""
    spec = {"root": ROOT, "workload": args.workload, "seed": args.seed,
            "tiny": args.tiny, "traced": False, "store": None,
            "scratch": scratch}
    fixture = None
    if args.workload == "corpus-rerun":
        spec["store"] = os.path.join(scratch, "rerun-store")
        fixture = run_unit({**spec, "mode": "fixture"}, deadline)
    planned = max(1, round(UNITS_PER_10_S[args.workload] * args.seconds
                           / 10))
    units = []

    def enough() -> bool:
        if args.trace:
            return len(units) == 2
        if args.tiny:
            return len(units) == 1
        return len(units) >= planned and LATENCY_SAMPLES <= sum(
            len(unit["spans"]) - 1 for unit in units)

    # A traced run measures one untraced unit, for the tracing overhead,
    # then one traced unit.
    while not enough():
        traced = bool(args.trace) and len(units) == 1
        unit = run_unit({**spec, "mode": "run", "traced": traced}, deadline)
        unit["traced"] = traced
        units.append(unit)
    setups = [unit for unit in units if not unit["traced"]]
    wanted = 1 if args.tiny else SETUP_SAMPLES
    while not args.trace and len(setups) < wanted:
        setups.append(run_unit({**spec, "mode": "setup"}, deadline))
    return units, setups, fixture


def end_to_end(units, setups, calibrated: bool = True) -> dict:
    plain = [unit for unit in units if not unit["traced"]]
    latencies = [seconds for unit in plain
                 for seconds in reference_seconds(unit, calibrated)[1:]]
    ok = sum(output["ok"] for output in plain[0]["outputs"])
    return {
        "setup_s": statistics.median(reference_seconds(unit, calibrated)[0]
                                     for unit in setups),
        "cells_per_s": ok / sum(typical_requests(plain, calibrated)),
        "request_p50_ms": 1000 * percentile(latencies, 0.5),
        "request_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": max(unit["rss_kb"] for unit in plain) / 1024,
    }


def per_layer(units, declared) -> dict:
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]

    def scaled(unit, name):
        speed = sum(reference_seconds(unit)[1:]) / sum(
            ended - started for started, ended in unit["spans"][1:])
        value = unit["layers"][name]
        return {"s": value * speed, "1/s": value / speed}.get(
            declared[name], value)

    metrics = {name: statistics.median(scaled(u, name) for u in traced)
               for name in declared if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (sum(typical_requests(traced))
                                      / sum(typical_requests(plain)) - 1)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=UNITS_PER_10_S)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (1 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="scales the number of units; the bounds "
                             "assume 10")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer ledger instead")
    parser.add_argument("--out", help="also write the full run as JSON")
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)  # smoke-test sizes
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no repro package under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # Terminated, still reap the running unit and its fleet workers.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    started = time.time()
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = os.path.join(ROOT, ".bench_build", "suite")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        units, setups, fixture = measure(args, scratch, deadline)
    except UnitFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed = check(args, units, fixture)
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = {metric["name"]: metric["unit"] for metric in
                    json.load(handle)["per_layer" if args.trace
                                      else "end_to_end"]}
    values = (per_layer(units, declared) if args.trace
              else end_to_end(units, setups))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in declared.items()}}
    if args.out:
        # ``digest`` (and, on app-sessions, ``table``) is what a pin in
        # expected/ holds for this seed.
        detail = {**result, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "started": started,
                  "digest": unit_digest(units[0]),
                  "table": (units[0]["rows"]
                            if args.workload == "app-sessions" else None),
                  "latency_samples": sum(len(unit["spans"]) - 1
                                         for unit in units
                                         if not unit["traced"]),
                  "fixture": fixture and fixture["outputs"],
                  "units": [{key: unit[key] for key in unit
                             if key != "rows"} for unit in units]}
        if not args.trace:
            detail["wall_metrics"] = end_to_end(units, setups,
                                                calibrated=False)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1)
            handle.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
