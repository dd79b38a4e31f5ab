#!/usr/bin/env python3
"""Compare two sets of suite runs, e.g. a parent commit and a change.

    python3 benchmarks/suite/compare.py A/ B/

``A/`` and ``B/`` hold ``run.py --out`` files.  Runs pair up by
workload, trace flag and seed, in start order, so pair ``i`` is the
``i``-th run of one seed on each side; make them alternately, A first
in even pairs and B first in odd ones (a pair made otherwise is
flagged).  For every workload and end-to-end metric of
``BENCHMARK.json`` the verdict is, in this order:

- ``unresolved``: A's spread (quartile distance over median) exceeds the
  metric's bound, and not every B run beats every A run;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``gain``: B wins at least 9 in 10 pairs (ties count for neither side)
  and the medians differ by more than A's quartile distance;
- ``same`` otherwise.

Each metric gets this verdict twice: from the reported values, in
reference seconds, and from the same metrics over raw wall time
(``wall_metrics``), so a host-speed correction that hid or made up a
change shows as two different verdicts.  A workload whose failed cells
rose from A to B is ``failed-rose``.  When both sides hold traced runs,
their per-layer medians are listed too, without verdicts.  Exit code 1
when either reading regressed or failures rose.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")
GAIN_SHARE = 0.9


def load(directory: str):
    """{(workload, trace): [run, ...]} sorted by (seed, start time)."""
    runs = defaultdict(list)
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        if "workload" in run:
            runs[(run["workload"], run["trace"])].append(run)
    for group in runs.values():
        group.sort(key=lambda run: (run["seed"], run["started"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, bound: float, lower_is_better: bool) -> tuple:
    """(verdict, B-vs-A change as a share of A's median, pair wins)."""
    sign = 1 if lower_is_better else -1  # sign * (b - a) > 0 is worse
    q1, median_a, q3 = quartiles(a)
    median_b = quartiles(b)[1]
    change = (median_b - median_a) / median_a
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if (q3 - q1) / median_a > bound and not all_better:
        return "unresolved", change, wins
    if sign * change > bound:
        return "regressed", change, wins
    if (wins >= GAIN_SHARE * len(a) and sign * change < 0
            and abs(median_b - median_a) > q3 - q1):
        return "gain", change, wins
    return "same", change, wins


def alternated(a_runs, b_runs) -> bool:
    return all((pair % 2 == 0) == (a["started"] < b["started"])
               for pair, (a, b) in enumerate(zip(a_runs, b_runs)))


def describe(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a_dir: str, b_dir: str) -> int:
    with open(BENCHMARK, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    side_a, side_b = load(a_dir), load(b_dir)
    bad = 0
    print(f"{'workload':14} {'metric':16} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8} {'wins':>6}  "
          f"verdict (wall-time verdict)")
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace = key
        a_runs, b_runs = side_a[key], side_b[key]
        if len(a_runs) != len(b_runs):
            print(f"{workload}: {len(a_runs)} A runs vs {len(b_runs)} "
                  f"B runs; pair them one to one", file=sys.stderr)
            return 2
        if trace:
            print_layers(workload, a_runs, b_runs)
            continue
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            outcome, change, wins = verdict(a, b, metric["bound"], lower)
            wall = verdict([run["wall_metrics"][name] for run in a_runs],
                           [run["wall_metrics"][name] for run in b_runs],
                           metric["bound"], lower)[0]
            bad += "regressed" in (outcome, wall)
            print(f"{workload:14} {name:16} {describe(a):>32} "
                  f"{describe(b):>32} {change:+8.1%} "
                  f"{wins:>3}/{len(a):<2}  {outcome} ({wall})")
        failed_a = sum(run["failed"] for run in a_runs)
        failed_b = sum(run["failed"] for run in b_runs)
        rose = failed_b > failed_a
        bad += rose
        note = "" if alternated(a_runs, b_runs) else "  (not alternated)"
        print(f"{workload:14} {'failed cells':16} {failed_a:>32} "
              f"{failed_b:>32} {'':>8} {'':>6}  "
              f"{'failed-rose' if rose else 'ok'}{note}")
    return 1 if bad else 0


def print_layers(workload, a_runs, b_runs) -> None:
    names = list(a_runs[0]["metrics"])
    for name in names:
        a = [run["metrics"][name]["value"] for run in a_runs]
        b = [run["metrics"][name]["value"] for run in b_runs]
        median_a, median_b = statistics.median(a), statistics.median(b)
        change = (f"{(median_b - median_a) / median_a:+8.1%}"
                  if median_a else f"{'':>8}")
        print(f"{workload:14} {name:24} {median_a:>24.6g} "
              f"{median_b:>32.6g} {change}  (traced)")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
