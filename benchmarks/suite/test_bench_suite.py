"""Smoke test of the benchmark suite at smoke-test sizes.

Every workload of ``BENCHMARK.json`` runs once untraced and once traced
(two corpus seeds, one app x five models, one rerun call).  The test
checks the result line's shape, that every declared metric arrives with
its unit, and that every ledger wrapper fired - a wrapper bound to a
stale import alias would otherwise report 0 without complaint.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from ledger import NEVER_CALLED, WRAPPER_COUNTERS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _h:
    BENCHMARK = json.load(_h)


def _start(workload: str, trace: int, out: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--tiny", "--out", out],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{(workload, trace): (result line, --out detail)}."""
    tmp = tmp_path_factory.mktemp("suite")
    results = {}
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        started = {trace: _start(name, trace, str(tmp / f"{name}-{trace}"))
                   for trace in (0, 1)}
        for trace, process in started.items():
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
            with open(tmp / f"{name}-{trace}", encoding="utf-8") as handle:
                detail = json.load(handle)
            results[(name, trace)] = (
                json.loads(out.strip().splitlines()[-1]), detail)
    return results


def test_result_line_and_declared_metrics(runs):
    for (workload, trace), (line, detail) in runs.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, workload
        assert line["failed"] == 0 and line["attempted"] >= 1
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert {name: value["unit"]
                for name, value in line["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared}, (
            workload, trace)
        if not trace:  # compare.py's wall-time reading
            assert set(detail["wall_metrics"]) == set(line["metrics"])


def test_every_wrapper_fired(runs):
    fired = Counter()
    for __, detail in runs.values():
        for unit in detail["units"]:
            fired.update(unit.get("counts", {}))
    silent = [wrapper for wrapper, counter in WRAPPER_COUNTERS.items()
              if wrapper not in NEVER_CALLED and not fired[counter]]
    assert not silent


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "corpus-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
