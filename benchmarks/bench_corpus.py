"""Full corpus-matrix sweep: the 20-seed acceptance run, behind ``perf``.

Statistical counterpart of ``python -m repro bench --section corpus`` and
of ``python -m repro corpus run --seeds 20 --jobs 4``: the tier-1 suite
keeps only the 6-seed smoke (``tests/test_corpus_matrix.py``); the full
sweep and its determinism acceptance live here.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_corpus.py
"""

import copy

import pytest

from repro.corpus import BUG_CLASSES, run_matrix
from repro.harness.bench import (CORPUS_BENCH_CONFIGS, bench_corpus,
                                 bench_model_dispatch)
from repro.harness.experiments import MODEL_ORDER

pytestmark = pytest.mark.perf

SWEEP_SEEDS = range(20)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "CORPUS_results.json"
    return run_matrix(SWEEP_SEEDS, jobs=4, path=str(path))


def _comparable(results):
    trimmed = copy.deepcopy(results)
    trimmed.pop("timing")
    trimmed["config"].pop("jobs")
    return trimmed


def test_full_sweep_covers_all_cells(sweep):
    assert len(sweep["matrix"]) == len(list(SWEEP_SEEDS)) * len(MODEL_ORDER)
    per_class = {c: 0 for c in BUG_CLASSES}
    for case in sweep["cases"]:
        per_class[case["bug_class"]] += 1
    assert all(count >= 3 for count in per_class.values()), per_class


def test_full_sweep_is_deterministic(sweep):
    """Same seeds, different worker count: identical artifact."""
    again = run_matrix(SWEEP_SEEDS, jobs=1)
    assert _comparable(again) == _comparable(sweep)


def test_sweep_reproduces_every_bug_under_full_determinism(sweep):
    full_rows = [r for r in sweep["matrix"] if r["model"] == "full"]
    assert all(r["DF"] == 1.0 for r in full_rows)


def test_relaxation_trend_holds_on_generated_corpus(sweep):
    """Recording overhead falls along the §3 relaxation chronology."""
    mean_overhead = {m: sweep["summary"][m]["mean_overhead_x"]
                     for m in MODEL_ORDER}
    assert mean_overhead["full"] >= mean_overhead["value"] > \
        mean_overhead["failure"]
    assert mean_overhead["failure"] == 1.0


def test_bench_corpus_table_shape():
    table = bench_corpus(repeats=1)
    assert [(row["jobs"], row["seeds"])
            for row in table] == list(CORPUS_BENCH_CONFIGS)
    assert all(row["cells_per_sec"] > 0 for row in table)


def test_registry_dispatch_adds_no_measurable_cell_overhead():
    """The matrix throughput floor survives registry-based dispatch.

    A matrix cell runs in the ~10ms regime (~100 cells/sec floor); one
    cell's worth of model construction through the registry must stay
    microscopic next to that - we require at least 2,000 five-model
    constructions/sec (< 0.5ms per cell, i.e. under ~5% of a cell even
    on a badly loaded machine; in practice it is tens of microseconds).
    """
    table = bench_model_dispatch(repeats=2)
    rates = {row["variant"]: row["constructions_per_sec"] for row in table}
    assert set(rates) == {"direct_classes", "registry"}
    assert rates["registry"] >= 2_000, rates
    # And the registry hop itself stays within the same order of
    # magnitude as constructing the concrete classes directly.
    assert rates["registry"] >= rates["direct_classes"] / 10, rates
