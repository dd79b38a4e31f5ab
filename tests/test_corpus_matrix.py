"""Corpus matrix smoke: parallel, serializer-shipped, deterministic.

The fast default test runs one full round of bug classes across all five
determinism models on a 2-worker pool; the full 20-seed acceptance sweep
lives in ``benchmarks/bench_corpus.py`` behind the ``perf`` marker.
"""

import copy
import json

import pytest

from repro.corpus import BUG_CLASSES, generate_case, run_matrix
from repro.corpus.matrix import corpus_tables, run_corpus_experiment
from repro.harness.experiments import MODEL_ORDER, evaluate_app_model
from repro.models import DebugSession
from repro.record import log_from_dict

SMOKE_SEEDS = range(len(BUG_CLASSES))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "CORPUS_results.json"
    return run_matrix(SMOKE_SEEDS, jobs=2, path=str(path)), path


def _comparable(results):
    trimmed = copy.deepcopy(results)
    trimmed.pop("timing")           # wall-clock: the only variable part
    trimmed["config"].pop("jobs")   # worker count must not change results
    return trimmed


def test_matrix_covers_every_cell_and_class(smoke):
    results, __ = smoke
    rows = results["matrix"]
    assert len(rows) == len(list(SMOKE_SEEDS)) * len(MODEL_ORDER)
    assert {r["bug_class"] for r in rows} == set(BUG_CLASSES)
    assert set(results["summary"]) == set(MODEL_ORDER)
    assert results["sweet_spot"]["model"] in MODEL_ORDER


def test_full_determinism_replays_every_generated_case(smoke):
    """The strictest model must reproduce every planted bug exactly."""
    results, __ = smoke
    full_rows = [r for r in results["matrix"] if r["model"] == "full"]
    assert all(r["failure_reproduced"] for r in full_rows)
    assert all(r["DF"] == 1.0 and r["truth_matched"] for r in full_rows)


def test_results_artifact_round_trips(smoke):
    results, path = smoke
    assert json.loads(path.read_text()) == json.loads(json.dumps(results))


def test_parallel_and_sequential_matrices_agree(smoke):
    """jobs=1 and jobs=2 must produce identical rows (modulo timing)."""
    results, __ = smoke
    sequential = run_matrix(SMOKE_SEEDS, jobs=1)
    assert _comparable(sequential) == _comparable(results)


def test_matrix_cell_matches_direct_evaluation(smoke):
    """A matrix cell equals an in-process ground-truth evaluation."""
    results, __ = smoke
    case = generate_case(0)
    metrics = evaluate_app_model(
        case, "full", seed=case.failing_seed,
        ground_truth_cause=case.known_cause, cause_count_attempts=60)
    row = next(r for r in results["matrix"]
               if r["seed"] == 0 and r["model"] == "full")
    assert row["DF"] == round(metrics.fidelity, 3)
    assert row["DE"] == round(metrics.efficiency, 4)
    assert row["overhead_x"] == round(metrics.overhead, 3)


def test_workers_ship_replayable_serialized_logs():
    """A task ships each recording as a self-contained serializer JSON
    string, recorded as the matrix task records it."""
    case = generate_case(0)
    assert case.provenance()["bug_class"] == BUG_CLASSES[0]
    session = DebugSession(case, "full", seed=case.failing_seed)
    session.record()
    log = log_from_dict(json.loads(session.ship()))
    assert log.failure is not None
    assert log.schedule, "full-determinism log must carry the schedule"


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        run_matrix(range(1), models=("full", "quantum"))


def test_corpus_tables_render(smoke):
    results, __ = smoke
    cells, summary = corpus_tables(results)
    assert len(cells) == len(results["matrix"])
    assert "sweet_spot" in summary.columns
    assert sum(1 for r in summary if r["sweet_spot"]) == 1


def test_registry_experiment_returns_tables():
    cells, summary = run_corpus_experiment()
    assert len(summary) == len(MODEL_ORDER)
