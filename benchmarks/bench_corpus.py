"""Full corpus-matrix sweep: the 20-seed acceptance run, behind ``perf``.

The counterpart of ``python -m repro corpus run --seeds 20 --jobs 4``:
the tier-1 suite keeps only the 6-seed smoke
(``tests/test_corpus_matrix.py``); the full sweep and its determinism
acceptance live here, with the model-registry dispatch cost floor.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_corpus.py
"""

import copy
import time

import pytest

from repro.analysis.triggers import RaceTrigger
from repro.corpus import BUG_CLASSES, run_matrix
from repro.corpus.generator import generate_case
from repro.harness.experiments import MODEL_ORDER
from repro.models import (DebugSession, ModelConfig, get_model,
                          model_order)
from repro.record import (FailureRecorder, FullRecorder, OutputMode,
                          OutputRecorder, SelectiveRecorder, ValueRecorder)
from repro.replay import (DeterministicReplayer, ExecutionSynthesizer,
                          OdrReplayer, SelectiveReplayer, ValueReplayer)
from repro.replay.search import SearchBudget

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


def _dispatch_direct(config, log):
    """Baseline: the five (recorder, replayer) pairs from concrete classes.

    Mirrors the pre-registry string-keyed factories, inlined.
    """
    return (
        (FullRecorder(), DeterministicReplayer()),
        (ValueRecorder(), ValueReplayer()),
        (OutputRecorder(OutputMode.IO_PATH_SCHED),
         OdrReplayer(inner_seeds=range(48))),
        (FailureRecorder(),
         ExecutionSynthesizer(config.input_space,
                              schedule_seeds=range(48),
                              net_drop_rate=config.net_drop_rate,
                              budget=SearchBudget(max_attempts=600))),
        (SelectiveRecorder(control_plane=config.control_plane,
                           triggers=[RaceTrigger()],
                           dialdown_quiet_steps=400),
         SelectiveReplayer(base_inputs=config.inputs,
                           net_drop_rate=config.net_drop_rate,
                           target_failure=log.failure)),
    )


def _dispatch_registry(config, log):
    """The same five pairs, constructed through the model registry."""
    return tuple(
        (get_model(name).make_recorder(config),
         get_model(name).make_replayer(config, log))
        for name in model_order())


DISPATCH_ROUNDS = 300


def bench_model_dispatch(repeats: int):
    """Best constructions/sec per variant, after a warmup.

    One "construction" is all five core models' recorder+replayer pairs
    for one cell; a timed repeat makes ``DISPATCH_ROUNDS`` of them.
    """
    case = generate_case(0)
    config = ModelConfig.from_case(case)
    log = DebugSession(case, "failure", seed=case.failing_seed).record()
    rates = {}
    for variant, build in (("direct_classes", _dispatch_direct),
                           ("registry", _dispatch_registry)):
        build(config, log)  # warmup (first-touch imports)
        best = float("inf")
        for __ in range(repeats):
            start = time.perf_counter()
            for __r in range(DISPATCH_ROUNDS):
                build(config, log)
            best = min(best, time.perf_counter() - start)
        rates[variant] = DISPATCH_ROUNDS / best
    return rates


def test_registry_dispatch_adds_no_measurable_cell_overhead():
    """The matrix throughput floor survives registry-based dispatch.

    A matrix cell runs in the ~10ms regime (~100 cells/sec floor); one
    cell's worth of model construction through the registry must stay
    microscopic next to that - we require at least 2,000 five-model
    constructions/sec (< 0.5ms per cell, i.e. under ~5% of a cell even
    on a badly loaded machine; in practice it is tens of microseconds).
    """
    rates = bench_model_dispatch(repeats=2)
    assert rates["registry"] >= 2_000, rates
    # And the registry hop itself stays within the same order of
    # magnitude as constructing the concrete classes directly.
    assert rates["registry"] >= rates["direct_classes"] / 10, rates
