"""Experiment harness: figure shapes (the paper's qualitative claims)."""

import pytest

from repro.harness import (EXPERIMENTS, run_experiment, run_fig2,
                           run_sec2_adder, run_sec32_efficiency)
from repro.harness.experiments import evaluate_app_model
from repro.apps import ALL_APPS


def test_registry_contents():
    assert set(EXPERIMENTS) == {"fig1", "fig2", "sec2_adder",
                                "sec2_msgserver", "sec32_efficiency",
                                "corpus"}
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_cause_count_cache_keyed_by_program_identity():
    """Two cases sharing a name must not poison each other's ``n``.

    Generated corpus cases freely reuse names across seeds, so a
    name-keyed cache would leak the first evaluated case's cause count
    into every namesake.  A case not resolved from a reference is keyed
    by the case object itself (not by its program, which a knob variant
    shares; see ``tests/test_cause_count.py``).
    """
    from dataclasses import replace

    from repro.models.session import (_CAUSE_COUNTS_BY_CASE,
                                      count_root_causes)
    from repro.apps.base import find_failing_seed

    racy = replace(ALL_APPS["racy_counter"](), name="twin")
    dead = replace(ALL_APPS["deadlock"](), name="twin")
    racy_failure = racy.run(find_failing_seed(racy)).failure
    dead_failure = dead.run(find_failing_seed(dead)).failure

    n_racy = count_root_causes(racy, racy_failure, max_attempts=6)
    n_dead = count_root_causes(dead, dead_failure, max_attempts=6)
    assert n_racy >= 1 and n_dead >= 1
    # Both cases hold their own cache entries despite the shared name.
    assert racy in _CAUSE_COUNTS_BY_CASE
    assert dead in _CAUSE_COUNTS_BY_CASE
    assert (_CAUSE_COUNTS_BY_CASE[racy].keys()
            != _CAUSE_COUNTS_BY_CASE[dead].keys())
    # And the cached values are actually reused per case.
    assert count_root_causes(racy, racy_failure, max_attempts=6) == n_racy
    assert count_root_causes(dead, dead_failure, max_attempts=6) == n_dead


@pytest.fixture(scope="module")
def fig2_table():
    return run_fig2()


def test_fig2_value_determinism(fig2_table):
    row = fig2_table.lookup(model="value")
    assert row["overhead_x"] > 2.5, "value det must be expensive (~3.5x)"
    assert row["DF"] == 1.0
    assert row["failure_reproduced"]
    assert "migration-race" in row["replay_cause"]


def test_fig2_rcse_escapes_the_curve(fig2_table):
    value = fig2_table.lookup(model="value")
    rcse = fig2_table.lookup(model="rcse")
    failure = fig2_table.lookup(model="failure")
    # RCSE: near-failure-determinism overhead, full fidelity.
    assert rcse["overhead_x"] < value["overhead_x"] / 2
    assert rcse["overhead_x"] < 1.8
    assert rcse["DF"] == 1.0
    assert rcse["overhead_x"] > failure["overhead_x"]


def test_fig2_failure_determinism_one_third(fig2_table):
    row = fig2_table.lookup(model="failure")
    assert row["overhead_x"] == 1.0, "failure det records nothing"
    assert row["DF"] == pytest.approx(1 / 3, abs=0.01)
    assert row["failure_reproduced"]
    assert "migration-race" not in row["replay_cause"]


def test_sec2_adder_output_determinism_misses_failure():
    table = run_sec2_adder()
    assert table.lookup(quantity="DF")["value"] == "0.000"
    assert table.lookup(
        quantity="replay reproduced failure")["value"] == "False"
    # The search found some inputs with output 5, just not (2, 2).
    replayed = table.lookup(quantity="replayed inputs")["value"]
    assert replayed not in ("None", "[2, 2]")


def test_sec32_synthesis_de_exceeds_one():
    table = run_sec32_efficiency()
    first_hit = table.lookup(strategy="first-hit")
    assert first_hit["DE"] > 1.0, \
        "synthesis of a shorter execution must beat DE=1"
    assert first_hit["synthesized_len"] > 0


@pytest.mark.parametrize("model", ["full", "value", "failure", "rcse"])
def test_models_reproduce_racy_counter(model):
    case = ALL_APPS["racy_counter"]()
    metrics = evaluate_app_model(case, model)
    assert metrics.failure_reproduced
    assert metrics.fidelity == 1.0


def test_full_recording_costs_more_than_failure():
    case = ALL_APPS["racy_counter"]()
    full = evaluate_app_model(case, "full")
    failure = evaluate_app_model(case, "failure")
    assert full.overhead > failure.overhead
    assert failure.overhead == 1.0
