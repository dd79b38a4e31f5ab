"""The determinism-model registry and the DebugSession pipeline.

Covers the model-plane API contract: the registry is the only way
models are constructed (the string-keyed harness factories are shims
over it), logs are self-describing enough for a receiver that never saw
the recorder, every registered model's log survives the JSON hop with
every recorded field intact, and ``replay_log`` dispatches to the right
replayer class from the log alone.
"""

import dataclasses
import json

import pytest

from repro.apps import racy_counter
from repro.apps.base import find_failing_seed
from repro.corpus.generator import generate_case
from repro.errors import ReproError, UnknownModelError
from repro.harness.experiments import MODEL_ORDER, evaluate_app_model
from repro.models import (DebugSession, DeterminismModel, ModelConfig,
                          get_model, model_order, register_model,
                          registered_models, replay_log, resolve_case,
                          unregister_model)
from repro.record import (FailureRecorder, FullRecorder, OutputRecorder,
                          SelectiveRecorder, ValueRecorder, log_from_dict,
                          log_to_dict)
from repro.replay import (DeterministicReplayer, ExecutionSynthesizer,
                          OdrReplayer, OutputOnlyReplayer,
                          SelectiveReplayer, ValueReplayer)

EXPECTED_RECORDERS = {
    "full": FullRecorder,
    "value": ValueRecorder,
    "output": OutputRecorder,
    "output-only": OutputRecorder,
    "failure": FailureRecorder,
    "rcse": SelectiveRecorder,
}

EXPECTED_REPLAYERS = {
    "full": DeterministicReplayer,
    "value": ValueReplayer,
    "output": OdrReplayer,
    "output-only": OutputOnlyReplayer,
    "failure": ExecutionSynthesizer,
    "rcse": SelectiveReplayer,
}


@pytest.fixture(scope="module")
def case():
    return racy_counter.make_case()


@pytest.fixture(scope="module")
def seed(case):
    return find_failing_seed(case)


# -- the registry -------------------------------------------------------------


def test_core_registry_is_the_relaxation_chronology():
    assert model_order() == ("full", "value", "output", "failure", "rcse")
    assert MODEL_ORDER == model_order()
    orders = [m.display_order for m in registered_models()]
    assert orders == sorted(orders), "listing follows display order"


def test_non_core_variants_register_but_stay_out_of_sweeps():
    assert get_model("output-only").core is False
    assert "output-only" in model_order(core_only=False)
    assert "output-only" not in model_order()


def test_unknown_model_rejected_with_known_names():
    with pytest.raises(UnknownModelError) as excinfo:
        get_model("quantum")
    assert "quantum" in str(excinfo.value)
    assert "full" in str(excinfo.value), "error names the registry"
    # The historical contract: unknown model names are ValueErrors too.
    assert isinstance(excinfo.value, ValueError)


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register_model(dataclasses.replace(get_model("full")))


def test_registering_a_model_is_one_call_and_zero_harness_edits(case, seed):
    """A sixth model: register it, and every generic path just works."""
    toy = DeterminismModel(
        name="toy-full",
        display_order=5,
        description="a re-badged full recorder, registered by a test",
        recorder_factory=lambda config: _toy_recorder(),
        replayer_factory=lambda config, log: DeterministicReplayer(),
        core=False)
    register_model(toy)
    try:
        assert get_model("toy-full") is toy
        assert "toy-full" in model_order(core_only=False)
        session = DebugSession(case, "toy-full", seed=seed)
        log = session.record()
        assert log.model == "toy-full"
        session.ship()
        result = session.replay()   # registry dispatch on the new name
        assert result.reproduced_failure(log.failure)
    finally:
        unregister_model("toy-full")
    with pytest.raises(UnknownModelError):
        get_model("toy-full")


def _toy_recorder():
    recorder = FullRecorder()
    recorder.model = "toy-full"
    recorder.log.model = "toy-full"
    return recorder


# -- registry factories -------------------------------------------------------


@pytest.mark.parametrize("model", MODEL_ORDER)
def test_registry_constructs_the_expected_types(case, seed, model):
    """get_model(...) factories build each model's recorder/replayer."""
    config = ModelConfig.from_case(case)
    recorder = get_model(model).make_recorder(config)
    assert type(recorder) is EXPECTED_RECORDERS[model]
    log = _record(case, model, seed)
    replayer = get_model(model).make_replayer(config, log)
    assert type(replayer) is EXPECTED_REPLAYERS[model]


# -- self-describing logs + round trip over every model -----------------------


def _record(case, model, seed):
    session = DebugSession(case, model, seed=seed)
    return session.record()


@pytest.mark.parametrize("model", MODEL_ORDER)
def test_roundtrip_preserves_every_recorded_field(case, seed, model):
    """log_from_dict(log_to_dict(x)) is x, for all five models' logs."""
    log = _record(case, model, seed)
    restored = log_from_dict(json.loads(json.dumps(log_to_dict(log))))
    # Structural identity: re-encoding the restored log reproduces the
    # original encoding field for field (covers every RecordingLog field).
    assert log_to_dict(restored) == log_to_dict(log)
    # And the in-memory shapes survive - tuples stay tuples, int keys
    # stay ints - for the fields this model actually recorded.
    for field in dataclasses.fields(log):
        restored_value = getattr(restored, field.name)
        original_value = getattr(log, field.name)
        if field.name in ("core_dump", "failure"):
            assert (restored_value is None) == (original_value is None)
            continue
        assert restored_value == original_value, field.name
    assert restored.metadata["determinism_model"] == model


@pytest.mark.parametrize("model", MODEL_ORDER)
def test_replay_log_dispatches_to_the_models_replayer(case, seed, model):
    log = _record(case, model, seed)
    shipped = log_from_dict(json.loads(json.dumps(log_to_dict(log))))
    replayer = get_model(shipped.model).make_replayer(
        ModelConfig.from_shipped(shipped, case=case), shipped)
    assert type(replayer) is EXPECTED_REPLAYERS[model]


def test_replay_log_reproduces_from_log_alone(case, seed):
    """Dispatch + config come from the shipped bytes, not the caller."""
    log = _record(case, "full", seed)
    shipped = log_from_dict(json.loads(json.dumps(log_to_dict(log))))
    result = replay_log(case.program, shipped, case=case)
    assert result.reproduced_failure(log.failure)


def test_logs_are_attributable_without_out_of_band_context(case, seed):
    log = _record(case, "rcse", seed)
    meta = log.metadata
    assert meta["determinism_model"] == "rcse"
    assert meta["seed"] == seed
    assert meta["scheduler"]["class"] == "RandomScheduler"
    assert meta["scheduler"]["seed"] == seed
    assert meta["scheduler"]["switch_prob"] == case.switch_prob
    assert meta["case"] == {"kind": "app", "name": "racy_counter"}
    assert meta["replay_config"]["net_drop_rate"] == case.net_drop_rate


# -- the session pipeline -----------------------------------------------------


def test_session_receive_resolves_case_from_the_log():
    """The remote-worker hop: replay + score with only the payload."""
    recording_side = DebugSession(generate_case(0), "full")
    recording_side.seed = recording_side.case.failing_seed
    recording_side.record()
    payload = recording_side.ship()

    workstation = DebugSession.receive(payload)
    assert workstation.case.name == recording_side.case.name
    assert workstation.model.name == "full"
    result = workstation.replay()
    assert result.reproduced_failure(workstation.log.failure)
    metrics = workstation.score(
        original_cause=workstation.case.known_cause,
        cause_count_attempts=60)
    assert metrics.fidelity == 1.0


def test_session_matches_evaluate_app_model(case, seed):
    """The facade computes exactly what the one-shot helper computes."""
    session = DebugSession(case, "full", seed=seed)
    session.record()
    session.ship()
    via_session = session.score()
    via_helper = evaluate_app_model(case, "full", seed=seed)
    assert via_session.fidelity == via_helper.fidelity
    assert via_session.efficiency == via_helper.efficiency
    assert via_session.overhead == via_helper.overhead
    assert via_session.failure_reproduced == via_helper.failure_reproduced


def test_non_failing_recording_raises_typed_error(case):
    """A clean run under the recorder is a typed, catchable failure.

    ``RecordingFailedError`` stays a ``RuntimeError`` for callers of the
    historical ``evaluate_app_model`` contract and a ``ReproError`` for
    the CLI's one catch-all.
    """
    from repro.errors import RecordingFailedError
    ok_seed = next(s for s in range(200) if case.run(s).failure is None)
    session = DebugSession(case, "full", seed=ok_seed)
    with pytest.raises(RecordingFailedError) as excinfo:
        session.record()
    assert isinstance(excinfo.value, RuntimeError)
    assert isinstance(excinfo.value, ReproError)
    assert str(ok_seed) in str(excinfo.value)


def test_session_refuses_out_of_order_use(case):
    session = DebugSession(case, "full")
    with pytest.raises(ReproError):
        session.ship()
    with pytest.raises(ReproError):
        session.replay()


def test_receive_without_case_reference_requires_explicit_case(case, seed):
    log = _record(case, "full", seed)
    log.metadata.pop("case")
    # Editing a sealed log invalidates its stamp; this test is about
    # case resolution, so ship it unattested (old-log behaviour).
    log.metadata.pop("attestation", None)
    payload = json.dumps(log_to_dict(log))
    with pytest.raises(ReproError):
        DebugSession.receive(payload)
    session = DebugSession.receive(payload, case=case)
    assert session.replay().reproduced_failure(log.failure)


def test_config_overrides_are_validated(case):
    with pytest.raises(TypeError):
        DebugSession(case, "failure", synthesis_atempts=5)  # typo'd knob
    session = DebugSession(case, "failure", synthesis_attempts=5)
    assert session.config.synthesis_attempts == 5


@pytest.mark.parametrize("model", MODEL_ORDER)
def test_only_input_resupplying_models_ship_base_inputs(case, seed, model):
    """A record-nothing model must not smuggle the production inputs
    into its shipped artifact's config block - only models whose
    replayer legitimately re-supplies the workload (rcse) ship them.
    """
    log = _record(case, model, seed)
    shipped_config = log.metadata["replay_config"]
    if get_model(model).ships_base_inputs:
        assert shipped_config["inputs"] == case.inputs
    else:
        assert "inputs" not in shipped_config


def test_resolve_case_string_forms():
    assert resolve_case("corpus:3").corpus_seed == 3
    assert resolve_case("app:adder").name == "adder"
    assert resolve_case("adder").name == "adder"
    with pytest.raises(ReproError):
        resolve_case("app:nope")
    with pytest.raises(ReproError):
        resolve_case("corpus:not-a-seed")
    with pytest.raises(ReproError):
        resolve_case({"kind": "custom", "name": "mystery"})
    # Malformed references (a shipped payload's ``metadata.case`` reaches
    # resolve_case unchecked) fail typed, and a seed is never truncated.
    for malformed in ([1], 5, None,
                      {"kind": "app", "name": ["adder"]},
                      {"kind": "corpus"},
                      {"kind": "corpus", "seed": 1.7},
                      {"kind": "corpus", "seed": True}):
        with pytest.raises(ReproError):
            resolve_case(malformed)
