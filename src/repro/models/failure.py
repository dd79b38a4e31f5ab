"""Failure determinism (ESD-class): record nothing, synthesize the rest."""

from __future__ import annotations

from repro.models.base import DeterminismModel, ModelConfig, register_model
from repro.record import FailureRecorder
from repro.record.log import RecordingLog
from repro.replay import ExecutionSynthesizer
from repro.replay.search import SearchBudget


def _recorder(config: ModelConfig) -> FailureRecorder:
    return FailureRecorder()


def _replayer(config: ModelConfig,
              log: RecordingLog) -> ExecutionSynthesizer:
    return ExecutionSynthesizer(
        config.input_space,
        schedule_seeds=range(config.schedule_seeds),
        net_drop_rate=config.synthesis_drop_rate,
        switch_prob=config.synthesis_switch_prob,
        budget=SearchBudget(max_attempts=config.synthesis_attempts),
        minimize=config.synthesis_minimize,
        minimize_extra_attempts=config.minimize_extra_attempts)


FAILURE = register_model(DeterminismModel(
    name="failure",
    display_order=30,
    description="record nothing but the core dump; synthesize any "
                "execution reaching the same failure (ESD)",
    recorder_factory=_recorder,
    replayer_factory=_replayer,
))
