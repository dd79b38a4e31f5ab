"""Full (perfect) determinism: record everything, replay exactly."""

from __future__ import annotations

from repro.models.base import DeterminismModel, ModelConfig, register_model
from repro.record import FullRecorder
from repro.record.log import RecordingLog
from repro.replay import DeterministicReplayer


def _recorder(config: ModelConfig) -> FullRecorder:
    return FullRecorder()


def _replayer(config: ModelConfig, log: RecordingLog) -> DeterministicReplayer:
    return DeterministicReplayer()


FULL = register_model(DeterminismModel(
    name="full",
    display_order=0,
    description="record the schedule, inputs, and syscalls; replay is "
                "byte-exact (the pre-relaxation baseline)",
    recorder_factory=_recorder,
    replayer_factory=_replayer,
))
