"""Value determinism (iDNA-class): record every value a thread reads."""

from __future__ import annotations

from repro.models.base import DeterminismModel, ModelConfig, register_model
from repro.record import ValueRecorder
from repro.record.log import RecordingLog
from repro.replay import ValueReplayer


def _recorder(config: ModelConfig) -> ValueRecorder:
    return ValueRecorder()


def _replayer(config: ModelConfig, log: RecordingLog) -> ValueReplayer:
    return ValueReplayer()


VALUE = register_model(DeterminismModel(
    name="value",
    display_order=10,
    description="record per-thread read values, inputs, and syscall "
                "results; replay feeds them back (iDNA)",
    recorder_factory=_recorder,
    replayer_factory=_replayer,
))
