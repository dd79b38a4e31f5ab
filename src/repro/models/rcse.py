"""Debug determinism (RCSE): precise on the control plane, relaxed off it."""

from __future__ import annotations

from repro.analysis.triggers import RaceTrigger
from repro.models.base import DeterminismModel, ModelConfig, register_model
from repro.record import SelectiveRecorder
from repro.record.log import RecordingLog
from repro.replay import SelectiveReplayer


def _recorder(config: ModelConfig) -> SelectiveRecorder:
    return SelectiveRecorder(
        control_plane=config.control_plane,
        triggers=[RaceTrigger()],
        dialdown_quiet_steps=config.dialdown_quiet_steps)


def _replayer(config: ModelConfig, log: RecordingLog) -> SelectiveReplayer:
    return SelectiveReplayer(
        base_inputs=config.inputs,
        net_drop_rate=config.net_drop_rate,
        target_failure=log.failure)


RCSE = register_model(DeterminismModel(
    name="rcse",
    display_order=40,
    description="record the control plane and trigger-dialed windows "
                "precisely, relax the data plane (debug determinism)",
    recorder_factory=_recorder,
    replayer_factory=_replayer,
    # The RCSE replayer re-simulates the data plane, so the workload's
    # re-suppliable inputs are part of its legitimate replay config.
    ships_base_inputs=True,
    # Debug determinism's observable contract is the failure (and the
    # control plane, enforced internally); recorded data-plane outputs
    # are advisory, so a divergence walk must not hold replay to them.
    replay_matches=("failure",),
))
