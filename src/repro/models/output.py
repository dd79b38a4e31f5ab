"""Output determinism (ODR-class), both recording schemes.

Two registered models share this module:

* ``output`` (core) - the practical scheme: inputs + per-thread branch
  paths + synchronization order recorded, race outcomes inferred.
* ``output-only`` (non-core variant) - §2's minimal scheme: outputs
  alone recorded, everything else inferred.  The §2-a adder parable runs
  this variant; registering it here is also the living example that a
  model variant is one registration call, not a harness edit.
"""

from __future__ import annotations

from repro.models.base import DeterminismModel, ModelConfig, register_model
from repro.record import OutputMode, OutputRecorder
from repro.record.log import RecordingLog
from repro.replay import OdrReplayer, OutputOnlyReplayer
from repro.replay.search import SearchBudget


def _recorder(config: ModelConfig) -> OutputRecorder:
    return OutputRecorder(OutputMode.IO_PATH_SCHED)


def _replayer(config: ModelConfig, log: RecordingLog) -> OdrReplayer:
    return OdrReplayer(inner_seeds=range(config.schedule_seeds))


OUTPUT = register_model(DeterminismModel(
    name="output",
    display_order=20,
    description="record inputs, branch paths, and sync order; infer the "
                "racing interleavings until outputs match (ODR)",
    recorder_factory=_recorder,
    replayer_factory=_replayer,
))


def _output_only_recorder(config: ModelConfig) -> OutputRecorder:
    recorder = OutputRecorder(OutputMode.OUTPUT_ONLY)
    # The recorder class serves both schemes; the log must name the
    # variant so `replay_log` dispatches to the output-only replayer.
    recorder.model = OUTPUT_ONLY.name
    recorder.log.model = OUTPUT_ONLY.name
    return recorder


def _output_only_replayer(config: ModelConfig,
                          log: RecordingLog) -> OutputOnlyReplayer:
    return OutputOnlyReplayer(
        config.input_space,
        budget=SearchBudget(max_attempts=config.search_attempts))


OUTPUT_ONLY = register_model(DeterminismModel(
    name="output-only",
    display_order=25,
    description="record outputs alone; infer inputs and schedule from "
                "scratch (the §2 over-relaxation parable)",
    recorder_factory=_output_only_recorder,
    replayer_factory=_output_only_replayer,
    core=False,
))
