"""Replay engines, one per determinism model.

Each replayer consumes a :class:`~repro.record.log.RecordingLog` produced
by the matching recorder and reconstructs an execution, possibly via
inference (search or symbolic execution) for the events the model did not
record.  The cost of that inference is metered in simulated cycles and
feeds the paper's *debugging efficiency* metric.

=====================  ======================================  ============
Model                  Replayer                                Inference
=====================  ======================================  ============
perfect                :class:`DeterministicReplayer`          none
value (iDNA)           :class:`ValueReplayer`                  none
output (ODR, full)     :class:`OdrReplayer`                    race values
output (ODR, minimal)  :class:`OutputOnlyReplayer`             inputs+sched
failure (ESD)          :class:`ExecutionSynthesizer`           everything
debug (RCSE)           :class:`SelectiveReplayer`              data plane
=====================  ======================================  ============
"""

from repro.replay.base import ReplayResult, Replayer, TidMapper
from repro.replay.deterministic import DeterministicReplayer
from repro.replay.value_replay import ValueReplayer
from repro.replay.search import ExecutionSearch, InputSpace, SearchBudget
from repro.replay.output_replay import OutputOnlyReplayer, OdrReplayer
from repro.replay.synthesis import ExecutionSynthesizer
from repro.replay.selective_replay import SelectiveReplayer
from repro.replay.solver import Constraint, ConstraintSystem, SymVar
from repro.replay.symbolic import SymbolicExecutor, PathResult
from repro.replay.diff import (
    DiffStatus, DivergencePoint, DivergenceReport, FieldDiff,
    diff_log_replay, diff_logs, quarantine_bucket,
)

__all__ = [
    "ReplayResult", "Replayer", "TidMapper",
    "DiffStatus", "DivergencePoint", "DivergenceReport", "FieldDiff",
    "diff_logs", "diff_log_replay", "quarantine_bucket",
    "DeterministicReplayer", "ValueReplayer",
    "ExecutionSearch", "InputSpace", "SearchBudget",
    "OutputOnlyReplayer", "OdrReplayer",
    "ExecutionSynthesizer", "SelectiveReplayer",
    "Constraint", "ConstraintSystem", "SymVar",
    "SymbolicExecutor", "PathResult",
]
