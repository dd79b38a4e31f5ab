"""Figure 2: the Hypertable issue-63 case study.

Reproduces the paper's §4 measurement: recording overhead and debugging
fidelity of three determinism models on the data-loss bug.

* **value determinism** - records every message payload (~3.5x) and
  replays the exact execution: DF = 1.
* **RCSE (control-plane selection)** - records per-node processing order
  plus control-channel data (slightly above 1x); the failure and the
  root cause live in the control plane, so DF = 1.
* **failure determinism** - records nothing (1.0x); synthesis finds *an*
  execution with the same failure, but the failure has three reachable
  root causes (race, slave crash, client OOM), so DF = 1/3.

The control-plane channel set is derived by data-rate classification
over a training run, not hard-coded - the §3.1.1 pipeline end to end.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.planes import classify_rates
from repro.distsim.record import (FailureDistRecorder, RcseDistRecorder,
                                  ValueDistRecorder)
from repro.distsim.replay import replay_forced_order, synthesize_failure
from repro.distsim.sim import FaultPlan
from repro.hypertable.diagnosis import ALL_KNOWN_CAUSES, HyperDiagnoser
from repro.hypertable.scenario import (build_scenario, find_failing_seed,
                                       hyperlite_spec)
from repro.metrics import evaluate_replay
from repro.util.tables import Table

# Data-rate threshold (payload words per message) separating control
# channels from data channels; swept by the planes ablation bench.
RATE_THRESHOLD = 15.0

# The synthesizer's search space: scheduler seeds x injected faults.
SYNTHESIS_SEEDS = range(12)
SYNTHESIS_FAULT_PLANS = (
    FaultPlan(crashes={"rs2": 80.0}),
    FaultPlan(memory_limits={"dumper": 300}),
    FaultPlan(),
)


def classify_control_channels(seed: int):
    """§3.1.1 pipeline: profile a training run, classify channels."""
    trace = build_scenario(seed, FaultPlan.none()).run()
    return classify_rates(trace.channel_rates(), RATE_THRESHOLD)


def run_fig2(seed: Optional[int] = None) -> Table:
    """Reproduce Figure 2; returns one row per determinism model."""
    if seed is None:
        seed = find_failing_seed()
        if seed is None:
            raise RuntimeError("no failing seed for the issue-63 workload")

    classification = classify_control_channels(seed + 1000)
    recorders = {
        "value": ValueDistRecorder,
        "rcse": lambda: RcseDistRecorder(classification.control),
        "failure": FailureDistRecorder,
    }
    diagnoser = HyperDiagnoser()
    n_causes = len(ALL_KNOWN_CAUSES)

    table = Table(["model", "overhead_x", "DF", "DE", "DU",
                   "failure_reproduced", "replay_cause"],
                  title="Fig.2 - Hypertable issue 63: overhead vs fidelity")

    for model, make_recorder in recorders.items():
        sim = build_scenario(seed, FaultPlan.none())
        recorder = make_recorder()
        recorder.attach(sim)
        trace = sim.run()
        trace.failure = hyperlite_spec(trace)
        log = recorder.finalize(trace)
        original_cause = diagnoser.diagnose(trace, trace.failure)

        if model == "failure":
            replay = synthesize_failure(build_scenario, log, hyperlite_spec,
                                        SYNTHESIS_SEEDS,
                                        SYNTHESIS_FAULT_PLANS)
        else:
            # Value and RCSE logs both pin the dispatch order; they
            # differ only in the payloads checked against the replay.
            replay = replay_forced_order(build_scenario, log,
                                         hyperlite_spec)

        metrics = evaluate_replay(
            model=model,
            overhead=log.overhead_factor,
            original_failure=trace.failure,
            original_cause=original_cause,
            original_cycles=trace.native_cost,
            replay=replay,
            n_causes=n_causes,
            diagnoser=diagnoser)
        table.add_row(
            model=model,
            overhead_x=round(metrics.overhead, 3),
            DF=round(metrics.fidelity, 3),
            DE=round(metrics.efficiency, 4),
            DU=round(metrics.utility, 4),
            failure_reproduced=metrics.failure_reproduced,
            replay_cause=str(metrics.replay_cause or "-"))
    return table
