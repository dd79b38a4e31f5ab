"""DistSim: a deterministic discrete-event distributed-system simulator.

The substrate for the paper's §4 case study.  Nodes exchange messages on
named channels over a lossy, jittery network; all non-determinism
(delivery latency, drops, node-local randomness, fault-injection timing)
is derived from a single seed, so an execution is a pure function of
``(topology, workload, seed, fault plan)``.

Message channels carry data-rate accounting so the control/data-plane
classifier (:func:`repro.analysis.planes.classify_rates`) works at
channel granularity - precisely how the control-plane-selection study
the paper builds on classifies datacenter traffic.

Event-level recorders and replayers for the three determinism models
the Figure 2 case study compares live in :mod:`repro.distsim.record`
and :mod:`repro.distsim.replay`: value and RCSE logs replay in their
recorded dispatch order (:func:`replay_forced_order`), and failure
determinism synthesizes a run (:func:`synthesize_failure`).
:mod:`repro.harness.fig2` calls them directly; the VM determinism
models of :mod:`repro.models` have no distributed hooks.
"""

from repro.distsim.sim import Simulator, SimConfig, FaultPlan
from repro.distsim.node import Node
from repro.distsim.trace import DistTrace, DeliveryRecord
from repro.distsim.record import (DistRecorder, ValueDistRecorder,
                                  FailureDistRecorder, RcseDistRecorder)
from repro.distsim.replay import replay_forced_order, synthesize_failure

__all__ = [
    "Simulator", "SimConfig", "FaultPlan", "Node",
    "DistTrace", "DeliveryRecord",
    "DistRecorder", "ValueDistRecorder", "FailureDistRecorder",
    "RcseDistRecorder",
    "replay_forced_order", "synthesize_failure",
]
