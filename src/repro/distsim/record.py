"""Event-level recorders for DistSim: the value, failure and RCSE models.

Cost accounting mirrors the MiniVM recorders: each logged artefact
charges cycles against the run's native handler cost, and the overhead
factor is the paper's x-axis.  The costs are calibrated so that
recording *every payload* on a row-sized data plane costs ~3.5x (the
paper's value-determinism measurement on Hypertable) while recording
only order tokens and control-channel payloads stays near 1.1x (RCSE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.distsim.sim import Simulator
from repro.distsim.trace import DeliveryRecord, DistTrace
from repro.vm.failures import FailureReport


# Per-artefact recording costs (cost units, cf. handler costs).
ORDER_TOKEN_COST = 1      # one schedule/order entry, payload-free
PAYLOAD_BASE_COST = 6     # fixed cost of logging one payload
PAYLOAD_UNIT_COST = 3     # per payload word


@dataclass
class DistRecordingLog:
    """What survives a recorded distributed production run."""

    model: str
    # Dispatch order of processed messages, payload-free.
    order_tokens: List[Tuple[str, str, str]] = field(default_factory=list)
    # Payloads aligned with order_tokens (value model only).
    payloads: List[Any] = field(default_factory=list)
    # (token, payload) for control-plane messages (RCSE).
    control_payloads: List[Tuple[Tuple[str, str, str], Any]] = field(
        default_factory=list)
    outputs: Dict[str, List[Any]] = field(default_factory=dict)
    control_channels: Tuple[str, ...] = ()
    failure: Optional[FailureReport] = None
    native_cost: int = 0
    recording_cost: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def overhead_factor(self) -> float:
        if self.native_cost == 0:
            return 1.0
        return (self.native_cost + self.recording_cost) / self.native_cost

    def summary(self) -> str:
        events = ", ".join(f"{k}={v}"
                           for k, v in sorted(self.event_counts.items()))
        return (f"[{self.model}] overhead={self.overhead_factor:.2f}x "
                f"events({events or 'none'})")


class DistRecorder:
    """Base class: subscribes to a simulator's delivery stream."""

    model = "abstract"

    def __init__(self):
        self.log = DistRecordingLog(model=self.model)

    def attach(self, sim: Simulator) -> None:
        sim.add_observer(self.observe)

    def observe(self, sim: Simulator, record: DeliveryRecord) -> None:
        raise NotImplementedError

    def charge(self, event_class: str, cost: int) -> None:
        self.log.recording_cost += cost
        self.log.event_counts[event_class] = (
            self.log.event_counts.get(event_class, 0) + 1)

    def finalize(self, trace: DistTrace) -> DistRecordingLog:
        self.log.failure = trace.failure
        self.log.native_cost = trace.native_cost
        self.log.outputs = {k: list(v) for k, v in trace.outputs.items()}
        return self.log


class ValueDistRecorder(DistRecorder):
    """Value determinism: every message payload each node observed.

    Order tokens are also kept (per-node logs imply per-node order); the
    dominating cost is payload logging on the data plane - the 3.5x of
    the paper's Figure 2.  Timer dispatches contribute order tokens (a
    node's schedule interleaves timers with message handlers) but no
    payload - timer state is node-local and deterministic.
    """

    model = "value"

    def observe(self, sim: Simulator, record: DeliveryRecord) -> None:
        self.log.order_tokens.append(record.order_token)
        self.charge("order", ORDER_TOKEN_COST)
        if not record.is_timer:
            self.log.payloads.append(record.payload)
            self.charge("payload", PAYLOAD_BASE_COST
                        + PAYLOAD_UNIT_COST * record.units)


class FailureDistRecorder(DistRecorder):
    """Failure determinism: record nothing; the bug report is the log."""

    model = "failure"

    def observe(self, sim: Simulator, record: DeliveryRecord) -> None:
        return


class RcseDistRecorder(DistRecorder):
    """RCSE: per-node processing order + control-plane channel data.

    This is exactly the paper's §4 configuration - "recording just the
    data on control-plane channels and the thread schedule": order tokens
    (payload-free) pin each node's processing interleaving; payloads are
    kept only for the low-rate control channels.
    """

    model = "rcse"

    def __init__(self, control_channels):
        super().__init__()
        self.control_channels = frozenset(control_channels)
        self.log.control_channels = tuple(sorted(self.control_channels))

    def observe(self, sim: Simulator, record: DeliveryRecord) -> None:
        self.log.order_tokens.append(record.order_token)
        self.charge("order", ORDER_TOKEN_COST)
        if (not record.is_timer
                and record.channel in self.control_channels):
            self.log.control_payloads.append(
                (record.order_token, record.payload))
            self.charge("control_payload", PAYLOAD_BASE_COST
                        + PAYLOAD_UNIT_COST * record.units)
