"""Distributed execution traces and cost accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.planes import data_units
from repro.vm.failures import FailureReport


@dataclass
class DeliveryRecord:
    """One message processed by a node."""

    seq: int                 # global dispatch order
    time: float              # simulated delivery time
    src: str
    dst: str
    channel: str
    payload: Any
    units: int               # payload size in words
    dropped: bool = False
    src_seq: int = 0         # sender-side per-(src, channel) sequence

    @property
    def order_token(self) -> Tuple[str, str, str, int]:
        """Schedule identity used by order-forcing replay: who processed
        which message (identified by sender + per-sender sequence number,
        payload-free - the analogue of a connection offset)."""
        return (self.dst, self.channel, self.src, self.src_seq)

    @property
    def is_timer(self) -> bool:
        """True for node-local timer dispatches (channel ``timer:<name>``).

        Timer dispatches participate in the recorded per-node processing
        order - a node's schedule interleaves its timers with its message
        handlers - but carry no recordable payload."""
        return self.channel.startswith("timer:")


@dataclass
class CrashRecord:
    seq: int
    time: float
    node: str


@dataclass
class DistTrace:
    """Everything observable about one simulated distributed execution."""

    deliveries: List[DeliveryRecord] = field(default_factory=list)
    crashes: List[CrashRecord] = field(default_factory=list)
    outputs: Dict[str, List[Any]] = field(default_factory=dict)
    failure: Optional[FailureReport] = None
    native_cost: int = 0
    end_time: float = 0.0
    # Free-form application annotations (e.g. "commit applied by
    # non-owner"), written by nodes; diagnosis reads these.
    annotations: List[Tuple[str, Dict[str, Any]]] = field(
        default_factory=list)

    def channel_rates(self) -> Dict[str, float]:
        """Payload words per delivery, per message channel."""
        counts: Dict[str, int] = {}
        units: Dict[str, int] = {}
        for record in self.deliveries:
            if record.is_timer:
                continue
            counts[record.channel] = counts.get(record.channel, 0) + 1
            units[record.channel] = (
                units.get(record.channel, 0) + record.units)
        return {channel: units[channel] / counts[channel]
                for channel in counts}

    def annotate(self, tag: str, **details: Any) -> None:
        self.annotations.append((tag, details))

    def annotations_tagged(self, tag: str) -> List[Dict[str, Any]]:
        return [details for t, details in self.annotations if t == tag]


def payload_units(payload: Any) -> int:
    """Size of a message payload in words (shared with the profiler)."""
    if isinstance(payload, dict):
        return sum(data_units(k) + payload_units(v)
                   for k, v in payload.items())
    return data_units(payload)
