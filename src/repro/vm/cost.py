"""Simulated cycle-cost model.

The paper compares determinism models by *recording overhead* - the slowdown
a recorder imposes on the production run.  MiniVM measures execution in
simulated cycles: every instruction has a base cost, and each recorder adds
per-event costs for the events it logs.  The overhead factor is then

    (native cycles + recording cycles) / native cycles

which reproduces the paper's x-axis without depending on host timing.

The default per-event costs are loosely calibrated to published numbers:
value-determinism recorders (iDNA-class) pay on every shared read and
write; full recorders pay per scheduling decision and input; output
recorders pay only on outputs; selective recorders pay only inside the
recorded region.  What matters for the reproduction is the *relative*
ordering these costs induce, which is robust to the exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

# Base instruction costs in simulated cycles.  Anything not listed costs 1.
DEFAULT_INSTRUCTION_COSTS: Dict[str, int] = {
    "mul": 3,
    "div": 3,
    "mod": 3,
    "load": 2,
    "store": 2,
    "aload": 2,
    "astore": 2,
    "alen": 1,
    "lock": 6,
    "unlock": 4,
    "spawn": 40,
    "join": 6,
    "input": 12,
    "output": 12,
    "syscall": 20,
    "call": 4,
    "ret": 2,
}


@dataclass(frozen=True)
class RecordingCosts:
    """Per-event cycle costs a recorder pays when it logs that event.

    ``schedule`` is paid per context switch (not per step): recorders log
    the schedule as (tid, run-length) pairs.  ``memory_value`` is paid per
    shared read or write whose *value* is logged - the expensive habit of
    value-deterministic recorders.  ``branch`` is paid per recorded branch
    outcome (path recording, one bit each, hence cheap).
    """

    schedule: int = 24
    input: int = 30
    output: int = 30
    syscall: int = 30
    memory_value: int = 10
    branch: int = 1
    sync: int = 8
    checkpoint: int = 400


class CostModel:
    """Computes base execution cost and accumulates recording cost."""

    def __init__(self,
                 instruction_costs: Dict[str, int] | None = None,
                 recording: RecordingCosts | None = None):
        self.instruction_costs = dict(DEFAULT_INSTRUCTION_COSTS)
        if instruction_costs:
            self.instruction_costs.update(instruction_costs)
        self.recording = recording or RecordingCosts()

    def instruction_cost(self, op: str) -> int:
        """Base cycles for one instruction."""
        return self.instruction_costs.get(op, 1)


@dataclass
class OverheadMeter:
    """Accumulates native and recording cycles for one run."""

    native_cycles: int = 0
    recording_cycles: int = 0
    recorded_events: Dict[str, int] = field(default_factory=dict)

    def charge_native(self, cycles: int) -> None:
        self.native_cycles += cycles

    def clone(self) -> "OverheadMeter":
        """A copy for machine snapshot/fork."""
        return OverheadMeter(self.native_cycles, self.recording_cycles,
                             dict(self.recorded_events))

    def charge_recording(self, event_class: str, cycles: int,
                         count: int = 1) -> None:
        self.recording_cycles += cycles * count
        self.recorded_events[event_class] = (
            self.recorded_events.get(event_class, 0) + count)

    @property
    def total_cycles(self) -> int:
        return self.native_cycles + self.recording_cycles

    @property
    def overhead_factor(self) -> float:
        """The paper's 'runtime overhead (x)': recorded time / native time."""
        if self.native_cycles == 0:
            return 1.0
        return self.total_cycles / self.native_cycles
