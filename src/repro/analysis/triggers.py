"""Dynamic triggers for combined code/data selection (§3.1.3).

A trigger is "a predicate on both code and data that is evaluated at
runtime in order to specify when to increase recording granularity".
Triggers plug into :class:`~repro.record.selective.SelectiveRecorder`:
when one fires, the recorder dials fidelity up from that point on.

* :class:`RaceTrigger` - the paper's flagship example: "data corruption
  failures in multi-threaded code are often the result of data races.
  Low-overhead data race detection could be used to dial up recording
  fidelity when a race is detected."
* :class:`InvariantTrigger` - data-based selection: fires when a
  monitored invariant is violated.
* :class:`PredicateTrigger` - arbitrary code/data predicates, e.g. "the
  request size exceeds a threshold" (§3.1.2's large-request example).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.invariants import InvariantMonitor, InvariantSet
from repro.analysis.races import HappensBeforeDetector
from repro.vm.machine import Machine
from repro.vm.trace import StepRecord


class RaceTrigger:
    """Fires when the happens-before detector exposes a new race."""

    def __init__(self):
        self.name = "race-detector"
        self.detector = HappensBeforeDetector()
        self.fired_at: Optional[int] = None

    def observe(self, machine: Machine, step: StepRecord) -> bool:
        new_races = self.detector.process(step)
        if new_races and self.fired_at is None:
            self.fired_at = step.index
        return bool(new_races)


class InvariantTrigger:
    """Fires when a write violates an inferred invariant."""

    def __init__(self, invariants: InvariantSet):
        self.name = "invariant-monitor"
        self.monitor = InvariantMonitor(invariants)
        self.fired_at: Optional[int] = None

    def observe(self, machine: Machine, step: StepRecord) -> bool:
        violated = self.monitor.observe(machine, step)
        if violated and self.fired_at is None:
            self.fired_at = step.index
        return bool(violated)


class PredicateTrigger:
    """Fires when a user predicate over (machine, step) holds."""

    def __init__(self, name: str,
                 predicate: Callable[[Machine, StepRecord], bool]):
        self.name = name
        self.predicate = predicate
        self.fired_at: Optional[int] = None

    def observe(self, machine: Machine, step: StepRecord) -> bool:
        fired = self.predicate(machine, step)
        if fired and self.fired_at is None:
            self.fired_at = step.index
        return fired
