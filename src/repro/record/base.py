"""Recorder interface and the ``record_run`` entry point.

A recorder reads the production run step by step, as a machine
observer, and nothing reads the run's trace afterwards: ``record_run``
returns the log alone.  So the production machine runs in the
``counting`` trace mode, which keeps no step records, and the recorder
sees each step through the run loop's one scratch record.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.record.log import RecordingLog
from repro.vm.environment import Environment
from repro.vm.failures import IOSpec
from repro.vm.machine import Machine
from repro.vm.program import Program
from repro.vm.scheduler import RandomScheduler, Scheduler
from repro.vm.trace import StepRecord


class Recorder:
    """Base class for determinism-model recorders.

    Subclasses set :attr:`model` and implement :meth:`observe`; they charge
    every logged event into the machine's overhead meter via
    :meth:`charge` so recording overhead is measured, not asserted.
    """

    model: str = "abstract"

    def __init__(self):
        self.log = RecordingLog(model=self.model)
        self.machine: Optional[Machine] = None

    def attach(self, machine: Machine) -> None:
        """Subscribe to ``machine``'s step stream."""
        self.machine = machine
        machine.add_observer(self.observe)

    def observe(self, machine: Machine, step: StepRecord) -> None:
        """Handle one executed step (override).

        ``step`` is a scratch record, valid only during this call: the
        run loop reuses it for the next step.  Copy out what the log
        keeps (its fields, or the tuples and lists they hold); never
        keep the record itself.
        """
        raise NotImplementedError

    def charge(self, event_class: str, count: int = 1) -> None:
        """Charge recording cycles for ``count`` events of a class."""
        costs = self.machine.cost_model.recording
        per_event = getattr(costs, event_class)
        self.machine.meter.charge_recording(event_class, per_event, count)

    def finalize(self, machine: Machine) -> RecordingLog:
        """Seal the log with run metadata after the machine stops."""
        self.log.failure = machine.failure
        self.log.native_cycles = machine.meter.native_cycles
        self.log.recording_cycles = machine.meter.recording_cycles
        self.log.total_steps = machine.steps
        self.log.recorded_events = dict(machine.meter.recorded_events)
        return self.log


def record_run(program: Program,
               recorder: Recorder,
               inputs: Optional[Dict[str, List[Any]]] = None,
               seed: int = 0,
               scheduler: Optional[Scheduler] = None,
               io_spec: Optional[IOSpec] = None,
               net_drop_rate: float = 0.0) -> RecordingLog:
    """Execute one production run under ``recorder`` and return its log.

    This is the 'in production' half of a replay-debugging system: the
    program runs under a seeded preemptive scheduler (real, uncontrolled
    non-determinism from the guest's point of view) while the recorder
    logs whatever its determinism model pays for.  The recorder is the
    run's only reader, so the machine keeps no trace (``counting``).
    """
    env = Environment(inputs=inputs, seed=seed, net_drop_rate=net_drop_rate)
    scheduler = scheduler or RandomScheduler(seed=seed)
    machine = Machine(program, env=env, scheduler=scheduler,
                      io_spec=io_spec, trace_mode="counting")
    recorder.attach(machine)
    try:
        machine.run()
        log = recorder.finalize(machine)
    finally:
        # The machine's observer list holds the recorder: detaching
        # breaks the cycle, so the machine and its trace are freed as
        # soon as the caller drops them.
        recorder.machine = None
    # Self-describing run identity: a shipped log must be attributable
    # (and replayable) without out-of-band context, so the seed, the
    # scheduler's identity, and the program identifier ride along.
    log.metadata.setdefault("seed", seed)
    log.metadata.setdefault("program_entry", program.entry)
    log.metadata.setdefault("scheduler", {
        "class": type(scheduler).__name__,
        "seed": getattr(scheduler, "seed", seed),
        "switch_prob": getattr(scheduler, "switch_prob", None),
    })
    return log
