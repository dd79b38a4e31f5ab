"""Common shape of a corpus application."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.analysis.rootcause import RootCause, SpecDiagnoser
from repro.replay.search import InputSpace
from repro.vm.failures import IOSpec
from repro.vm.machine import Machine, run_program
from repro.vm.program import Program
from repro.vm.scheduler import RandomScheduler


@dataclass(eq=False)
class AppCase:
    """Everything the harness needs to study one buggy application.

    Compared and hashed by identity (``eq=False``): the cause-count
    cache keys a case that was not resolved from a reference by the
    case object itself.
    """

    name: str
    program: Program
    inputs: Dict[str, List[Any]]
    io_spec: IOSpec
    # Candidate inputs inference engines may explore (what a debugging
    # engineer legitimately knows about the input format).
    input_space: InputSpace
    # Ground-truth control-plane functions (what a perfect classifier
    # would produce; the planes module should approximate this).
    control_plane: Set[str] = field(default_factory=set)
    net_drop_rate: float = 0.0
    switch_prob: float = 0.25
    # App-specific diagnosis rules, keyed by failure location.
    diagnoser_rules: Dict[str, SpecDiagnoser] = field(default_factory=dict)
    # The root cause the app's known defect corresponds to (documentation
    # + test oracle; diagnosis must *derive* it from traces).
    known_cause: Optional[RootCause] = None
    description: str = ""

    def production_scheduler(self, seed: int) -> RandomScheduler:
        """The scheduler of a production run - recorders must use the
        same one so the recorded run *is* the run being studied."""
        return RandomScheduler(seed=seed, switch_prob=self.switch_prob)

    def run(self, seed: int, max_steps: int = 500_000,
            trace_mode: str = "full") -> Machine:
        """One production run under a seeded preemptive scheduler."""
        return run_program(
            self.program,
            inputs={k: list(v) for k, v in self.inputs.items()},
            seed=seed,
            scheduler=self.production_scheduler(seed),
            io_spec=self.io_spec,
            net_drop_rate=self.net_drop_rate,
            max_steps=max_steps,
            trace_mode=trace_mode,
        )

    def run_digest(self, seed: int) -> str:
        """SHA-256 fingerprint of one production run's full behaviour.

        The corpus generator pins each generated case's failing run with
        this digest; determinism tests compare it across regenerations.
        """
        return self.run(seed).trace.fingerprint()


def find_failing_seed(case: AppCase, seeds=range(200),
                      accept: Optional[Callable[[Machine], bool]] = None
                      ) -> Optional[int]:
    """First scheduler seed whose production run fails (optionally
    matching ``accept``).

    Without ``accept`` only the failure is read, so the runs keep no
    trace (``counting`` mode); ``accept`` gets a full trace.
    """
    trace_mode = "counting" if accept is None else "full"
    for seed in seeds:
        machine = case.run(seed, trace_mode=trace_mode)
        if machine.failure is None:
            continue
        if accept is None or accept(machine):
            return seed
    return None
