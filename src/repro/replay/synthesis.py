"""Execution synthesis (ESD-class): replay from a core dump alone.

Failure determinism records nothing in production; at debug time the
synthesizer searches the input/schedule space for *any* execution whose
failure signature matches the core dump.  Two properties of the paper are
reproduced faithfully:

* the synthesized execution can have a **different root cause** than the
  original (any execution with the same failure is accepted - the
  fidelity-1/n hazard of §2 and §4);
* the synthesized execution can be **shorter** than the original, which
  is how debugging efficiency can exceed 1 (§3.2): with ``minimize=True``
  the synthesizer keeps searching after the first hit for a
  cheaper-to-run execution reaching the same failure.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.record.log import RecordingLog
from repro.replay.base import Replayer, ReplayResult
from repro.replay.search import ExecutionSearch, InputSpace, SearchBudget
from repro.vm.failures import IOSpec
from repro.vm.machine import Machine
from repro.vm.program import Program


class ExecutionSynthesizer(Replayer):
    """Synthesizes a failure-matching execution from a core dump."""

    model = "failure"

    def __init__(self, input_space: InputSpace,
                 schedule_seeds: Iterable[int] = range(32),
                 budget: Optional[SearchBudget] = None,
                 net_drop_rate: float = 0.0,
                 switch_prob: float = 0.25,
                 minimize: bool = False,
                 minimize_extra_attempts: int = 50):
        self.input_space = input_space
        self.schedule_seeds = list(schedule_seeds)
        self.budget = budget or SearchBudget()
        self.net_drop_rate = net_drop_rate
        # The synthesizer's environment model need not match production:
        # its scheduler aggressiveness and network conditions are its own
        # guesses, which is precisely why the execution it finds can have
        # a different root cause than the original.
        self.switch_prob = switch_prob
        self.minimize = minimize
        self.minimize_extra_attempts = minimize_extra_attempts

    def replay(self, program: Program, log: RecordingLog,
               io_spec: Optional[IOSpec] = None) -> ReplayResult:
        if log.core_dump is None:
            return ReplayResult(model=self.model, trace=None, failure=None,
                                found=False,
                                metadata={"reason": "no core dump recorded"})
        target = log.core_dump.failure
        search = ExecutionSearch(
            program, self.input_space,
            schedule_seeds=self.schedule_seeds,
            io_spec=io_spec, net_drop_rate=self.net_drop_rate,
            switch_prob=self.switch_prob)

        def accept(machine: Machine) -> bool:
            return (machine.failure is not None
                    and target.same_failure(machine.failure))

        outcome = search.search(accept, budget=self.budget)
        if not (outcome.found and self.minimize):
            return self._result_from_outcome(self.model, outcome)
        # outcome.inference_cycles already excludes the accepted
        # execution (the caller's replay).
        best, attempts, inference_cycles = self._minimize(
            search, accept, outcome.machine, outcome.attempts,
            outcome.inference_cycles, outcome.refunded_cycles)
        return self._result_from_machine(
            self.model, best, attempts=attempts,
            inference_cycles=inference_cycles)

    def _minimize(self, search: ExecutionSearch, accept, best: Machine,
                  attempts: int, inference_cycles: int,
                  best_refund: int = 0):
        """Keep exploring for a shorter accepted execution.

        The extra candidates run trace-free (cycle counts and failure
        signatures are all the comparison needs); only a strictly cheaper
        winner is re-run once with full tracing at the end.  Every probe
        is charged to inference; the winner's materialization - the
        replay the caller keeps - is not.
        """
        extra = 0
        cheapest = best.meter.native_cycles
        winner: Optional[tuple] = None
        for inputs in self.input_space.candidates():
            for seed in self.schedule_seeds:
                if extra >= self.minimize_extra_attempts:
                    break
                machine = search.run_candidate(inputs, seed,
                                               trace_mode="counting")
                attempts += 1
                extra += 1
                inference_cycles += machine.meter.native_cycles
                if (accept(machine)
                        and machine.meter.native_cycles < cheapest):
                    cheapest = machine.meter.native_cycles
                    winner = ({k: list(v) for k, v in inputs.items()}, seed)
            if extra >= self.minimize_extra_attempts:
                break
        if winner is not None:
            # The originally accepted run is no longer the reported
            # replay - it was pure inference after all; re-charge the
            # refund the search gave it.
            inference_cycles += best_refund
            best = search.run_candidate(winner[0], winner[1])
            # The loop already charged the winner's probe run; refund it
            # now that this execution is the reported replay.
            inference_cycles -= best.meter.native_cycles
        return best, attempts, inference_cycles
