"""Replay engines for DistSim recordings.

``replay_forced_order`` rebuilds the scenario and dispatches messages in
the recorded order (value and RCSE replay - they differ only in how
much of the log exists for verification).  ``synthesize_failure``
implements ESD-style inference: search seeds x fault plans for any
execution with a matching failure signature.

A scenario is reconstructed by a *builder* callable
``(seed, FaultPlan) -> Simulator`` with all nodes and workload installed,
plus a *spec* callable ``DistTrace -> Optional[FailureReport]`` evaluated
after the run - the distributed analogue of MiniVM's ``IOSpec``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Optional, Tuple

from repro.distsim.record import DistRecordingLog
from repro.distsim.sim import FaultPlan, OrderController, Simulator, _Event
from repro.distsim.trace import DistTrace
from repro.replay.base import ReplayResult
from repro.vm.failures import FailureReport

ScenarioBuilder = Callable[[int, FaultPlan], Simulator]
DistSpec = Callable[[DistTrace], Optional[FailureReport]]

# The seed a forced-order replay rebuilds the scenario with.
REPLAY_SEED = 777
# Runs the failure synthesizer tries before giving up.
MAX_SYNTHESIS_ATTEMPTS = 200


class _ForcedOrder(OrderController):
    """Dispatches message events in a recorded token order.

    Timers and crashes keep natural time order relative to candidate
    messages.  When the next recorded token has no matching pending
    message the controller first lets non-message events fire (they may
    generate it); if none remain the token is skipped and counted as a
    divergence, so replay always terminates.
    """

    def __init__(self, tokens: List[Tuple[str, str, str]]):
        self.tokens = list(tokens)
        self.index = 0
        self.divergences = 0

    def pop_next(self, sim: Simulator,
                 heap: List[_Event]) -> Optional[_Event]:
        while True:
            if not heap:
                return None
            # Crashes are fault-plan driven and keep natural time order;
            # messages and timers are both schedule-ordered by tokens.
            unordered = [e for e in heap if e.kind == "crash"]
            earliest_crash = min(unordered) if unordered else None
            if self.index >= len(self.tokens):
                return self._take(heap, min(heap))
            token = self.tokens[self.index]
            match = self._find_match(heap, token)
            if match is not None:
                if (earliest_crash is not None
                        and earliest_crash.time < match.time):
                    return self._take(heap, earliest_crash)
                self.index += 1
                return self._take(heap, match)
            if earliest_crash is not None:
                return self._take(heap, earliest_crash)
            # The token's event does not exist in this replay (the run
            # diverged, e.g. a node took a different path): skip it.
            self.divergences += 1
            self.index += 1

    @staticmethod
    def _event_token(event: _Event):
        if event.kind == "message":
            message = event.payload
            return (message.dst, message.channel, message.src,
                    message.src_seq)
        if event.kind == "timer":
            timer = event.payload
            return (timer.node, f"timer:{timer.name}", timer.node,
                    timer.src_seq)
        return None

    @classmethod
    def _find_match(cls, heap: List[_Event], token) -> Optional[_Event]:
        candidates = [e for e in heap if cls._event_token(e) == token]
        return min(candidates) if candidates else None

    @staticmethod
    def _take(heap: List[_Event], event: _Event) -> _Event:
        heap.remove(event)
        heapq.heapify(heap)
        return event


def replay_forced_order(builder: ScenarioBuilder,
                        log: DistRecordingLog,
                        spec: DistSpec) -> ReplayResult:
    """Re-run the scenario with the recorded dispatch order enforced.

    Used for value and RCSE logs - each provides order tokens.
    Recorded payloads (value) or control payloads (RCSE) are checked
    against the replayed run; mismatches count as divergences rather than
    aborting, since relaxed replay is best-effort by design.
    """
    sim = builder(REPLAY_SEED, FaultPlan.none())
    controller = _ForcedOrder(log.order_tokens)
    sim.order_controller = controller
    trace = sim.run()
    trace.failure = spec(trace)
    divergences = controller.divergences + _verify_payloads(log, trace)
    return ReplayResult(
        model=log.model,
        trace=trace,
        failure=trace.failure,
        replay_cycles=trace.native_cost,
        divergences=divergences,
    )


def _verify_payloads(log: DistRecordingLog, trace: DistTrace) -> int:
    """Count recorded payloads the replayed run did not reproduce."""
    mismatches = 0
    if log.payloads:
        replayed = [d.payload for d in trace.deliveries
                    if not d.dropped and not d.is_timer]
        for recorded, actual in zip(log.payloads, replayed):
            if recorded != actual:
                mismatches += 1
        mismatches += abs(len(log.payloads) - len(replayed))
    if log.control_payloads:
        control = {c for c in log.control_channels}
        replayed_control = [
            (d.order_token, d.payload) for d in trace.deliveries
            if not d.dropped and d.channel in control]
        recorded_control = list(log.control_payloads)
        for recorded, actual in zip(recorded_control, replayed_control):
            if recorded != actual:
                mismatches += 1
    return mismatches


def synthesize_failure(builder: ScenarioBuilder,
                       log: DistRecordingLog,
                       spec: DistSpec,
                       seeds: Iterable[int],
                       fault_plans: Iterable[FaultPlan]) -> ReplayResult:
    """ESD-style inference: find *any* run with the recorded failure.

    The search space includes injected fault plans: a slave crash or a
    client memory limit can produce the same observable failure as the
    race, which is precisely how failure determinism ends up replaying a
    different root cause (DF = 1/n).
    """
    target = log.failure
    if target is None:
        return ReplayResult(model="failure", trace=None, failure=None,
                            found=False,
                            metadata={"reason": "no failure recorded"})
    attempts = 0
    inference_cost = 0
    for plan in fault_plans:
        for seed in seeds:
            if attempts >= MAX_SYNTHESIS_ATTEMPTS:
                return ReplayResult(model="failure", trace=None,
                                    failure=None, attempts=attempts,
                                    inference_cycles=inference_cost,
                                    found=False)
            sim = builder(seed, plan)
            trace = sim.run()
            trace.failure = spec(trace)
            attempts += 1
            inference_cost += trace.native_cost
            if trace.failure is not None and target.same_failure(
                    trace.failure):
                return ReplayResult(
                    model="failure", trace=trace, failure=trace.failure,
                    replay_cycles=trace.native_cost,
                    inference_cycles=inference_cost - trace.native_cost,
                    attempts=attempts, found=True,
                    metadata={"fault_plan": plan.describe(),
                              "seed": seed})
    return ReplayResult(model="failure", trace=None, failure=None,
                        attempts=attempts, inference_cycles=inference_cost,
                        found=False)

