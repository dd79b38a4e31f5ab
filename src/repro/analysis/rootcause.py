"""The paper's root-cause model, diagnosis, and enumeration.

§3 defines a failure as an I/O-spec violation and the root cause as the
negation of the predicate a fix would enforce.  Operationally a debugger
cannot know the fix, so this module provides what the paper's evaluation
methodology used instead:

* a **diagnosis engine** that maps an (execution trace, failure) pair to
  a :class:`RootCause` - rule-based over failure kinds, with a lockset
  race analysis for concurrency attribution, plus the failure-specific
  rules each application supplies (the equivalent of the manual
  analysis in the paper's §4 case study);
* **root-cause enumeration**: searching executions that exhibit the same
  failure and collecting the distinct causes they diagnose - the ``n``
  in the paper's debugging-fidelity metric DF = 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.replay.search import ExecutionSearch, SearchBudget
from repro.vm.failures import FailureKind, FailureReport
from repro.vm.machine import Machine
from repro.vm.trace import Trace

from repro.analysis.races import cached_lockset_races


@dataclass(frozen=True)
class RootCause:
    """A defect identity: deviation kind plus the code/resource site."""

    kind: str
    site: str
    description: str = ""

    def same_cause(self, other: Optional["RootCause"]) -> bool:
        """Cause equality ignores the free-form description."""
        return (other is not None and self.kind == other.kind
                and self.site == other.site)

    def __str__(self) -> str:
        return f"{self.kind} @ {self.site}"


# Application-provided diagnosis rules (a case's ``diagnoser_rules``),
# keyed by failure location (spec clause name or failing site).  Each
# rule sees (trace, failure) and may return a cause or decline with
# None.  During enumeration the trace is sparse (events mode):
# ``trace.steps`` holds only the steps with shared reads/writes, sync
# or I/O, in execution order, and the queries that need every step
# raise SparseTraceError (see repro.vm.trace).  A rule must read only
# those steps and the run-level observables.
SpecDiagnoser = Callable[[Trace, FailureReport], Optional[RootCause]]


class Diagnoser:
    """Rule pipeline mapping (trace, failure) to a root cause."""

    def __init__(self,
                 extra_rules: Optional[Dict[str, SpecDiagnoser]] = None):
        self.extra_rules = dict(extra_rules or {})

    def diagnose(self, trace: Optional[Trace],
                 failure: Optional[FailureReport]) -> Optional[RootCause]:
        if failure is None:
            return None
        rule = self.extra_rules.get(failure.location)
        if rule is not None and trace is not None:
            cause = rule(trace, failure)
            if cause is not None:
                return cause
        return self._generic(trace, failure)

    def _generic(self, trace: Optional[Trace],
                 failure: FailureReport) -> RootCause:
        if failure.kind == FailureKind.OUT_OF_BOUNDS:
            return RootCause("missing-bounds-check", failure.location,
                             failure.detail)
        if failure.kind == FailureKind.DIV_BY_ZERO:
            return RootCause("missing-zero-check", failure.location,
                             failure.detail)
        if failure.kind == FailureKind.DEADLOCK:
            return RootCause("lock-cycle", failure.location, failure.detail)
        if trace is not None:
            race_cause = self._race_attribution(trace)
            if race_cause is not None:
                return race_cause
        return RootCause("logic-error", failure.location, failure.detail)

    @staticmethod
    def _race_attribution(trace: Trace) -> Optional[RootCause]:
        """Attribute a failure to an unsynchronized shared location.

        Uses lockset analysis (schedule-insensitive) so that replays with
        different interleavings still converge on the same cause identity.
        The per-trace result is memoized: enumeration diagnoses each
        accepted machine twice (dedupe key + final cause set), and only
        the first diagnosis scans the trace.
        """
        races = cached_lockset_races(trace)
        if not races:
            return None
        # Deterministic choice: the lexicographically first racy location.
        race = min(races, key=lambda r: str(r.location))
        return RootCause("data-race", f"{race.location}",
                         str(race))


def enumerate_root_causes(search: ExecutionSearch,
                          failure: FailureReport,
                          diagnoser: Optional[Diagnoser] = None,
                          budget: Optional[SearchBudget] = None
                          ) -> Set[RootCause]:
    """Find every root cause reachable for a given failure signature.

    This implements the paper's empirical method for determining ``n``
    (the number of possible root causes of a failure): explore the
    execution space, keep runs exhibiting the same failure, and diagnose
    each one.  Exhaustiveness is bounded by the search budget, exactly as
    the paper notes ("potentially including false positives" / requiring
    manual confirmation).

    The dedupe key *is* the diagnosis, so the search runs candidates in
    the sparse ``events`` trace mode - each keeps only its steps with
    shared-memory, sync or I/O effects, which is all the lockset race
    analysis and the app rules read - and diagnoses each accepted one as
    it ran.  It still prunes via checkpoint prefix sharing, and the
    budget's cycle ceiling is enforced inside each candidate run rather
    than between runs.
    """
    diagnoser = diagnoser or Diagnoser()
    budget = budget or SearchBudget(max_attempts=400)

    def accept(machine: Machine) -> bool:
        return (machine.failure is not None
                and failure.same_failure(machine.failure))

    outcome = search.search(
        accept, budget=budget,
        dedupe_key=lambda m: _cause_key(diagnoser, m))
    causes: Set[RootCause] = set()
    for machine in outcome.all_accepted:
        cause = diagnoser.diagnose(machine.trace, machine.failure)
        if cause is not None:
            causes.add(cause)
    return causes


def _cause_key(diagnoser: Diagnoser, machine: Machine):
    cause = diagnoser.diagnose(machine.trace, machine.failure)
    return (cause.kind, cause.site) if cause else None
