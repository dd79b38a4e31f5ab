"""Failure model: what it means for a guest execution to fail.

The paper defines a failure as a violation of an I/O specification, where
"output includes all observable behavior".  MiniVM failures therefore come
in two families:

* **hard failures** detected during execution - assertion violations,
  explicit ``fail`` instructions, memory errors, division by zero,
  deadlock;
* **specification violations** detected after execution by evaluating an
  :class:`IOSpec` against the environment's recorded outputs (this is how
  "program printed 5 for 2+2" and "dump returned fewer rows than loaded"
  become failures).

A :class:`FailureReport` captures the externally observable failure
signature - the information a bug report or core dump would contain.  Two
reports are *the same failure* when their signatures match; this is the
equality that debugging-fidelity measurement uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import SpecError


class FailureKind(enum.Enum):
    """The externally observable class of a failure."""

    ASSERTION = "assertion"
    EXPLICIT = "explicit-fail"
    OUT_OF_BOUNDS = "out-of-bounds"
    DIV_BY_ZERO = "div-by-zero"
    DEADLOCK = "deadlock"
    SPEC_VIOLATION = "spec-violation"


@dataclass(frozen=True)
class FailureReport:
    """The observable signature of one failure.

    ``location`` is ``function@pc`` for hard failures and the spec clause
    name for specification violations.  ``detail`` carries free-form
    context (assertion message, offending index) and participates in the
    signature, mirroring how a crash report's message is part of what the
    developer sees.
    """

    kind: FailureKind
    location: str
    detail: str = ""
    tid: Optional[int] = None
    step_index: Optional[int] = None

    def signature(self) -> tuple:
        """The (kind, location, detail) triple that identifies the failure."""
        return (self.kind, self.location, self.detail)

    def same_failure(self, other: Optional["FailureReport"]) -> bool:
        """True when ``other`` shows the same observable failure."""
        return other is not None and self.signature() == other.signature()

    def __str__(self) -> str:
        return f"{self.kind.value} at {self.location}: {self.detail}"


@dataclass
class SpecClause:
    """One named predicate over an execution's outputs and inputs."""

    name: str
    predicate: Callable[[Dict[str, List[int]], Dict[str, List[int]]], bool]
    description: str = ""


class IOSpec:
    """An I/O specification: a conjunction of named I/O predicates.

    Each clause sees ``(outputs, inputs)`` - the per-channel output values
    an :class:`~repro.vm.environment.Environment` accumulated and the
    inputs the run consumed (a specification relates outputs *to* inputs,
    e.g. "the printed value equals the sum of the inputs").  The first
    violated clause produces a :class:`FailureReport` of kind
    ``SPEC_VIOLATION`` whose location is the clause name - so the same
    wrong behaviour yields the same failure signature on every run, as
    the paper's failure-equivalence requires.
    """

    def __init__(self):
        self.clauses: List[SpecClause] = []

    def require(self, name: str,
                predicate: Callable[[Dict[str, List[int]],
                                     Dict[str, List[int]]], bool],
                description: str = "") -> "IOSpec":
        """Add a clause; returns self for chaining."""
        self.clauses.append(SpecClause(name, predicate, description))
        return self

    def check(self, outputs: Dict[str, List[int]],
              inputs: Optional[Dict[str, List[int]]] = None
              ) -> Optional[FailureReport]:
        """Return a failure report for the first violated clause, if any."""
        inputs = inputs or {}
        for clause in self.clauses:
            try:
                ok = clause.predicate(outputs, inputs)
            except Exception as exc:  # predicate bug is a host error
                raise SpecError(
                    f"spec clause {clause.name!r} raised {exc!r}") from exc
            if not ok:
                return FailureReport(
                    kind=FailureKind.SPEC_VIOLATION,
                    location=clause.name,
                    detail=clause.description or "output violates spec",
                )
        return None


@dataclass
class CoreDump:
    """What a failure-deterministic system records: the failure itself.

    ESD-style replay starts from exactly this - the failure signature plus
    a snapshot of final shared state - and must *infer* an execution; no
    events from the original run are available.
    """

    failure: FailureReport
    final_memory: Dict[str, object] = field(default_factory=dict)
    outputs: Dict[str, List[int]] = field(default_factory=dict)
