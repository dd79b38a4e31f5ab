"""Program analyses powering root-cause-driven selectivity.

* :mod:`repro.analysis.races` - happens-before (vector clock) and lockset
  data-race detection, offline on traces or online as an observer.
* :mod:`repro.analysis.invariants` - Daikon-style dynamic invariant
  inference and runtime monitors (data-based selection, §3.1.2).
* :mod:`repro.analysis.planes` - control/data-plane classification by
  data rate (code-based selection, §3.1.1, after Altekar & Stoica [3]).
* :mod:`repro.analysis.rootcause` - the paper's root-cause model: a
  diagnosis engine mapping (trace, failure) to a root cause, and
  enumeration of all root causes reachable for a failure.
* :mod:`repro.analysis.triggers` - dynamic triggers for combined
  code/data selection (§3.1.3).
"""

from repro.analysis.races import (RaceReport, HappensBeforeDetector,
                                  LocksetDetector, find_races)
from repro.analysis.invariants import (InvariantInferencer, InvariantSet,
                                       RangeInvariant, ConstInvariant)
from repro.analysis.planes import (PlaneClassification, PlaneProfiler,
                                   classify_planes)
from repro.analysis.rootcause import (RootCause, Diagnoser,
                                      enumerate_root_causes)
from repro.analysis.triggers import (RaceTrigger, InvariantTrigger,
                                     PredicateTrigger)

__all__ = [
    "RaceReport", "HappensBeforeDetector", "LocksetDetector", "find_races",
    "InvariantInferencer", "InvariantSet", "RangeInvariant", "ConstInvariant",
    "PlaneClassification", "PlaneProfiler", "classify_planes",
    "RootCause", "Diagnoser", "enumerate_root_causes",
    "RaceTrigger", "InvariantTrigger", "PredicateTrigger",
]
