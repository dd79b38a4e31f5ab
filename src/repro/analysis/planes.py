"""Control-plane / data-plane classification by data rate.

Code-based selection (§3.1.1) needs to know which code is control plane.
Following Altekar & Stoica's observation (cited as [3] in the paper) that
control-plane code "executes less frequently and operates at substantially
lower data rates than data-plane code", the classifier profiles training
runs and deems the functions that move the least data control-plane.

The same rate-threshold classifier is reused at message-channel
granularity by the distributed simulator (HyperLite's `meta` vs `data`
channels), which mirrors how [3] classifies network channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.vm.trace import StepRecord, Trace


def data_units(value) -> int:
    """Approximate payload size in machine words."""
    if isinstance(value, str):
        return max(1, (len(value) + 7) // 8)
    if isinstance(value, (list, tuple)):
        return sum(data_units(v) for v in value)
    return 1


@dataclass
class FunctionProfile:
    """Per-function traffic counters accumulated over training runs."""

    memory_units: int = 0
    io_units: int = 0

    @property
    def data_volume(self) -> int:
        """Total data words moved (volume = rate x time, the statistic
        that actually separates control from data plane: compute-heavy
        data-plane code can have a *low* per-instruction rate)."""
        return self.memory_units + self.io_units


@dataclass
class PlaneClassification:
    """The outcome: which functions/channels are control vs data plane."""

    control: Set[str] = field(default_factory=set)
    data: Set[str] = field(default_factory=set)
    rates: Dict[str, float] = field(default_factory=dict)
    threshold: float = 0.0

    def is_control(self, name: str) -> bool:
        return name in self.control

    def describe(self) -> List[str]:
        lines = []
        for name in sorted(self.rates, key=self.rates.get):
            plane = "control" if name in self.control else "data"
            lines.append(f"{name}: rate={self.rates[name]:.3f} -> {plane}")
        return lines


class PlaneProfiler:
    """Accumulates per-function data volumes from executions."""

    def __init__(self):
        self.profiles: Dict[str, FunctionProfile] = {}

    def observe(self, machine, step: StepRecord) -> None:
        self.observe_step(step)

    def observe_step(self, step: StepRecord) -> None:
        profile = self.profiles.setdefault(step.function, FunctionProfile())
        profile.memory_units += sum(
            data_units(v) for __, v in step.reads)
        profile.memory_units += sum(
            data_units(v) for __, v in step.writes)
        if step.io is not None:
            kind, __, payload = step.io
            if kind == "syscall":
                args, result = payload
                profile.io_units += data_units(args) + data_units(result)
            else:
                profile.io_units += data_units(payload)

    def observe_trace(self, trace: Trace) -> None:
        for step in trace.steps:
            self.observe_step(step)

    def volumes(self) -> Dict[str, float]:
        return {name: float(profile.data_volume)
                for name, profile in self.profiles.items()}


def classify_rates(rates: Dict[str, float],
                   threshold: float) -> PlaneClassification:
    """Split names into control (rate <= threshold) and data planes."""
    result = PlaneClassification(rates=dict(rates), threshold=threshold)
    for name, rate in rates.items():
        if rate <= threshold:
            result.control.add(name)
        else:
            result.data.add(name)
    return result


def classify_planes(traces: Iterable[Trace]) -> PlaneClassification:
    """Profile traces and classify functions into planes.

    The statistic is each function's data volume (total data words
    across the training runs), split at the widest gap in its sorted
    values - the natural bimodal split [3] observes between control-
    and data-plane code.
    """
    profiler = PlaneProfiler()
    for trace in traces:
        profiler.observe_trace(trace)
    scores = profiler.volumes()
    return classify_rates(scores, _auto_threshold(list(scores.values())))


def _auto_threshold(rates: List[float]) -> float:
    """Pick the threshold at the largest gap in the sorted rates."""
    distinct = sorted(set(rates))
    if len(distinct) < 2:
        return distinct[0] if distinct else 0.0
    best_gap = 0.0
    best_cut = distinct[0]
    for lower, upper in zip(distinct, distinct[1:]):
        gap = upper - lower
        if gap > best_gap:
            best_gap = gap
            best_cut = lower
    return best_cut
