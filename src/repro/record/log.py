"""The recording log: what survives the production run.

A single :class:`RecordingLog` type serves every determinism model; each
recorder fills only the fields its model pays for and leaves the rest
empty.  Replayers must not touch fields their model did not record -
that would be cheating the relaxation the model claims to make.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.vm.failures import CoreDump, FailureReport


@dataclass
class RecordingLog:
    """Events captured during one recorded production run."""

    model: str
    # -- full-determinism fields ------------------------------------------
    schedule: List[int] = field(default_factory=list)
    inputs: Dict[str, List[Any]] = field(default_factory=dict)
    syscalls: List[Tuple[int, str, Any]] = field(default_factory=list)
    # -- value-determinism fields -----------------------------------------
    thread_reads: Dict[int, List[Any]] = field(default_factory=dict)
    thread_inputs: Dict[int, List[Tuple[str, Any]]] = field(
        default_factory=dict)
    thread_syscalls: Dict[int, List[Tuple[str, Any]]] = field(
        default_factory=dict)
    thread_spawns: Dict[int, List[Tuple[str, int]]] = field(
        default_factory=dict)
    # -- output-determinism fields ----------------------------------------
    outputs: Dict[str, List[Any]] = field(default_factory=dict)
    thread_paths: Dict[int, List[bool]] = field(default_factory=dict)
    sync_order: List[Tuple[int, str, Any]] = field(default_factory=list)
    # -- failure-determinism fields ---------------------------------------
    core_dump: Optional[CoreDump] = None
    # -- RCSE fields --------------------------------------------------------
    # Ordered tids of recorded (control-plane or dialed-up) steps, plus
    # the step sites, so replay can enforce their relative order.
    selective_order: List[Tuple[int, str]] = field(default_factory=list)
    selective_inputs: Dict[str, List[Any]] = field(default_factory=dict)
    selective_syscalls: List[Tuple[int, str, Any]] = field(
        default_factory=list)
    dialup_windows: List[Tuple[int, int]] = field(default_factory=list)
    control_plane: Tuple[str, ...] = ()
    # -- run metadata --------------------------------------------------------
    failure: Optional[FailureReport] = None
    native_cycles: int = 0
    recording_cycles: int = 0
    total_steps: int = 0
    recorded_events: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def overhead_factor(self) -> float:
        """Recording overhead (x): recorded run time over native time."""
        if self.native_cycles == 0:
            return 1.0
        return (self.native_cycles + self.recording_cycles) / self.native_cycles

    def summary(self) -> str:
        """One-line human-readable description (used by examples)."""
        events = ", ".join(f"{k}={v}" for k, v in
                           sorted(self.recorded_events.items()))
        return (f"[{self.model}] overhead={self.overhead_factor:.2f}x "
                f"steps={self.total_steps} events({events or 'none'})")
