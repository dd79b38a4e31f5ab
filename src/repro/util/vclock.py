"""Vector clocks for happens-before reasoning.

Used by the race detector (:mod:`repro.analysis.races`) to order events of a
multithreaded MiniVM execution, and by the distributed simulator to order
node-local events.  Clocks are immutable mappings from a process/thread id
to a logical timestamp; missing entries are implicitly zero.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Mapping


class VectorClock:
    """An immutable vector clock over hashable process identifiers.

    The partial order is the usual one: ``a <= b`` iff every component of
    ``a`` is <= the matching component of ``b``.  Two clocks are concurrent
    when neither dominates the other - the condition under which two memory
    accesses race.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: Mapping[Hashable, int] | None = None):
        entries = {pid: t for pid, t in (clock or {}).items() if t != 0}
        self._clock: Dict[Hashable, int] = entries

    def get(self, pid: Hashable) -> int:
        """Return the component for ``pid`` (zero when absent)."""
        return self._clock.get(pid, 0)

    def tick(self, pid: Hashable) -> "VectorClock":
        """Return a new clock with ``pid``'s component incremented."""
        bumped = dict(self._clock)
        bumped[pid] = bumped.get(pid, 0) + 1
        return VectorClock(bumped)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Return the component-wise maximum of the two clocks."""
        merged = dict(self._clock)
        for pid, t in other._clock.items():
            if t > merged.get(pid, 0):
                merged[pid] = t
        return VectorClock(merged)

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True iff neither clock happens-before the other."""
        return not self <= other and not other <= self

    def __le__(self, other: "VectorClock") -> bool:
        return all(t <= other.get(pid) for pid, t in self._clock.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._clock == other._clock

    def __hash__(self) -> int:
        return hash(frozenset(self._clock.items()))

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._clock)

    def items(self):
        """Iterate over ``(pid, timestamp)`` pairs with non-zero timestamps."""
        return self._clock.items()

    def __repr__(self) -> str:
        inner = ", ".join(f"{pid}:{t}" for pid, t in sorted(
            self._clock.items(), key=lambda kv: str(kv[0])))
        return f"VC({{{inner}}})"
