"""Integer interval arithmetic.

The symbolic executor (:mod:`repro.replay.symbolic`) represents the possible
values of a symbolic input as an integer interval and narrows it by
propagating path constraints.  Intervals are closed, possibly empty, and
bounded by the library-wide default input domain so enumeration always
terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# Default domain for symbolic inputs.  Guest programs in the corpus use
# small integers; a bounded domain keeps ODR/ESD-style inference exact
# while still exhibiting the search blow-up the paper warns about.
DOMAIN_MIN = -(2 ** 16)
DOMAIN_MAX = 2 ** 16


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; empty when ``lo > hi``."""

    lo: int
    hi: int

    @staticmethod
    def top() -> "Interval":
        """The full default input domain."""
        return Interval(DOMAIN_MIN, DOMAIN_MAX)

    @staticmethod
    def empty() -> "Interval":
        """The canonical empty interval."""
        return Interval(1, 0)

    @staticmethod
    def point(value: int) -> "Interval":
        """The singleton interval ``[value, value]``."""
        return Interval(value, value)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __len__(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __iter__(self) -> Iterator[int]:
        if not self.is_empty:
            yield from range(self.lo, self.hi + 1)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        corners = [self.lo * other.lo, self.lo * other.hi,
                   self.hi * other.lo, self.hi * other.hi]
        return Interval(min(corners), max(corners))

    def negate(self) -> "Interval":
        if self.is_empty:
            return self
        return Interval(-self.hi, -self.lo)

    # -- constraint refinement -----------------------------------------

    def refine_le(self, bound: int) -> "Interval":
        """Narrow to values <= ``bound``."""
        return Interval(self.lo, min(self.hi, bound))

    def refine_ge(self, bound: int) -> "Interval":
        """Narrow to values >= ``bound``."""
        return Interval(max(self.lo, bound), self.hi)

    def __repr__(self) -> str:
        if self.is_empty:
            return "Interval(empty)"
        return f"Interval[{self.lo}, {self.hi}]"
