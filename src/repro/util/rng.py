"""Deterministic, stream-splittable random number generation.

All non-determinism in the library (production schedulers, network latency,
fault injection) is driven through :class:`DeterministicRng` so that an
execution is a pure function of its seeds.  Replay engines exploit this:
re-running with the same seed stream reproduces the run exactly, while
relaxed replayers deliberately use *fresh* seeds for the unrecorded parts.

Streams are split by name, so adding a new consumer of randomness does not
perturb the values seen by existing consumers - a property the tests rely
on for stable golden values.

A stream is seeded at its first draw, not at construction: most
environments never draw (no ``random`` syscall, no lossy ``net_send``),
so a machine pays no seeding for its environment's stream, and a
snapshot or fork of an unseeded stream copies nothing.  The values drawn
are the same either way.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(seed: int, name: str) -> int:
    """Derive a child seed from ``(seed, name)`` stably across runs."""
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def copy_stream(stream: random.Random) -> random.Random:
    """A ``random.Random`` that continues from ``stream``'s position.

    The copy is made without seeding it first: ``setstate`` overwrites
    the whole generator state, so a seed would be wasted work.
    """
    twin = random.Random.__new__(random.Random)
    twin.setstate(stream.getstate())
    return twin


class DeterministicRng:
    """A named, seeded random stream with stable cross-run behaviour."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        # Seeded by ``stream`` at the first draw; None until then.
        self._random: Optional[random.Random] = None

    def split(self, name: str) -> "DeterministicRng":
        """Return an independent child stream identified by ``name``."""
        return DeterministicRng(_derive_seed(self.seed, self.name), name)

    @property
    def stream(self) -> random.Random:
        """The underlying ``random.Random``, seeded on first use, for
        per-step callers that cannot afford a wrapper call per draw."""
        stream = self._random
        if stream is None:
            stream = self._random = random.Random(
                _derive_seed(self.seed, self.name))
        return stream

    def clone(self) -> "DeterministicRng":
        """An exact copy *mid-stream*: the clone continues from the same
        point in the sequence as the original (checkpoint/fork support).
        A stream not yet seeded is cloned unseeded, copying nothing.
        """
        twin = DeterministicRng.__new__(DeterministicRng)
        twin.seed = self.seed
        twin.name = self.name
        twin._random = (None if self._random is None
                        else copy_stream(self._random))
        return twin

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        return self.stream.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self.stream.random()

    def chance(self, probability: float) -> bool:
        """Bernoulli draw."""
        return self.stream.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return items[self.stream.randrange(len(items))]

    def shuffle(self, items: List[T]) -> List[T]:
        """Return a shuffled copy of ``items``."""
        copy = list(items)
        self.stream.shuffle(copy)
        return copy

    def expovariate(self, mean: float) -> float:
        """Exponential draw with the given mean (for network latency)."""
        return self.stream.expovariate(1.0 / mean)

    def __repr__(self) -> str:
        return f"DeterministicRng(seed={self.seed}, name={self.name!r})"
