"""Thread schedulers: the source (and the sink) of schedule non-determinism.

Production runs use :class:`RandomScheduler`, a seeded preemptive scheduler
modelling an OS scheduler with quantum jitter.  Replay runs use
:class:`FixedScheduler` (exact recorded interleaving) or
:class:`SyncOrderScheduler` (recorded synchronization order only - the
ODR-style relaxation that leaves racing instructions unordered).

The machine calls ``pick(machine, runnable)`` with its runnable tid list -
non-empty, ascending, and read-only to the scheduler - and runs the tid
returned, which must be one of them.  All policy lives in the
schedulers; the machine only passes its list.  A scheduler that
constrains another (:class:`SyncOrderScheduler`, ``GuidedOrderScheduler``
in :mod:`repro.replay.selective_replay`) reads each runnable thread's
next sync op off its top frame from a per-function table
(``frame.function.sync_ops[frame.pc]``), filters the list, and calls
``inner.pick(machine, allowed)`` - with the runnable list itself when it
excludes no thread.  :class:`SyncOrderScheduler` keeps that list between
decisions and re-vets only the thread that ran since, until the sync
index moves or the machine's ``runnable_version`` says its runnable list
was edited.

Keep rules: between two steps of one thread the run loop may skip
``pick``.  A scheduler's :meth:`~Scheduler.keep_rule` hands it the keep
draw and the switch that ``pick`` would make there -
:class:`RandomScheduler`'s own, and :class:`SyncOrderScheduler`'s
between sync ops - so no decision moves.  A class that overrides
``pick`` offers no rule and is asked on every step.
``GuidedOrderScheduler`` offers none either; around a
:class:`RandomScheduler` whose pick is its own (:func:`sticky_inner`)
its pick settles a stay from the current thread alone.

After every executed step the machine calls ``notify(step)``, and after
each one with ``step.sync`` set ``notify_sync(step)``; each only on
schedulers whose class overrides it (see :func:`notifier`).
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReplayDivergenceError, SchedulerError
from repro.util.rng import DeterministicRng, copy_stream
from repro.vm.trace import StepRecord

# ``(draw, switch_prob, sync_gated, switch)``: see :meth:`Scheduler.keep_rule`.
KeepRule = Tuple[Callable[[], float], float, bool,
                 Callable[[List[int]], int]]


class Scheduler:
    """Base scheduler interface."""

    def pick(self, machine, runnable: List[int]) -> int:
        """Return the tid to execute next, one of ``runnable``."""
        raise NotImplementedError

    def keep_rule(self, machine) -> Optional[KeepRule]:
        """How ``machine``'s run loop may settle a decision without
        :meth:`pick`, or None (the default): pick decides every step.

        A rule ``(draw, switch_prob, sync_gated, switch)`` promises that
        while the thread that ran the last step is still runnable - and,
        with ``sync_gated``, its next op is not a sync op - ``pick`` would
        run it again exactly when ``draw() >= switch_prob``, and would
        otherwise return ``switch(runnable)``, with the same draws.  It is
        asked once per run-loop entry and held for that entry only.
        """
        return None

    def notify(self, step: StepRecord) -> None:
        """Called after each executed step; default is stateless."""

    def notify_sync(self, step: StepRecord) -> None:
        """Called after each executed step with ``step.sync`` set;
        default is stateless."""

    def clone(self) -> "Scheduler":
        """Return a copy that continues from the *current* state.

        A clone is a mid-run checkpoint: the copy makes exactly the
        decisions the original would make from here on.  Machine
        snapshot/fork relies on this.  The default is a deep copy;
        schedulers holding references to external mutable state should
        override.
        """
        return copy.deepcopy(self)


def notifier(scheduler: Scheduler, hook: str = "notify"
             ) -> Optional[Callable[[StepRecord], None]]:
    """``scheduler``'s ``hook`` (``notify`` or ``notify_sync``), or None
    when its class keeps the base no-op."""
    if getattr(type(scheduler), hook) is getattr(Scheduler, hook):
        return None
    return getattr(scheduler, hook)


class RoundRobinScheduler(Scheduler):
    """Deterministic round-robin with a fixed quantum."""

    def __init__(self, quantum: int = 1):
        if quantum < 1:
            raise SchedulerError("quantum must be >= 1")
        self.quantum = quantum
        self._current: Optional[int] = None
        self._remaining = 0

    def pick(self, machine, runnable: List[int]) -> int:
        current = self._current
        if current in runnable:
            if self._remaining > 0:
                self._remaining -= 1
                return current
            # Rotate: the first tid past the current one (``runnable`` is
            # ascending), wrapping to the lowest.
            chosen = next((t for t in runnable if t > current), runnable[0])
        else:
            chosen = runnable[0]
        self._current = chosen
        self._remaining = self.quantum - 1
        return chosen

    def clone(self) -> "RoundRobinScheduler":
        twin = RoundRobinScheduler(self.quantum)
        twin._current = self._current
        twin._remaining = self._remaining
        return twin


class RandomScheduler(Scheduler):
    """Seeded preemptive scheduler modelling production non-determinism.

    Sticky-random: keeps the current thread with probability
    ``1 - switch_prob`` (quantum-like behaviour), otherwise switches to a
    uniformly chosen runnable thread.  Fully determined by its seed, which
    is what makes 'record the seed' a valid (full-determinism) recording
    strategy for schedule non-determinism in this substrate.

    A pick is two public halves, :meth:`keeps` and :meth:`switch`, which
    the run loop (through :meth:`keep_rule`) and a constraining scheduler
    may call themselves to make the same draws as ``pick``.
    """

    def __init__(self, seed: int = 0, switch_prob: float = 0.25):
        self.seed = seed
        self.switch_prob = switch_prob
        # Draws come straight off the ``random.Random`` stream, in a fixed
        # order per pick: random() while the current thread is runnable,
        # then a switch's index (see :meth:`switch`).
        self._stream = DeterministicRng(seed, "sched").stream
        # The thread picked last (None before the first pick).
        self.current: Optional[int] = None

    def pick(self, machine, runnable: List[int]) -> int:
        if self.current in runnable and self.keeps():
            return self.current
        return self.switch(runnable)

    def keep_rule(self, machine) -> Optional[KeepRule]:
        """``keeps``'s draw and :meth:`switch`, while pick is its own."""
        if sticky_inner(self) is None:
            return None
        return self._stream.random, self.switch_prob, False, self.switch

    def keeps(self) -> bool:
        """Draw whether the current thread runs again: a pick's first
        draw, made only when the current thread may run."""
        return self._stream.random() >= self.switch_prob

    def switch(self, allowed: Sequence[int]) -> int:
        """Draw the next thread uniformly from ``allowed`` (non-empty)
        and make it current.

        The index is ``randrange(len(allowed))`` drawn inline: CPython's
        ``randrange(n)`` takes ``getrandbits(n.bit_length())`` until the
        result is below ``n``, so the stream moves exactly as it would.
        """
        count = len(allowed)
        bits = count.bit_length()
        getrandbits = self._stream.getrandbits
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        current = self.current = allowed[index]
        return current

    def clone(self) -> "RandomScheduler":
        twin = RandomScheduler.__new__(RandomScheduler)
        twin.seed = self.seed
        twin.switch_prob = self.switch_prob
        twin._stream = copy_stream(self._stream)
        twin.current = self.current
        return twin


class FixedScheduler(Scheduler):
    """Replays an exact recorded thread interleaving.

    In strict mode any mismatch between the recorded schedule and the
    machine's runnable set raises :class:`ReplayDivergenceError`; this is
    the deterministic replayer's divergence detector.  When the schedule
    is exhausted the fallback round-robin takes over (used by partial
    recordings that pin only a prefix).
    """

    def __init__(self, schedule: Sequence[int], strict: bool = True):
        self.schedule = list(schedule)
        self.strict = strict
        self._index = 0
        self._fallback = RoundRobinScheduler()

    def pick(self, machine, runnable: List[int]) -> int:
        if self._index >= len(self.schedule):
            return self._fallback.pick(machine, runnable)
        tid = self.schedule[self._index]
        if tid not in runnable:
            if self.strict:
                raise ReplayDivergenceError(
                    f"schedule step {self._index}: thread {tid} is not "
                    f"runnable (runnable={runnable})")
            return self._fallback.pick(machine, runnable)
        return tid

    def notify(self, step: StepRecord) -> None:
        if self._index < len(self.schedule):
            self._index += 1

    def clone(self) -> "FixedScheduler":
        twin = FixedScheduler(self.schedule, self.strict)
        twin._index = self._index
        twin._fallback = self._fallback.clone()
        return twin


def sticky_inner(inner: Scheduler) -> Optional[RandomScheduler]:
    """``inner`` when its pick and keep draw are :class:`RandomScheduler`'s
    own - a :meth:`~RandomScheduler.keeps` draw for a runnable current
    thread, then a :meth:`~RandomScheduler.switch` draw - else None.

    Only such an inner offers a keep rule, and a constraining scheduler
    around one may settle a pick that keeps the current thread from that
    thread alone, building its allowed list only on a switch; the draws
    are the ones ``inner.pick(machine, allowed)`` would make.
    """
    cls = type(inner)
    if isinstance(inner, RandomScheduler) \
            and cls.pick is RandomScheduler.pick \
            and cls.keeps is RandomScheduler.keeps:
        return inner
    return None


class SyncOrderScheduler(Scheduler):
    """Enforces a recorded synchronization order, nothing more.

    This is the ODR-style relaxation: lock/unlock/spawn/join operations
    must happen in the recorded global order, but ordinary instructions -
    including *racing* shared-memory accesses - interleave freely under the
    inner scheduler.  Replay under this scheduler reproduces sync order
    while leaving race outcomes unconstrained, which is exactly the
    residual non-determinism output-deterministic systems must infer.

    The inner scheduler only picks: it is never notified, so an inner
    that needs its ``notify`` is refused.

    Vetting: the allowed list for the current expected event is kept
    between decisions.  Between two of them only the thread the inner
    picked last (its ``current``) has run, so while the sync index and
    the machine's runnable set (``runnable_version``) are unchanged that
    thread is the only one whose admission can change, and it alone is
    re-vetted.  That holds only for an inner whose pick makes the thread
    it returns ``current`` (:func:`sticky_inner`).  Any other decision -
    a moved index, a changed runnable set, any other inner - rescans
    every runnable thread (:meth:`_allowed`).  A clone starts with
    nothing kept.
    """

    def __init__(self, sync_order: Sequence[Tuple[int, str, object]],
                 inner: Optional[Scheduler] = None):
        self.sync_order = list(sync_order)
        self._index = 0
        self._inner = inner or RoundRobinScheduler()
        if notifier(self._inner) is not None \
                or notifier(self._inner, "notify_sync") is not None:
            raise SchedulerError(
                "a sync-order scheduler does not notify its inner scheduler")
        # The inner whose ``current`` is the thread it picked last, or
        # None; and ``(index, runnable_version, allowed)`` of the last
        # vetting (see :meth:`_vetted`), or None.
        self._sticky = sticky_inner(self._inner)
        self._vet: Optional[Tuple[int, int, List[int]]] = None

    def pick(self, machine, runnable: List[int]) -> int:
        index = self._index
        if index >= len(self.sync_order):
            # Past the recorded window: sync ops run freely.
            return self._inner.pick(machine, runnable)
        allowed = self._vetted(machine, runnable, index)
        if not allowed:
            raise ReplayDivergenceError(
                f"sync-order replay stuck at event {index}: every "
                f"runnable thread is at an out-of-order sync operation")
        return self._inner.pick(machine, allowed)

    def keep_rule(self, machine) -> Optional[KeepRule]:
        """The inner's rule, gated at sync ops, while pick is this
        class's own.  Its switch draws among the threads the next
        recorded sync event admits - a list that holds the current
        thread, since a thread at no sync op is always admitted.  The
        switch reads ``machine``, so the rule, like every rule, must
        live only in the run loop's locals."""
        if type(self).pick is not SyncOrderScheduler.pick:
            return None
        rule = self._inner.keep_rule(machine)
        if rule is None:
            return None
        draw, switch_prob, __, inner_switch = rule
        sync_order = self.sync_order
        vetted = self._vetted

        def switch(runnable: List[int]) -> int:
            index = self._index
            if index < len(sync_order):
                runnable = vetted(machine, runnable, index)
            return inner_switch(runnable)
        return draw, switch_prob, True, switch

    def _vetted(self, machine, runnable: List[int],
                index: int) -> List[int]:
        """The threads of ``runnable`` that sync event ``index`` admits:
        the kept list with the inner's current thread re-vetted while
        the index and the runnable set are the ones it was built for,
        else a full :meth:`_allowed` scan."""
        expected_tid, expected_op, __ = self.sync_order[index]
        version = machine.runnable_version
        sticky = self._sticky
        current = None if sticky is None else sticky.current
        vet = self._vet
        if current is not None and vet is not None and vet[0] == index \
                and vet[1] == version:
            allowed = vet[2]
            frame = machine.threads[current].frames[-1]
            op = frame.function.sync_ops[frame.pc]
            admitted = op is None or (current == expected_tid
                                      and op == expected_op)
            if admitted == (allowed is runnable or current in allowed):
                return allowed
            if not admitted:
                # The current thread reached an out-of-order sync op.
                allowed = [tid for tid in allowed if tid != current]
                self._vet = (index, version, allowed)
                return allowed
        allowed = self._allowed(machine.threads, runnable, expected_tid,
                                expected_op)
        self._vet = (index, version, allowed)
        return allowed

    @staticmethod
    def _allowed(threads, runnable: List[int], expected_tid: int,
                 expected_op: str) -> List[int]:
        """The threads of ``runnable`` the next recorded sync event,
        ``(expected_tid, expected_op)``, admits: only a thread at an
        out-of-order sync op is held back, and ``runnable`` itself is
        returned until one is."""
        allowed = runnable
        for position, tid in enumerate(runnable):
            frame = threads[tid].frames[-1]
            op = frame.function.sync_ops[frame.pc]
            if op is not None and (tid != expected_tid
                                   or op != expected_op):
                if allowed is runnable:
                    allowed = runnable[:position]
                continue
            if allowed is not runnable:
                allowed.append(tid)
        return allowed

    def notify_sync(self, step: StepRecord) -> None:
        index = self._index
        if index < len(self.sync_order):
            expected_tid, expected_op, __ = self.sync_order[index]
            if step.tid == expected_tid and step.op == expected_op:
                self._index = index + 1

    def clone(self) -> "SyncOrderScheduler":
        twin = SyncOrderScheduler(self.sync_order, self._inner.clone())
        twin._index = self._index
        return twin
