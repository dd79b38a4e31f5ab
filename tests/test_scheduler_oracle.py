"""Oracle: sticky picks make the decisions filter-then-pick made.

Around a :class:`~repro.vm.scheduler.RandomScheduler`, the constraining
schedulers - :class:`~repro.vm.scheduler.SyncOrderScheduler` (the
output model's ODR replay) and
:class:`~repro.replay.selective_replay.GuidedOrderScheduler` (rcse) -
settle a pick that keeps the current thread from that thread alone, and
build the allowed list only on a switch.  This oracle keeps the
schedulers they replaced as references: they scan every runnable thread
on every step and hand the allowed list to ``inner.pick``.  Each case is
recorded and shipped once, then the workstation replays it under both,
and the two replays must agree on ``attempts``, ``inference_cycles``,
``found`` and the replay trace's fingerprint.

Tier-1 covers the seven apps and corpus seeds 0-23;
``benchmarks/bench_schedulers.py`` runs the same oracle over corpus seeds
0-119.
"""

from collections import Counter
from contextlib import contextmanager
from typing import Optional, Tuple
from unittest import mock

import pytest

from repro.apps import ALL_APPS
from repro.errors import ReplayDivergenceError
from repro.models import DebugSession
from repro.models.session import resolve_case
from repro.replay import output_replay, selective_replay
from repro.vm.scheduler import SyncOrderScheduler

MODELS = ("output", "rcse")


class FilterThenPickSyncOrder(SyncOrderScheduler):
    """The sync-order pick before sticky picks: filter, then pick."""

    def pick(self, machine, runnable):
        index = self._index
        if index >= len(self.sync_order):
            return self._inner.pick(machine, runnable)
        expected_tid, expected_op, __ = self.sync_order[index]
        threads = machine.threads
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
        if not allowed:
            raise ReplayDivergenceError(
                f"sync-order replay stuck at event {index}")
        return self._inner.pick(machine, allowed)


class FilterThenPickGuidedOrder(selective_replay.GuidedOrderScheduler):
    """The guided-order pick before sticky picks: filter, then pick."""

    def _filtered(self, machine, runnable):
        sync_open = self.sync_index < len(self.sync_order)
        sel_open = self.sel_index < len(self.selective_order)
        if not (sync_open or sel_open):
            return runnable
        if sync_open:
            sync_tid, sync_op, __ = self.sync_order[self.sync_index]
        if sel_open:
            sel_tid, sel_site = self.selective_order[self.sel_index]
        to_original = self.mapper.to_original
        allowed = runnable
        for position, tid in enumerate(runnable):
            frame = machine.threads[tid].frames[-1]
            function = frame.function
            pc = frame.pc
            held = False
            if sync_open:
                op = function.sync_ops[pc]
                held = op is not None and (to_original(tid) != sync_tid
                                           or op != sync_op)
            if not held and sel_open:
                name = function.name
                if name in self.control_plane or (
                        self.dialup_sites
                        and f"{name}@{pc}" in self.dialup_sites):
                    held = (to_original(tid) != sel_tid
                            or f"{name}@{pc}" != sel_site)
            if held:
                if allowed is runnable:
                    allowed = runnable[:position]
            elif allowed is not runnable:
                allowed.append(tid)
        return allowed

    def pick(self, machine, runnable):
        while True:
            allowed = self._filtered(machine, runnable)
            if allowed:
                return self.inner.pick(machine, allowed)
            self.divergences += 1
            if self.divergences > self.max_divergences:
                self._abandon()
                return self.inner.pick(machine, runnable)
            if self.sel_index < len(self.selective_order):
                self.sel_index += 1
            elif self.sync_index < len(self.sync_order):
                self.sync_index += 1
            else:
                return self.inner.pick(machine, runnable)


@contextmanager
def filter_then_pick():
    """Replayers build the reference schedulers while this is open."""
    with mock.patch.object(output_replay, "SyncOrderScheduler",
                           FilterThenPickSyncOrder), \
            mock.patch.object(selective_replay, "GuidedOrderScheduler",
                              FilterThenPickGuidedOrder):
        yield


def _summary(replay) -> Tuple[int, int, bool, Optional[str]]:
    fingerprint = None if replay.trace is None else replay.trace.fingerprint()
    return (replay.attempts, replay.inference_cycles, replay.found,
            fingerprint)


def check_replays(ref: str, model: str) -> Tuple[int, int, bool,
                                                  Optional[str]]:
    """Record ``ref`` under ``model`` at its failing seed, ship it, and
    replay the payload with the sticky and the reference schedulers;
    the two replays must agree.  Returns the replay's summary."""
    case = resolve_case(ref)
    session = DebugSession(case, model,
                           seed=getattr(case, "failing_seed", None))
    session.record()
    payload = session.ship()
    sticky = _summary(DebugSession.receive(payload).replay())
    with filter_then_pick():
        reference = _summary(DebugSession.receive(payload).replay())
    assert sticky == reference, f"{ref} under {model}"
    return sticky


def test_reference_schedulers_are_patched_in():
    """The reference replays run the reference picks (else the oracle
    would compare the sticky path with itself)."""
    picks = Counter()

    def counted(cls):
        pick = cls.pick

        def counted_pick(self, machine, runnable):
            picks[cls.__name__] += 1
            return pick(self, machine, runnable)
        return counted_pick

    with mock.patch.object(FilterThenPickSyncOrder, "pick",
                           counted(FilterThenPickSyncOrder)), \
            mock.patch.object(FilterThenPickGuidedOrder, "pick",
                              counted(FilterThenPickGuidedOrder)):
        for model in MODELS:
            check_replays("app:racy_counter", model)
    assert picks["FilterThenPickSyncOrder"] > 0
    assert picks["FilterThenPickGuidedOrder"] > 0
    assert output_replay.SyncOrderScheduler is SyncOrderScheduler


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_app_replays_match_filter_then_pick(name, model):
    check_replays(f"app:{name}", model)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(24))
def test_corpus_replays_match_filter_then_pick(seed, model):
    check_replays(f"corpus:{seed}", model)
