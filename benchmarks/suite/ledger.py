"""In-memory span ledger for the suite's traced runs.

``install()`` wraps the public entry point of every layer from outside
``src/``: each wrapper is ``setattr`` onto the defining module or class
and onto every ``repro.*`` module that imported the same object by name,
so no import alias keeps calling the bare function.  A wrapper opens a
span (layer, start, end, parent) on ``time.perf_counter`` and bumps the
counters of its layer.  Spans stay in memory until the unit reports.

A layer's self time is its spans' durations minus the time their child
spans cover; its total time sums only spans with no open span of the
same layer above them, so recursion is not counted twice.

Fleet workers are forked from the traced process and inherit the
wrappers.  The wrapped worker entry point hands the spans a worker
recorded during one cell back with the cell's result, and the wrapped
``WorkerSupervisor.run`` merges them (and timestamps each arrival for
the barrier-idle figure) before the matrix sees the result.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# Counter that proves each wrapper fired; ``Machine.advance`` has no
# caller in ``src/`` today, so only it may read 0.
WRAPPER_COUNTERS = {
    "generator.generate_case": "generator.calls",
    "DebugSession.record": "record.calls",
    "attest.stamp_attestation": "attest.stamp_calls",
    "attest.verify_attestation": "attest.verify_calls",
    "DebugSession.ship": "ship.calls",
    "DebugSession.receive": "receive.calls",
    "base.replay_log": "replay.calls",
    "ExecutionSearch.search": "search.calls",
    "session.count_root_causes": "rootcause.calls",
    "rootcause.enumerate_root_causes": "rootcause.enumerations",
    "DebugSession.score": "score.calls",
    "Machine.run": "vm.runs",
    "Machine.advance": "vm.advances",
    "Machine.fork": "vm.forks",
    "RunStore.put_row": "store.put_row",
    "RunStore.put_case": "store.put_case",
    "RunStore.stored_cells": "store.stored_cells",
    "RunStore.get_case": "store.get_case",
    "RunStore.get_object": "store.get_object",
    "WorkerSupervisor.run": "fleet.runs",
    "matrix._fleet_cell": "fleet.cells",
}
NEVER_CALLED = ("Machine.advance",)

_STORE_LAYERS = ("store.read", "store.write")


class Ledger:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        # [layer, start, end, parent index or -1, nested in same layer]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()

    def enter(self, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent,
                           self.open[layer] > 0])
        self.stack.append(index)
        self.open[layer] += 1
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.open[span[0]] -= 1

    def drain(self) -> Tuple[List[list], Counter]:
        """Hand over (and forget) everything recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def merge(self, spans: List[list], counts: Counter) -> None:
        """Adopt another process's spans; their roots stay roots."""
        offset = len(self.spans)
        for layer, start, end, parent, nested in spans:
            self.spans.append([layer, start, end,
                               parent + offset if parent >= 0 else -1,
                               nested])
        self.counts.update(counts)

    def layer_times(self) -> Tuple[Counter, Counter]:
        """(self seconds, total seconds) per layer."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, nested in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for index, (layer, start, end, parent, nested) in enumerate(
                self.spans):
            self_s[layer] += end - start - covered[index]
            if not nested:
                total_s[layer] += end - start
        return self_s, total_s


class WorkerSpans:
    """A fleet cell's result with the spans its worker recorded."""

    def __init__(self, value: Any, spans: List[list], counts: Counter):
        self.value = value
        self.spans = spans
        self.counts = counts


def _traced(ledger: Ledger, layer: str, counter: str, fn: Callable,
            before: Optional[Callable] = None,
            after: Optional[Callable] = None,
            skip_inside: Tuple[str, ...] = ()) -> Callable:
    """Wrap ``fn`` in a span of ``layer``.

    ``before(args)`` returns state handed to ``after(result, args,
    state)``, which adds the layer's work counts.  A call made while a
    span of a ``skip_inside`` layer is open runs unrecorded.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_inside and any(ledger.open[name] for name in skip_inside):
            return fn(*args, **kwargs)
        ledger.counts[counter] += 1
        state = before(args) if before is not None else None
        index = ledger.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.exit(index)
        if after is not None:
            after(result, args, state)
        return result
    return wrapper


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro.*`` name bound to ``original`` at the wrapper."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", None) or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(ledger: Ledger) -> None:
    """Wrap every layer's entry point; spans land in ``ledger``."""
    from repro.analysis import rootcause
    from repro.corpus import fleet, generator, matrix
    from repro.models import base, session
    from repro.record import attest
    from repro.replay.search import ExecutionSearch
    from repro.store.runstore import RunStore
    from repro.vm.machine import Machine

    def function(module, attr, layer, **hooks) -> None:
        original = getattr(module, attr)
        counter = WRAPPER_COUNTERS[f"{module.__name__.rsplit('.', 1)[-1]}"
                                   f".{attr}"]
        _rebind(original, _traced(ledger, layer, counter, original,
                                  **hooks))

    def method(cls, attr, layer, **hooks) -> None:
        original = cls.__dict__[attr]
        counter = WRAPPER_COUNTERS[f"{cls.__name__}.{attr}"]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(_traced(
                ledger, layer, counter, original.__func__, **hooks)))
        else:
            setattr(cls, attr, _traced(ledger, layer, counter, original,
                                       **hooks))

    # corpus.generator: cases built (the per-process cache absorbs the
    # rest of the calls).
    def cache_size(args):
        return len(generator._CASE_CACHE)

    def cases_built(result, args, size):
        ledger.counts["generator.cases"] += (len(generator._CASE_CACHE)
                                             - size)

    function(generator, "generate_case", "generator",
             before=cache_size, after=cases_built)

    # record, record.serialize, decode, scoring.
    method(session.DebugSession, "record", "record")

    def shipped(payload, args, state):
        ledger.counts["ship.payload_bytes"] += len(payload)

    method(session.DebugSession, "ship", "ship", after=shipped)
    method(session.DebugSession, "receive", "receive")
    method(session.DebugSession, "score", "score")

    # record.attest
    function(attest, "stamp_attestation", "attest.stamp")
    function(attest, "verify_attestation", "attest.verify")

    # replay (registry dispatch) and replay.search
    def replayed(result, args, state):
        ledger.counts["replay.attempts"] += result.attempts
        log = args[1]
        ledger.counts["replay.reproduced"] += bool(
            result.reproduced_failure(log.failure))

    function(base, "replay_log", "replay", after=replayed)

    def searched(outcome, args, state):
        ledger.counts["search.attempts"] += outcome.attempts
        ledger.counts["search.accepted"] += (len(outcome.all_accepted)
                                             or int(outcome.found))

    method(ExecutionSearch, "search", "search", after=searched)

    # analysis.rootcause: calls minus enumerations = cache hits.
    function(session, "count_root_causes", "rootcause")

    def enumerated(causes, args, state):
        ledger.counts["rootcause.causes"] += len(causes)

    function(rootcause, "enumerate_root_causes", "rootcause",
             after=enumerated)

    # vm
    def steps_before(args):
        return args[0].steps

    def stepped(result, args, before):
        ledger.counts["vm.steps"] += args[0].steps - before

    method(Machine, "run", "vm", before=steps_before, after=stepped)
    method(Machine, "advance", "vm", before=steps_before, after=stepped)
    method(Machine, "fork", "vm")

    # store: only the calls the matrix makes, not the store's own
    # internal reads.
    for attr, layer in (("put_row", "store.write"),
                        ("put_case", "store.write"),
                        ("stored_cells", "store.read"),
                        ("get_case", "store.read"),
                        ("get_object", "store.read")):
        method(RunStore, attr, layer, skip_inside=_STORE_LAYERS)

    _install_fleet(ledger, fleet, matrix)


def _install_fleet(ledger: Ledger, fleet, matrix) -> None:
    """Carry worker spans home and time the record/replay barrier."""
    owner = os.getpid()
    cell = matrix._fleet_cell
    cell_counter = WRAPPER_COUNTERS["matrix._fleet_cell"]

    @functools.wraps(cell)
    def traced_cell(payload, attempt):
        if os.getpid() == owner:  # the inline runner
            return cell(payload, attempt)
        if ledger.pid != os.getpid():  # first cell in a forked worker
            ledger.reset()
        ledger.counts[cell_counter] += 1
        value = cell(payload, attempt)
        return WorkerSpans(value, *ledger.drain())

    _rebind(cell, traced_cell)

    original = fleet.WorkerSupervisor.run
    run_counter = WRAPPER_COUNTERS["WorkerSupervisor.run"]

    @functools.wraps(original)
    def traced_run(self, tasks, on_result=None):
        ledger.counts[run_counter] += 1
        arrivals: List[float] = []

        def arrived(outcome) -> None:
            arrivals.append(time.perf_counter())
            if isinstance(outcome.value, WorkerSpans):
                carried = outcome.value
                ledger.merge(carried.spans, carried.counts)
                outcome.value = carried.value
                if outcome.key.startswith("record:"):
                    ledger.counts["fleet.payload_bytes"] += sum(
                        len(payload) for __, payload in outcome.value[1])
            if on_result is not None:
                on_result(outcome)

        outcomes = original(self, tasks, on_result=arrived)
        if len(arrivals) >= self.jobs:
            ledger.counts["fleet.barrier_idle_s"] += (
                time.perf_counter() - arrivals[-self.jobs])
        return outcomes

    fleet.WorkerSupervisor.run = traced_run


def layer_metrics(ledger: Ledger) -> Dict[str, float]:
    """Every per-layer metric but the tracing overhead (0 where a layer
    idled); ``BENCHMARK.json`` declares their units."""
    self_s, total_s = ledger.layer_times()
    c = ledger.counts

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "generator.cases": c["generator.cases"],
        "generator.busy_s": total_s["generator"],
        "record.calls": c["record.calls"],
        "record.self_s": self_s["record"],
        "attest.stamp_calls": c["attest.stamp_calls"],
        "attest.stamp_s": self_s["attest.stamp"],
        "attest.verify_calls": c["attest.verify_calls"],
        "attest.verify_s": self_s["attest.verify"],
        "ship.calls": c["ship.calls"],
        "ship.self_s": self_s["ship"],
        "ship.payload_bytes": c["ship.payload_bytes"],
        "receive.calls": c["receive.calls"],
        "receive.self_s": self_s["receive"],
        "replay.calls": c["replay.calls"],
        "replay.self_s": self_s["replay"],
        "replay.total_s": total_s["replay"],
        "replay.attempts": c["replay.attempts"],
        "replay.reproduced_frac": share(c["replay.reproduced"],
                                        c["replay.calls"]),
        "search.calls": c["search.calls"],
        "search.self_s": self_s["search"],
        "search.attempts": c["search.attempts"],
        "search.accepted_frac": share(c["search.accepted"],
                                      c["search.attempts"]),
        "rootcause.calls": c["rootcause.calls"],
        "rootcause.enumerations": c["rootcause.enumerations"],
        "rootcause.self_s": self_s["rootcause"],
        "rootcause.total_s": total_s["rootcause"],
        "rootcause.causes": c["rootcause.causes"],
        "score.self_s": self_s["score"],
        "vm.runs": c["vm.runs"],
        "vm.forks": c["vm.forks"],
        "vm.steps": c["vm.steps"],
        "vm.self_s": self_s["vm"],
        "vm.steps_per_s": share(c["vm.steps"], self_s["vm"]),
        "store.writes": c["store.put_row"] + c["store.put_case"],
        "store.write_s": total_s["store.write"],
        "store.reads": (c["store.stored_cells"] + c["store.get_case"]
                        + c["store.get_object"]),
        "store.read_s": total_s["store.read"],
        "store.hits": c["store.hits"],
        "store.bytes_on_disk": c["store.bytes_on_disk"],
        "fleet.record_phase_s": c["fleet.record_phase_s"],
        "fleet.replay_phase_s": c["fleet.replay_phase_s"],
        "fleet.barrier_idle_s": c["fleet.barrier_idle_s"],
        "fleet.payload_bytes": c["fleet.payload_bytes"],
        "fleet.retried_cells": c["fleet.retried_cells"],
    }
    return metrics
