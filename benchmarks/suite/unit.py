"""One fresh process of the suite: set up one workload, run it once.

``run.py`` starts this file as ``python3 unit.py '<json spec>'`` for every
measured unit, so each unit pays its own ``import repro`` and starts with
empty per-process caches (cause counts, decoded programs, generated
cases).  The last line of stdout is one JSON object: the time span of
the set-up and of every request, the host-speed readings taken
throughout, the digest of every request's output, and - in a traced
unit - the per-layer ledger.

Spec keys: ``root`` (repository root), ``workload``, ``seed``, ``tiny``
(smoke-test sizes), ``mode`` (``run``, ``setup`` = set up and exit, or
``fixture`` = the untimed sweep that fills a rerun store), ``traced``,
``store`` (the rerun store) and ``scratch`` (a directory for new stores).
"""

from __future__ import annotations

import array
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import tempfile
import time

# Corpus seeds per unit and per request, as (full, smoke-test) sizes.
# Workload seed S sweeps corpus seeds [span*S, span*S + span).  Small
# requests give the latency percentiles many samples (120, 50 and 100
# a unit) and keep each one short next to the host's speed swings.  A
# fleet request of 4 seeds gives each worker 10 cells a phase; with 2
# its time flips between two modes from run to run.
CORPUS_SPAN = {"corpus-sweep": (120, 2), "corpus-fleet": (200, 2),
               "corpus-rerun": (60, 2)}
CORPUS_CHUNK = {"corpus-sweep": (1, 1), "corpus-fleet": (4, 2),
                "corpus-rerun": (6, 2)}
RERUN_PASSES = (10, 1)
FLEET_JOBS = 2
# Scheduler seeds a session searches for a failing production run:
# [RECORD_SEEDS*S, RECORD_SEEDS*S + RECORD_SEEDS).
RECORD_SEEDS = 200
SMOKE_APPS = ("adder",)
# Committed rows of CORPUS_results.json cover corpus seeds below this.
COMMITTED_SEEDS = 20
SAMPLE_LOOPS = 1_000
SAMPLE_INTERVAL_S = 0.025
SAMPLE_CAPACITY = 8_000  # 200 s of readings


def digest(value) -> str:
    """SHA-256 of the canonical JSON encoding."""
    return hashlib.sha256(json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def artifact_digest(artifact) -> str:
    """Digest of a sweep artifact minus ``timing`` and ``config.jobs``,
    the only parts that may differ between equal sweeps."""
    stable = {key: value for key, value in artifact.items()
              if key != "timing"}
    stable["config"] = {key: value for key, value in
                        artifact["config"].items() if key != "jobs"}
    return digest(stable)


def disk_bytes(path: str) -> int:
    total = 0
    for dirpath, __, filenames in os.walk(path):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _kernel(loops: int) -> int:
    """Interpreter-shaped busy work that touches no ``repro`` code."""
    registers = {"a": 0, "b": 1, "c": 0}
    frames = [[0, 0] for __ in range(8)]
    out = []

    def step(frame, i):
        frame[0] = (frame[0] + 1) & 63
        return frame[0] ^ i

    for i in range(loops):
        value = step(frames[i & 7], i)
        registers["a"] = registers["b"] + value
        if value & 3 == 0:
            out.append(value)
        registers["c"] = len(out)
    return registers["c"]


class SpeedSampler:
    """Times a short kernel every ``SAMPLE_INTERVAL_S`` from SIGALRM.

    A shared host's vCPUs run at full speed or far below it, switching
    within seconds; the kernel slows with them, so scaling a measured
    time by the kernel readings taken during it recovers the code's own
    cost.  The handler runs between bytecodes of whatever the unit is
    running, on its core.  The kernel runs with the garbage collector
    off, so the size of the unit's heap does not change its readings.
    Readings go into a preallocated array: objects kept from inside the
    handler would pin allocator arenas and raise the peak RSS measured.
    It costs about 1% of the timed phase on every commit alike.
    """

    def __init__(self):
        self._flat = array.array("d", bytes(16 * SAMPLE_CAPACITY))
        self._taken = 0

    def _sample(self, signum=None, frame=None) -> None:
        if self._taken == SAMPLE_CAPACITY:
            return
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _kernel(SAMPLE_LOOPS)
        taken = time.perf_counter() - started
        if collecting:
            gc.enable()
        self._flat[2 * self._taken] = started
        self._flat[2 * self._taken + 1] = taken
        self._taken += 1

    @property
    def readings(self) -> list:
        """(start, seconds) of every kernel timed."""
        return [tuple(self._flat[2 * i:2 * i + 2])
                for i in range(self._taken)]

    def __enter__(self) -> "SpeedSampler":
        self._sample()  # so even the shortest unit has a reading
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class CorpusWorkload:
    """The sweep workloads: inline into a store, fleet, store rerun."""

    def __init__(self, spec, ledger):
        self.spec = spec
        self.ledger = ledger
        self.workload = spec["workload"]
        self.jobs = FLEET_JOBS if self.workload == "corpus-fleet" else 1
        self.outputs = []
        self.rows = []
        span = CORPUS_SPAN[self.workload]
        start = span[0] * spec["seed"]
        self.seeds = range(start, start + span[spec["tiny"]])

    def prepare(self) -> None:
        from repro.corpus import generator
        from repro.store import RunStore
        self.store = None
        if self.workload == "corpus-rerun":
            self.store = self.spec["store"]
            if self.spec["mode"] != "fixture":
                # Opening the store is the whole set-up: all cells hit.
                RunStore(self.store).entries()
                return
        for seed in self.seeds:
            generator.generate_case(seed)
        if self.workload == "corpus-sweep":
            self.store = tempfile.mkdtemp(prefix="store-",
                                          dir=self.spec["scratch"])

    def requests(self):
        """The seed chunks, in order; a rerun sends them pass after pass
        (the fixture sends one pass, cold)."""
        chunk = CORPUS_CHUNK[self.workload][self.spec["tiny"]]
        chunks = [self.seeds[i:i + chunk]
                  for i in range(0, len(self.seeds), chunk)]
        if self.workload == "corpus-rerun" and self.spec["mode"] != "fixture":
            return chunks * RERUN_PASSES[self.spec["tiny"]]
        return chunks

    def request(self, seeds):
        from repro.corpus import matrix
        from repro.models import model_order
        return matrix.run_matrix(seeds, model_order(), jobs=self.jobs,
                                 store=self.store)

    def collect(self, artifact) -> None:
        fleet = artifact["fleet"]
        self.outputs.append({"digest": artifact_digest(artifact),
                             "cells": fleet["cells"], "ok": fleet["ok"]})
        self.rows += [row for row in artifact["matrix"]
                      if row["seed"] < COMMITTED_SEEDS]
        if self.ledger is not None:
            counts = self.ledger.counts
            timing = artifact["timing"]
            counts["store.hits"] += timing.get("store_hits", 0)
            counts["fleet.retried_cells"] += len(fleet["retried"])
            if self.jobs > 1:
                counts["fleet.record_phase_s"] += timing["record_seconds"]
                counts["fleet.replay_phase_s"] += timing["replay_seconds"]

    def finish(self) -> None:
        if self.ledger is not None and self.store is not None:
            self.ledger.counts["store.bytes_on_disk"] = disk_bytes(
                self.store)


class AppSessions:
    """One pass of debug sessions over every hand-written app x model."""

    def __init__(self, spec, ledger):
        self.spec = spec
        self.outputs = []
        self.rows = []

    def prepare(self) -> None:
        from repro.apps import ALL_APPS
        names = SMOKE_APPS if self.spec["tiny"] else tuple(ALL_APPS)
        self.cases = {name: ALL_APPS[name]() for name in names}

    def requests(self):
        from repro.models import model_order
        return [(name, case, model) for name, case in self.cases.items()
                for model in model_order()]

    def request(self, item):
        """One session, record to score; its table row."""
        from repro.models import DebugSession
        name, case, model = item
        base = RECORD_SEEDS * self.spec["seed"]
        try:
            session = DebugSession(case, model)
            session.record(seeds=range(base, base + RECORD_SEEDS))
            workstation = DebugSession.receive(session.ship())
            workstation.replay()
            scored = workstation.score(original_cause=case.known_cause)
        except Exception as exc:  # a failed session, not a crash
            return [name, model, f"{type(exc).__name__}: {exc}"]
        return [name, model, round(scored.overhead, 3),
                round(scored.fidelity, 3), round(scored.efficiency, 4),
                round(scored.utility, 4), scored.n_causes,
                scored.failure_reproduced]

    def collect(self, row) -> None:
        self.rows.append(row)
        self.outputs.append({"digest": digest(row), "cells": 1,
                             "ok": int(len(row) > 3)})

    def finish(self) -> None:
        pass


def main(spec) -> dict:
    """Set up, then send every request, timing each.

    ``spans`` holds (start, end) of the set-up and then of every request;
    the sampler's readings run throughout.
    """
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        sys.path.insert(0, os.path.join(spec["root"], "src"))
        ledger = None
        if spec["traced"]:
            import ledger as ledger_module
            ledger = ledger_module.Ledger()
            ledger_module.install(ledger)
        kind = (AppSessions if spec["workload"] == "app-sessions"
                else CorpusWorkload)
        workload = kind(spec, ledger)
        workload.prepare()
        spans = [(started, time.perf_counter())]
        if spec["mode"] != "setup":
            for item in workload.requests():
                started = time.perf_counter()
                answer = workload.request(item)
                spans.append((started, time.perf_counter()))
                workload.collect(answer)
    result = {"spans": spans, "samples": sampler.readings}
    if spec["mode"] == "setup":
        return result
    workload.finish()
    result.update(outputs=workload.outputs, rows=workload.rows)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["rss_kb"] = own + children
    if ledger is not None:
        result["layers"] = ledger_module.layer_metrics(ledger)
        result["counts"] = dict(ledger.counts)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
