"""Fault-tolerant worker fleet: supervision, timeouts, bounded retries.

The corpus matrix is this repo's own "production fleet": many worker
processes each evaluating (case x model) cells.  A fleet-scale runner
cannot assume every worker survives and every cell finishes - one hung
cell must not stall a 20-seed sweep, and one crashed worker must not
kill it.  :class:`WorkerSupervisor` is the supervision layer:

- **Persistent, warm workers**: ``jobs`` long-lived processes consume
  *batches* of tasks over pipes (chunked dispatch amortizes the per-cell
  process/IPC overhead that made ``Pool(chunksize=1)`` lose to a single
  process), and stay warm for the whole run.
- **Per-cell wall-clock timeouts**: a worker that reports no progress
  for ``cell_timeout`` seconds is killed and replaced; the in-flight
  cell is charged a *timeout* strike, the rest of its batch is requeued
  unpenalized.
- **Crash detection**: a worker that dies mid-batch (segfault analogue:
  ``os._exit``, OOM-kill, ...) is detected by its broken pipe / dead
  process, replaced, and the in-flight cell charged a *crash* strike.
- **Bounded deterministic retry**: a struck cell is retried up to
  ``retries`` times with exponential backoff whose delay (including
  jitter) is a pure function of ``(key, attempt)`` via
  :func:`retry_seed` - reruns of the same sweep back off identically.
- **Terminal statuses** (:class:`CellStatus`): a cell that exhausts its
  retries is *reported*, not raised - ``failed`` for a Python exception
  in the task, ``timeout`` for a wall-clock kill, ``quarantined`` for a
  cell that keeps crashing the worker that runs it (it endangers the
  fleet, so it is set aside).  The sweep completes with a report.

The supervisor is a context manager; leaving the block (normally, on
``KeyboardInterrupt``, or on any raised exception) terminates and joins
every worker, so an aborted run never leaves orphan processes.

Workers call ``worker_fn(payload, attempt)`` - the attempt index makes
retries explicit to the task (the fault-injection harness keys on it),
while deterministic tasks simply ignore it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class CellStatus:
    """Terminal status of one supervised cell."""

    OK = "ok"                    # task completed and returned a value
    FAILED = "failed"            # task raised an exception every attempt
    TIMEOUT = "timeout"          # task exceeded the wall-clock budget
    QUARANTINED = "quarantined"  # task kept killing its worker (or its
    #                              payload was refused by attestation)

    TERMINAL = (OK, FAILED, TIMEOUT, QUARANTINED)


# Per-attempt strike kinds and the terminal status each maps to when the
# retry budget is exhausted.
_STRIKE_STATUS = {
    "error": CellStatus.FAILED,
    "timeout": CellStatus.TIMEOUT,
    "crash": CellStatus.QUARANTINED,
}


def retry_seed(key: str, attempt: int) -> int:
    """Deterministic per-(cell, attempt) seed for retry decisions.

    A pure function of the cell key and the attempt index, so a rerun of
    the same sweep makes byte-identical retry choices (backoff jitter,
    fault-injection draws) - randomness without nondeterminism.
    """
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


@dataclass(frozen=True)
class FleetPolicy:
    """Supervision knobs for one supervised run."""

    cell_timeout: Optional[float] = None  # seconds of no progress -> kill
    retries: int = 2                      # retry budget per cell
    backoff_base: float = 0.05            # first retry delay (seconds)
    backoff_cap: float = 30.0             # hard delay ceiling (seconds)
    batch_size: Optional[int] = None      # cells per dispatch (None: auto)

    def backoff(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (seconds).

        The ceiling is a *hard* cap applied after jitter - no attempt
        count, however large, can sleep longer than ``backoff_cap``
        (the CLI's ``--max-backoff``) - and the exponent is clamped so
        absurd attempt numbers cannot even build the intermediate
        power.
        """
        if self.backoff_base <= 0:
            return 0.0
        delay = self.backoff_base * (2 ** min(max(0, attempt - 1), 62))
        jitter = (retry_seed(key, attempt) % 1000) / 2000.0  # [0, 0.5)
        return min(self.backoff_cap, delay * (1.0 + jitter))

    def chunk(self, n_tasks: int, jobs: int) -> int:
        """Cells per dispatch: explicit, or sized so each worker sees
        ~2 batches (big enough to amortize IPC, small enough to
        rebalance when cells are uneven)."""
        if self.batch_size is not None:
            return max(1, self.batch_size)
        if jobs <= 0:
            return max(1, n_tasks)
        return max(1, -(-n_tasks // (jobs * 2)))


@dataclass
class CellOutcome:
    """What the supervisor reports for one cell."""

    key: str
    status: str
    value: Any = None
    attempts: int = 0
    strikes: List[str] = field(default_factory=list)  # per-attempt kinds
    error: str = ""                                   # last failure detail

    @property
    def ok(self) -> bool:
        return self.status == CellStatus.OK


# -- the worker half ----------------------------------------------------------


def _worker_main(conn, worker_fn) -> None:
    """Long-lived worker: drain batches, stream per-cell results.

    Results are streamed cell by cell (not per batch) so the supervisor
    always knows *which* cell a dead or silent worker was running: the
    first cell of the current batch it has not reported yet.
    """
    # The supervisor owns shutdown; a terminal ^C must not race it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        __, batch = message
        for key, payload, attempt in batch:
            try:
                value = worker_fn(payload, attempt)
            except Exception:
                conn.send(("cell", key, "error", traceback.format_exc()))
            else:
                conn.send(("cell", key, "ok", value))
        conn.send(("batch-done",))


class _Worker:
    """Supervisor-side handle on one worker process."""

    def __init__(self, worker_fn):
        self.conn, child = Pipe()
        self.process = Process(target=_worker_main, args=(child, worker_fn),
                               daemon=True)
        self.process.start()
        child.close()
        self.batch: List[Tuple[str, Any, int]] = []
        self.done: set = set()
        self.last_progress = time.monotonic()

    @property
    def busy(self) -> bool:
        return bool(self.batch)

    def in_flight(self) -> Optional[Tuple[str, Any, int]]:
        """The cell this worker is (or died) executing: the first cell
        of its batch with no streamed result yet."""
        for item in self.batch:
            if item[0] not in self.done:
                return item
        return None

    def unstarted(self) -> List[Tuple[str, Any, int]]:
        """Batch cells after the in-flight one (never attempted)."""
        pending = [item for item in self.batch if item[0] not in self.done]
        return pending[1:]

    def dispatch(self, batch: List[Tuple[str, Any, int]]) -> None:
        self.batch = batch
        self.done = set()
        self.last_progress = time.monotonic()
        self.conn.send(("batch", batch))

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=1.0)
        self.kill()


# -- the supervisor -----------------------------------------------------------


class WorkerSupervisor:
    """Supervised, persistent worker pool (see module docstring).

    One supervisor can serve several :meth:`run` calls on the same warm
    fleet; workers are torn down when the ``with`` block exits.
    """

    def __init__(self, worker_fn: Callable[[Any, int], Any],
                 jobs: int = 2,
                 policy: Optional[FleetPolicy] = None):
        self.worker_fn = worker_fn
        self.jobs = max(1, jobs)
        self.policy = policy or FleetPolicy()
        self.workers: List[_Worker] = []
        self._prev_sigterm = None

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "WorkerSupervisor":
        self._install_sigterm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _install_sigterm(self) -> None:
        """Turn SIGTERM into SystemExit while the fleet is up.

        A KeyboardInterrupt or raised exception already unwinds through
        ``__exit__`` and reaps every worker; a plain SIGTERM (systemd
        stop, ``kill``, container teardown) would bypass Python cleanup
        entirely and orphan the fleet.  Only the default disposition is
        replaced - a caller's own handler is respected - and only from
        the main thread, where signal handlers can be set.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        try:
            current = signal.getsignal(signal.SIGTERM)
        except (ValueError, OSError):
            return
        if current not in (signal.SIG_DFL, None):
            return

        def _terminate(signum, frame):
            raise SystemExit(128 + signum)

        signal.signal(signal.SIGTERM, _terminate)
        self._prev_sigterm = current

    def close(self) -> None:
        """Terminate and join every worker (idempotent)."""
        workers, self.workers = self.workers, []
        for worker in workers:
            worker.stop()
        if self._prev_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)
            except (ValueError, OSError):
                pass
            self._prev_sigterm = None

    def _spawn(self) -> _Worker:
        worker = _Worker(self.worker_fn)
        self.workers.append(worker)
        return worker

    def _replace(self, worker: _Worker) -> None:
        worker.kill()
        self.workers.remove(worker)

    # -- the run loop -------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[str, Any]],
            on_result: Optional[Callable[[CellOutcome], None]] = None
            ) -> Dict[str, CellOutcome]:
        """Run every (key, payload) task to a terminal status.

        Returns ``{key: CellOutcome}`` - every key terminal, in input
        order.  ``on_result`` fires once per cell *as it finalizes* (the
        matrix stores each result there).  Keys must be unique strings.
        """
        keys = [key for key, __ in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("supervised task keys must be unique")
        outcomes: Dict[str, CellOutcome] = {
            key: CellOutcome(key=key, status="pending")
            for key, __ in tasks}
        # (key, payload, attempt, not_before)
        queue: deque = deque((key, payload, 0, 0.0)
                             for key, payload in tasks)
        pending = len(queue)
        chunk = self.policy.chunk(pending, self.jobs)
        while len(self.workers) < min(self.jobs, max(1, pending)):
            self._spawn()

        def finalize(key: str, status: str, value: Any = None,
                     error: str = "") -> None:
            nonlocal pending
            outcome = outcomes[key]
            outcome.status = status
            outcome.value = value
            if error:
                outcome.error = error
            pending -= 1
            if on_result is not None:
                on_result(outcome)

        def strike(item: Tuple[str, Any, int], kind: str,
                   error: str = "") -> None:
            """Charge one failed attempt; retry or finalize."""
            key, payload, attempt = item
            outcome = outcomes[key]
            outcome.attempts = attempt + 1
            outcome.strikes.append(kind)
            outcome.error = error or kind
            if attempt < self.policy.retries:
                not_before = (time.monotonic()
                              + self.policy.backoff(key, attempt + 1))
                queue.append((key, payload, attempt + 1, not_before))
            else:
                finalize(key, _STRIKE_STATUS[kind], error=outcome.error)

        def requeue(items: List[Tuple[str, Any, int]]) -> None:
            """Give never-attempted batch cells straight back (no strike)."""
            for key, payload, attempt in items:
                queue.appendleft((key, payload, attempt, 0.0))

        while pending > 0:
            now = time.monotonic()
            # Dispatch ready work to idle workers.
            idle = [w for w in self.workers if not w.busy]
            while idle and queue:
                ready = [item for item in queue if item[3] <= now]
                if not ready:
                    break
                batch = ready[:chunk]
                for item in batch:
                    queue.remove(item)
                worker = idle.pop()
                worker.dispatch([(k, p, a) for k, p, a, __ in batch])

            busy = [w for w in self.workers if w.busy]
            if not busy:
                if queue:  # everything is backing off; sleep it out
                    time.sleep(max(0.0, min(item[3] for item in queue) - now))
                    continue
                break  # pending>0 but no work anywhere: defensive exit

            # Wait for progress, bounded so timeouts stay responsive.
            timeout = 0.05
            if self.policy.cell_timeout is not None:
                deadlines = [w.last_progress + self.policy.cell_timeout
                             for w in busy]
                timeout = max(0.001, min(min(deadlines) - now, 0.05))
            ready_conns = _conn_wait([w.conn for w in busy],
                                     timeout=timeout)

            for worker in list(busy):
                if worker.conn not in ready_conns:
                    continue
                try:
                    while worker.conn.poll():
                        message = worker.conn.recv()
                        if message[0] == "cell":
                            __, key, status, value = message
                            worker.done.add(key)
                            worker.last_progress = time.monotonic()
                            item = next(i for i in worker.batch
                                        if i[0] == key)
                            if status == "ok":
                                outcomes[key].attempts = item[2] + 1
                                finalize(key, CellStatus.OK, value=value)
                            else:
                                strike(item, "error", error=value)
                        elif message[0] == "batch-done":
                            worker.batch = []
                            worker.done = set()
                except (EOFError, OSError):
                    # Worker crashed mid-batch: charge the in-flight
                    # cell, requeue the rest, replace the worker.
                    item = worker.in_flight()
                    rest = worker.unstarted()
                    self._replace(worker)
                    if item is not None:
                        strike(item, "crash",
                               error=f"worker process died running "
                                     f"{item[0]!r}")
                    requeue(rest)

            # Wall-clock supervision: kill silent workers.
            if self.policy.cell_timeout is not None:
                now = time.monotonic()
                for worker in [w for w in self.workers if w.busy]:
                    if now - worker.last_progress <= self.policy.cell_timeout:
                        continue
                    item = worker.in_flight()
                    rest = worker.unstarted()
                    self._replace(worker)
                    if item is not None:
                        strike(item, "timeout",
                               error=f"cell {item[0]!r} exceeded "
                                     f"{self.policy.cell_timeout}s "
                                     f"wall-clock budget")
                    requeue(rest)

            # Keep the fleet at strength.
            while len(self.workers) < min(self.jobs, max(1, pending)):
                self._spawn()

        return outcomes


def run_inline(worker_fn: Callable[[Any, int], Any],
               tasks: Sequence[Tuple[str, Any]],
               policy: Optional[FleetPolicy] = None,
               on_result: Optional[Callable[[CellOutcome], None]] = None
               ) -> Dict[str, CellOutcome]:
    """The jobs<=1 degenerate fleet: same contract, no processes.

    Exceptions are retried with the same deterministic backoff and
    reported as ``failed`` cells; crash/hang supervision needs a real
    worker process (use :class:`WorkerSupervisor` with ``jobs=1`` when
    ``cell_timeout`` matters more than process-free debugging).
    """
    policy = policy or FleetPolicy()
    outcomes: Dict[str, CellOutcome] = {}
    for key, payload in tasks:
        outcome = CellOutcome(key=key, status="pending")
        outcomes[key] = outcome
        for attempt in range(policy.retries + 1):
            outcome.attempts = attempt + 1
            try:
                value = worker_fn(payload, attempt)
            except Exception:
                outcome.strikes.append("error")
                outcome.error = traceback.format_exc()
                if attempt < policy.retries:
                    time.sleep(policy.backoff(key, attempt + 1))
                continue
            outcome.status = CellStatus.OK
            outcome.value = value
            break
        else:
            outcome.status = CellStatus.FAILED
        if on_result is not None:
            on_result(outcome)
    return outcomes
