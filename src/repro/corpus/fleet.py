"""Fault-tolerant worker fleet: one dispatch loop, three transports.

The corpus matrix is this repo's own "production fleet": many workers
each evaluating (case x model) cells.  A fleet-scale runner cannot
assume every worker survives and every cell finishes - one hung cell
must not stall a 20-seed sweep, and one crashed worker must not kill
it.  The job splits in two:

- :func:`dispatch` is the one retry loop every backend runs.  It owns
  the queue, attempt counts and strikes, **bounded deterministic
  retry** - a struck task is retried up to ``retries`` times with
  exponential backoff whose delay (including jitter) is a pure function
  of ``(key, attempt)`` via :func:`retry_seed`, so reruns back off
  identically - and the exactly-once finalize: late and duplicate
  deliveries are dropped before ``on_result``.  A task that exhausts
  its retries is *reported* with a terminal status
  (:class:`CellStatus`), not raised - ``failed`` for a Python exception
  in the task, ``timeout`` for a wall-clock kill, ``quarantined`` for a
  task that keeps crashing the worker that runs it (it endangers the
  fleet, so it is set aside).  The sweep completes with a report.
- A :class:`Transport` only moves work.  :class:`Inline` runs tasks in
  the calling process; :class:`WorkerSupervisor` runs ``jobs``
  persistent, warm worker processes that consume *batches* of tasks
  over pipes, kills and replaces a worker that dies (broken pipe / dead
  process: a *crash* strike) or reports no progress for
  ``cell_timeout`` seconds (a *timeout* strike), and hands back the
  batch mates it never started; and
  :class:`~repro.corpus.remote.RemoteCoordinator` leases tasks to
  socket-connected hosts.  A transport that loses every worker makes
  :func:`dispatch` switch to its fallback transport inside the same
  loop, so attempts and strikes carry across the switch.

Transports are context managers; leaving the block (normally, on
``KeyboardInterrupt``, or on any raised exception) terminates and joins
every worker, so an aborted run never leaves orphan processes.  A
supervisor's workers outlive a dispatch: the corpus matrix keeps one
supervisor warm across every supervised sweep of a process
(:mod:`repro.corpus.matrix`), a worker that died while idle is
replaced unstruck, and a worker whose parent died exits on its own.

Workers call ``worker_fn(payload, attempt)`` - the attempt index makes
retries explicit to the task (the fault-injection harness keys on it),
while deterministic tasks simply ignore it.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process, parent_process
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

# One started task, ``(key, payload, attempt)``, and what a transport
# reports about it, ``(item, kind, detail)``.
Item = Tuple[str, Any, int]
Event = Tuple[Item, str, Any]


class CellStatus:
    """Terminal status of one supervised cell."""

    OK = "ok"                    # task completed and returned a value
    FAILED = "failed"            # task raised an exception every attempt
    TIMEOUT = "timeout"          # task exceeded the wall-clock budget
    QUARANTINED = "quarantined"  # task kept killing its worker (or its
    #                              payload was refused by attestation)


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


# -- the dispatcher -----------------------------------------------------------


class Transport:
    """What :func:`dispatch` drives: a backend that only moves work.

    - ``take(ready, policy)`` starts a prefix of ``ready`` (items in
      queue order) and returns how many it started;
    - ``poll(policy)`` waits briefly and returns events about started
      items: kind ``ok`` (detail: the value), a strike kind of
      ``error``/``timeout``/``crash`` (detail: the error text), or
      ``requeue`` for a batch mate that was never started;
    - :attr:`busy` is true while started items are still owed an event;
    - ``lost(started, pending)`` is true once the transport has had no
      worker since the monotonic time ``started`` for longer than it
      waits for one; ``pending`` items are then switched to the
      fallback.
    """

    busy = False

    def take(self, ready: List[Item], policy: FleetPolicy) -> int:
        raise NotImplementedError

    def poll(self, policy: FleetPolicy) -> List[Event]:
        raise NotImplementedError

    def lost(self, started: float, pending: int) -> bool:
        return False

    def close(self) -> None:
        """Release every worker (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def dispatch(transport: Transport, tasks: Sequence[Tuple[str, Any]],
             policy: FleetPolicy,
             on_result: Optional[Callable[[CellOutcome], None]] = None,
             fallback: Optional[Transport] = None
             ) -> Dict[str, CellOutcome]:
    """Run every (key, payload) task to a terminal status.

    Returns ``{key: CellOutcome}`` - every key terminal, in input order.
    ``on_result`` fires exactly once per task *as it finalizes* (the
    matrix stores each result there); an event for a task already
    terminal is a late or duplicate delivery and is dropped before it.
    Keys must be unique strings.  When ``transport`` reports it has
    lost every worker, the tasks still pending move to ``fallback`` in
    this same loop, keeping their attempts and strikes; with no
    fallback that is a :class:`~repro.errors.ReproError`.
    """
    keys = [key for key, __ in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("fleet task keys must be unique")
    outcomes = {key: CellOutcome(key=key, status="pending") for key in keys}
    queue: List[Item] = [(key, payload, 0) for key, payload in tasks]
    not_before: Dict[str, float] = {}  # key -> when its retry may start
    pending = len(queue)
    started = time.monotonic()
    while pending > 0:
        now = time.monotonic()
        ready = [item for item in queue if not_before.get(item[0], 0.0) <= now]
        taken = transport.take(ready, policy) if ready else 0
        for item in ready[:taken]:
            queue.remove(item)
        if not transport.busy:
            if transport.lost(started, pending):
                if fallback is None:
                    raise ReproError(
                        "the fleet has no connected workers and no local "
                        "fallback was configured")
                transport, fallback = fallback, None
                continue
            if taken == len(ready):
                if not queue:
                    break  # pending>0 but no work anywhere: defensive exit
                # Everything left is backing off; sleep it out.
                time.sleep(max(0.0, min(not_before[item[0]]
                                        for item in queue) - now))
                continue
        for item, kind, detail in transport.poll(policy):
            key, payload, attempt = item
            outcome = outcomes[key]
            if outcome.status != "pending":
                continue
            if kind == "requeue":  # never started: no strike
                queue.insert(0, item)
                continue
            outcome.attempts = attempt + 1
            if kind == "ok":
                outcome.status, outcome.value = CellStatus.OK, detail
            else:
                outcome.strikes.append(kind)
                outcome.error = detail or kind
                if attempt < policy.retries:
                    not_before[key] = (time.monotonic()
                                       + policy.backoff(key, attempt + 1))
                    queue.append((key, payload, attempt + 1))
                    continue
                outcome.status = _STRIKE_STATUS[kind]
            pending -= 1
            if on_result is not None:
                on_result(outcome)
    return outcomes


class Inline(Transport):
    """The process-free transport: each ``take`` runs one task in the
    calling process.

    Exceptions are ``error`` strikes, retried like any other; crash and
    hang supervision needs a real worker process (use
    :class:`WorkerSupervisor` with ``jobs=1`` when ``cell_timeout``
    matters more than process-free debugging).
    """

    def __init__(self, worker_fn: Callable[[Any, int], Any]):
        self.worker_fn = worker_fn
        self.events: List[Event] = []

    @property
    def busy(self) -> bool:
        return bool(self.events)

    def take(self, ready: List[Item], policy: FleetPolicy) -> int:
        item = ready[0]
        try:
            self.events.append((item, "ok",
                                self.worker_fn(item[1], item[2])))
        except Exception:
            self.events.append((item, "error", traceback.format_exc()))
        return 1

    def poll(self, policy: FleetPolicy) -> List[Event]:
        events, self.events = self.events, []
        return events


# -- the worker half ----------------------------------------------------------


def _worker_main(conn, worker_fn) -> None:
    """Long-lived worker: drain batches, stream per-cell results.

    Results are streamed cell by cell (not per batch) so the supervisor
    always knows *which* cell a dead or silent worker was running: the
    first cell of the current batch it has not reported yet.

    A worker also returns when its parent dies (SIGKILL, the OOM killer):
    the fork left it a copy of the parent's end of its pipe, so ``recv``
    alone would never see end-of-file.
    """
    # The supervisor owns shutdown; a terminal ^C must not race it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = parent_process().sentinel
    while True:
        if parent in _conn_wait([conn, parent]):
            return
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


class _Worker:
    """Supervisor-side handle on one worker process."""

    def __init__(self, worker_fn):
        self.conn, child = Pipe()
        self.process = Process(target=_worker_main, args=(child, worker_fn),
                               daemon=True)
        self.process.start()
        child.close()
        self.batch: List[Item] = []
        self.done: set = set()
        self.last_progress = time.monotonic()

    @property
    def busy(self) -> bool:
        """Owed a result: idle as soon as its whole batch has reported."""
        return len(self.done) < len(self.batch)

    def start(self, batch: List[Item]) -> None:
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


def _terminate(signum, frame):
    """The supervisor's SIGTERM handler: unwind as ``SystemExit``."""
    raise SystemExit(128 + signum)


class WorkerSupervisor(Transport):
    """The pipe transport: a supervised, persistent worker pool (see
    module docstring).

    Workers start only when there is work to take, and one supervisor
    can serve several dispatches on the same warm fleet (each may set
    :attr:`policy` before it calls :meth:`run`); workers are torn down
    when the ``with`` block exits.
    """

    def __init__(self, worker_fn: Callable[[Any, int], Any],
                 jobs: int = 2,
                 policy: Optional[FleetPolicy] = None):
        self.worker_fn = worker_fn
        self.jobs = max(1, jobs)
        self.policy = policy or FleetPolicy()
        self.workers: List[_Worker] = []
        self._prev_sigterm = None

    def run(self, tasks: Sequence[Tuple[str, Any]],
            on_result: Optional[Callable[[CellOutcome], None]] = None
            ) -> Dict[str, CellOutcome]:
        """:func:`dispatch` over this pool under its own policy (the
        entry point the benchmark suite's ledger wraps)."""
        return dispatch(self, tasks, self.policy, on_result)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "WorkerSupervisor":
        self._install_sigterm()
        return self

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
        signal.signal(signal.SIGTERM, _terminate)
        self._prev_sigterm = current

    def close(self) -> None:
        """Terminate and join every worker (idempotent).  The SIGTERM
        disposition is put back only if it is still the supervisor's: a
        handler installed since then stays."""
        workers, self.workers = self.workers, []
        for worker in workers:
            worker.stop()
        if self._prev_sigterm is not None:
            try:
                if signal.getsignal(signal.SIGTERM) is _terminate:
                    signal.signal(signal.SIGTERM, self._prev_sigterm)
            except (ValueError, OSError):
                pass
            self._prev_sigterm = None

    # -- the transport ------------------------------------------------------

    @property
    def busy(self) -> bool:
        return any(worker.busy for worker in self.workers)

    def take(self, ready: List[Item], policy: FleetPolicy) -> int:
        """Bring the fleet up to what the work needs (at most ``jobs``
        workers), then hand each idle worker a batch.

        A send that fails finds a worker that died while idle (between
        dispatches, say): it held no task, so it is dropped with no
        strike and the batch stays untaken, waiting in the queue
        unstruck for the replacement a later ``take`` forks.
        """
        in_flight = sum(1 for worker in self.workers if worker.busy)
        while len(self.workers) < min(self.jobs, in_flight + len(ready)):
            self.workers.append(_Worker(self.worker_fn))
        chunk = policy.chunk(len(ready), self.jobs)
        taken = 0
        for worker in list(self.workers):
            if taken < len(ready) and not worker.busy:
                try:
                    worker.start(ready[taken:taken + chunk])
                except OSError:
                    worker.kill()
                    self.workers.remove(worker)
                    continue
                taken = min(len(ready), taken + chunk)
        return taken

    def poll(self, policy: FleetPolicy) -> List[Event]:
        busy = [worker for worker in self.workers if worker.busy]
        # Wait for progress, bounded so timeouts stay responsive.
        timeout = 0.05
        if policy.cell_timeout is not None and busy:
            deadline = (min(worker.last_progress for worker in busy)
                        + policy.cell_timeout)
            timeout = max(0.001, min(deadline - time.monotonic(), timeout))
        readable = _conn_wait([worker.conn for worker in busy],
                              timeout=timeout)
        events: List[Event] = []
        for worker in busy:
            if worker.conn not in readable:
                continue
            try:
                while worker.conn.poll():
                    __, key, kind, detail = worker.conn.recv()
                    worker.done.add(key)
                    worker.last_progress = time.monotonic()
                    item = next(i for i in worker.batch if i[0] == key)
                    events.append((item, kind, detail))
            except (EOFError, OSError):
                events += self._lose(worker, "crash",
                                     "worker process died running {key!r}")
        # Wall-clock supervision: kill silent workers.
        if policy.cell_timeout is not None:
            now = time.monotonic()
            for worker in [w for w in self.workers if w.busy]:
                if now - worker.last_progress > policy.cell_timeout:
                    events += self._lose(
                        worker, "timeout",
                        f"cell {{key!r}} exceeded {policy.cell_timeout}s "
                        f"wall-clock budget")
        return events

    def _lose(self, worker: _Worker, kind: str, error: str) -> List[Event]:
        """Replace a dead or silent worker.

        Its in-flight item - the first of its batch with no streamed
        result - is charged a ``kind`` strike (``error`` names it as
        ``{key!r}``); the batch mates it never started are requeued.
        """
        owed = [item for item in worker.batch if item[0] not in worker.done]
        worker.kill()
        self.workers.remove(worker)
        if not owed:
            return []
        return ([(owed[0], kind, error.format(key=owed[0][0]))]
                + [(item, "requeue", None) for item in owed[1:]])
