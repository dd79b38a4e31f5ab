"""Socket-based remote worker fleet: leases, heartbeats, degraded mode.

The paper's deployment story is a *distributed* one - a production
fleet records failures, developer workstations replay them - and this
module is that split made real for the experiment matrix:

- :class:`RemoteCoordinator` is the workstation side, and the socket
  transport of :func:`~repro.corpus.fleet.dispatch`.  It listens on a
  TCP port, accepts worker connections (``repro fleet worker --connect
  HOST:PORT``), and leases tasks under **lease-based at-least-once
  semantics**: every leased task carries a deadline, worker heartbeats
  renew it, and an expired lease - crashed host, network partition,
  hung guest - is reported as a strike, which the dispatcher retries
  with the same deterministic :func:`~repro.corpus.fleet.retry_seed`
  backoff every transport gets.  At-least-once delivery means a
  re-leased task's original result can still arrive late (or a faulty
  link can deliver a result twice); the coordinator counts and drops
  results that match no lease, and the dispatcher finalizes each task
  exactly once, so stored rows - pure functions of (seed, model) - stay
  byte-identical regardless of delivery order.
- :func:`serve_worker` is the production-host side: a loop that
  connects, handshakes, runs leased cells (each in a budgeted thread so
  a hung guest is *abandoned*, not fatal to the worker), heartbeats
  while a cell runs, and streams results back in JSON frames
  (:mod:`repro.corpus.protocol`).  Each task ships its own recordings
  and verifies their attestation, so a damaged payload is quarantined
  per-cell exactly like a corrupted file.
- **Degraded mode**: a coordinator with no connected workers (none ever
  arrived, or every one died mid-sweep) for ``worker_wait`` seconds
  reports itself lost, and the dispatcher switches the tasks with no
  terminal outcome to its local fallback transport inside the same
  loop - finished tasks are never recomputed, and each task keeps its
  attempt count and strikes.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.corpus.fleet import Event, FleetPolicy, Item, Transport
from repro.corpus.protocol import (FrameReader, ProtocolError, abandon_frame,
                                   check_hello, decode_value, encode_frame,
                                   heartbeat_frame, hello_frame, recv_frame,
                                   reject_frame, result_frame, send_frame,
                                   stop_frame, task_frame)
from repro.harness.faults import FaultPlan

# Lease renewals are heartbeat-driven; the lease is the heartbeat-loss
# tolerance (partition detector), not the cell budget - a healthy slow
# cell heartbeats its lease alive, a hung guest is caught by the
# worker-side budget (abandon) and, failing that, by lease expiry.
DEFAULT_LEASE_SECONDS = 5.0
DEFAULT_WORKER_WAIT = 10.0
_POLL_SECONDS = 0.05


class _RemoteWorker:
    """Coordinator-side handle on one connected worker."""

    __slots__ = ("sock", "reader", "worker_id", "lease", "deadline")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = FrameReader()
        self.worker_id: Optional[str] = None  # set by the hello frame
        self.lease: Optional[Item] = None     # the task it owes
        self.deadline = 0.0                   # when that lease expires

    @property
    def ready(self) -> bool:
        """Handshaken and holding no lease."""
        return self.worker_id is not None and self.lease is None

    def send(self, frame: Dict[str, Any],
             timeout: float = 5.0) -> None:
        """Blocking send with a bound (reads stay non-blocking).

        Task frames carry whole recordings; ``sendall`` on the
        coordinator's non-blocking socket would raise the moment the
        kernel buffer filled, so sends flip to a bounded timeout.
        """
        self.sock.settimeout(timeout)
        try:
            send_frame(self.sock, frame)
        finally:
            self.sock.setblocking(False)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class RemoteCoordinator(Transport):
    """Lease tasks to socket-connected workers.

    Construct with a ``(host, port)`` listen address (port 0 binds an
    ephemeral port; read :attr:`address` for the real one) and hand it
    to :func:`~repro.corpus.fleet.dispatch` - ``run_matrix`` does, with
    its local transport as the fallback; workers persist across
    dispatches, and each dispatch waits ``worker_wait`` seconds for
    workers afresh.  ``faults`` (set by ``run_matrix`` when it injects
    faults) rides in every task frame, where the worker draws its
    network faults.  The coordinator is a context
    manager: leaving the block sends every connected worker a ``stop``
    frame and closes the listener.
    """

    def __init__(self, listen: Tuple[str, int] = ("127.0.0.1", 0),
                 worker_wait: float = DEFAULT_WORKER_WAIT,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS):
        self.faults: Optional[FaultPlan] = None
        self.worker_wait = worker_wait
        self.lease_seconds = lease_seconds
        self.workers: List[_RemoteWorker] = []
        self.stats: Dict[str, Any] = {
            "workers_seen": 0, "worker_disconnects": 0,
            "expired_leases": 0, "abandoned_cells": 0,
            "duplicate_results": 0, "degraded": False,
            "degraded_cells": 0,
        }
        self._last_worker_event = time.monotonic()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(listen)
        self._listener.listen(16)
        self._listener.setblocking(False)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers should connect to."""
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        """Stop every worker, close the listener (idempotent)."""
        workers, self.workers = self.workers, []
        for worker in workers:
            try:
                worker.send(stop_frame())
            except OSError:
                pass
            worker.close()
        try:
            self._listener.close()
        except OSError:
            pass

    # -- connection plumbing ------------------------------------------------

    def _accept_new(self) -> None:
        while True:
            try:
                sock, __ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.workers.append(_RemoteWorker(sock))

    def _drop(self, worker: _RemoteWorker) -> Optional[Item]:
        """Forget a dead/expired worker; returns its orphaned lease."""
        lease, worker.lease = worker.lease, None
        worker.close()
        if worker in self.workers:
            self.workers.remove(worker)
        if worker.worker_id is not None:
            self.stats["worker_disconnects"] += 1
        self._last_worker_event = time.monotonic()
        return lease

    # -- the transport ------------------------------------------------------

    @property
    def busy(self) -> bool:
        return any(worker.lease is not None for worker in self.workers)

    def lost(self, started: float, pending: int) -> bool:
        """No fleet, and none appearing: degrade ``pending`` tasks."""
        if self.workers or (time.monotonic()
                            - max(started, self._last_worker_event)
                            <= self.worker_wait):
            return False
        self.stats["degraded"] = True
        self.stats["degraded_cells"] += pending
        return True

    def take(self, ready: List[Item], policy: FleetPolicy) -> int:
        """Lease one ready task to each ready worker, in order."""
        taken = 0
        for worker in [w for w in self.workers if w.ready]:
            if taken == len(ready):
                break
            key, payload, attempt = ready[taken]
            frame = task_frame(key, payload, attempt,
                               lease_seconds=self.lease_seconds,
                               heartbeat_seconds=max(
                                   0.05, self.lease_seconds / 4.0),
                               budget=policy.cell_timeout,
                               faults=self.faults)
            try:
                worker.send(frame)
            except (OSError, ProtocolError):
                self._drop(worker)
                continue
            worker.lease = ready[taken]
            worker.deadline = time.monotonic() + self.lease_seconds
            taken += 1
        return taken

    def poll(self, policy: FleetPolicy) -> List[Event]:
        self._accept_new()
        # Wait for frames, bounded so leases/backoffs stay live.
        socks = [self._listener] + [w.sock for w in self.workers]
        try:
            readable, __, __ = select.select(socks, [], [], _POLL_SECONDS)
        except (OSError, ValueError):
            readable = []  # a socket died under us; next poll reaps
        events: List[Event] = []
        for worker in list(self.workers):
            if worker.sock not in readable:
                continue
            try:
                data = worker.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                data = b""
            if not data:
                # EOF: a tear inside a frame is a mid-frame drop;
                # either way the leased task is charged a crash.
                item = self._drop(worker)
                if item is not None:
                    events.append((item, "crash",
                                   f"remote worker disconnected "
                                   f"running {item[0]!r}"))
                continue
            worker.reader.feed(data)
            try:
                for frame in worker.reader:
                    self._handle(worker, frame, events)
            except ProtocolError as exc:
                item = self._drop(worker)
                if item is not None:
                    events.append((item, "crash",
                                   f"protocol violation running "
                                   f"{item[0]!r}: {exc}"))
        # Lease expiry: a silent worker is a partitioned worker.
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.lease is None or now <= worker.deadline:
                continue
            self.stats["expired_leases"] += 1
            item = self._drop(worker)
            events.append((item, "timeout",
                           f"lease on {item[0]!r} expired after "
                           f"{self.lease_seconds}s without a heartbeat "
                           f"(worker {worker.worker_id or '?'})"))
        return events

    def _handle(self, worker: _RemoteWorker, frame: Dict[str, Any],
                events: List[Event]) -> None:
        ftype = frame.get("type")
        if ftype == "hello":
            try:
                worker.worker_id = check_hello(frame)
            except ProtocolError as exc:
                try:
                    worker.send(reject_frame(str(exc)))
                except OSError:
                    pass
                self._drop(worker)
                return
            self.stats["workers_seen"] += 1
            self._last_worker_event = time.monotonic()
            return
        item = worker.lease
        if item is None or item[0] != frame.get("key"):
            if ftype == "result":
                # Late arrival after re-lease, or a duplicated delivery:
                # exactly one copy finalizes the task; drop the rest.
                self.stats["duplicate_results"] += 1
            return
        if ftype == "heartbeat":
            worker.deadline = time.monotonic() + self.lease_seconds
        elif ftype == "abandon":
            worker.lease = None
            self.stats["abandoned_cells"] += 1
            events.append((item, "timeout",
                           f"cell {item[0]!r} abandoned by worker "
                           f"{worker.worker_id}: "
                           f"{frame.get('reason', '')}"))
        elif ftype == "result":
            ok = frame.get("status") == "ok"
            # Decoded while the lease is still held: a malformed value
            # raises ProtocolError, which drops the worker and charges
            # the leased task a crash strike.
            detail = (decode_value(frame.get("value")) if ok
                      else frame.get("error", ""))
            worker.lease = None
            events.append((item, "ok" if ok else "error", detail))


# -- the worker service -------------------------------------------------------


def _run_leased_cell(sock: socket.socket, frame: Dict[str, Any],
                     worker_fn: Callable[[Any, int], Any]) -> bool:
    """Execute one leased cell; returns False when the connection must
    be abandoned (drop fault or send failure) so the caller reconnects.

    The cell runs in a daemon thread so a hung guest can be *abandoned*
    at its budget - the worker stays alive to serve the next lease, the
    zombie thread's eventual result is discarded, and the coordinator
    requeues the cell (fast path; lease expiry is the partition path).
    Heartbeats are sent from this thread between bounded joins, renewing
    the coordinator's lease only while the cell is genuinely live.
    """
    key = frame["key"]
    attempt = int(frame.get("attempt", 0))
    payload = decode_value(frame["payload"])
    budget = frame.get("budget")
    heartbeat = float(frame.get("heartbeat", 1.0))
    faults = decode_value(frame["faults"]) if "faults" in frame else None
    kind = faults.net_fault(key, attempt) if faults is not None else None
    if kind == "kill":
        # The fleet-host loss analogue: the process vanishes with the
        # lease held; no goodbye, no cleanup.
        os._exit(3)

    holder: Dict[str, Any] = {}

    def call() -> None:
        try:
            holder["value"] = worker_fn(payload, attempt)
            holder["status"] = "ok"
        except BaseException:
            holder["status"] = "error"
            holder["error"] = traceback.format_exc()

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    deadline = (time.monotonic() + float(budget)
                if budget is not None else None)
    while thread.is_alive():
        if deadline is not None and time.monotonic() > deadline:
            try:
                send_frame(sock, abandon_frame(
                    key, f"exceeded {budget}s cell budget"))
            except OSError:
                return False
            return True  # zombie thread abandoned; keep serving
        thread.join(heartbeat)
        if thread.is_alive():
            try:
                send_frame(sock, heartbeat_frame(key))
            except OSError:
                return False  # coordinator hung up mid-cell

    if kind == "stall":
        # Wedge silently past the lease: no heartbeats, then a late
        # result - which arrives after re-dispatch and must be deduped.
        time.sleep(float(frame.get("lease", DEFAULT_LEASE_SECONDS)) * 2.5)
    if holder["status"] == "ok":
        out = result_frame(key, "ok", value=holder.get("value"))
    else:
        out = result_frame(key, "error", error=holder.get("error", ""))
    data = encode_frame(out)
    try:
        if kind == "drop":
            # Mid-frame connection drop: half a frame, then hang up.
            sock.sendall(data[:max(1, len(data) // 2)])
            return False
        sock.sendall(data)
        if kind == "dup":
            sock.sendall(data)  # duplicate delivery
    except OSError:
        return False
    return True


def _serve_connection(sock: socket.socket,
                      worker_fn: Callable[[Any, int], Any],
                      worker_id: str,
                      should_depart: Optional[Callable[[], bool]] = None
                      ) -> str:
    """Serve one coordinator connection.

    Returns ``"stop"`` on a clean coordinator stop, ``"depart"`` when
    ``should_depart`` says this worker's shift is over, ``"dropped"``
    when the connection died and the caller should reconnect.
    """
    send_frame(sock, hello_frame(worker_id))
    while True:
        try:
            frame = recv_frame(sock)
        except (EOFError, ProtocolError, OSError):
            return "dropped"
        ftype = frame.get("type")
        if ftype in ("stop", "reject"):
            return "stop"
        if ftype != "task":
            continue  # future-proof: unknown frames are skipped
        if not _run_leased_cell(sock, frame, worker_fn):
            return "dropped"
        if should_depart is not None and should_depart():
            return "depart"


def serve_worker(host: str, port: int,
                 worker_fn: Optional[Callable[[Any, int], Any]] = None,
                 worker_id: Optional[str] = None,
                 reconnect_attempts: int = 10,
                 reconnect_delay: float = 0.5,
                 max_cells: Optional[int] = None) -> bool:
    """Run one remote worker until stopped (the ``repro fleet worker``
    service loop).

    Connects to the coordinator, serves leased cells, and *reconnects*
    after a dropped connection - only consecutive connection refusals
    count against ``reconnect_attempts`` (a coordinator that is gone
    for good).  ``worker_fn`` defaults to the matrix cell executor, so
    a bare ``repro fleet worker --connect HOST:PORT`` serves corpus
    sweeps.  ``max_cells`` bounds how many cells this worker serves
    before departing (the test harness's deterministic "host leaves
    mid-sweep" lever).  Returns True on a clean coordinator stop.
    """
    if worker_fn is None:
        from repro.corpus.matrix import _fleet_cell as worker_fn
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    served = 0

    def counting_fn(payload: Any, attempt: int) -> Any:
        nonlocal served
        value = worker_fn(payload, attempt)
        served += 1
        return value

    def shift_over() -> bool:
        return max_cells is not None and served >= max_cells

    refused = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            refused += 1
            if refused > reconnect_attempts:
                return False
            time.sleep(reconnect_delay)
            continue
        refused = 0
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            verdict = _serve_connection(sock, counting_fn, worker_id,
                                        should_depart=shift_over)
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if verdict == "stop":
            return True
        if verdict == "depart" or shift_over():
            return False  # this host's shift is over
        time.sleep(reconnect_delay)
