"""Remote coordinator tests against toy workers.

The matrix-level acceptance runs live in ``test_remote_matrix.py``;
here the coordinator's lease/heartbeat/dedup machinery is exercised in
isolation with cheap worker functions - real ``serve_worker`` loops in
threads and processes for the honest paths, hand-rolled socket clients
for the adversarial ones (silent stalls, duplicate deliveries, version
skew) where the failure must be scripted exactly.
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.corpus.fleet import CellOutcome, CellStatus, FleetPolicy
from repro.corpus.protocol import (hello_frame, recv_frame, result_frame,
                                   send_frame)
from repro.corpus.remote import RemoteCoordinator, serve_worker
from repro.errors import ReproError

FAST = FleetPolicy(retries=2, backoff_base=0.001, backoff_cap=0.01)


def _double(payload, attempt):
    return payload * 2


def _inline_fallback(executor=_double):
    """A degraded-mode runner that executes cells in-process."""

    def fallback(tasks, on_result=None):
        outcomes = {}
        for key, payload in tasks:
            outcome = CellOutcome(key=key, status=CellStatus.OK,
                                  value=executor(payload, 0), attempts=1)
            outcomes[key] = outcome
            if on_result is not None:
                on_result(outcome)
        return outcomes

    return fallback


def _spawn_thread_workers(address, count, worker_fn, **kwargs):
    host, port = address
    threads = [threading.Thread(target=serve_worker, args=(host, port),
                                kwargs=dict(worker_fn=worker_fn,
                                            worker_id=f"t{index}",
                                            **kwargs),
                                daemon=True)
               for index in range(count)]
    for thread in threads:
        thread.start()
    return threads


# -- contract -----------------------------------------------------------------


def test_duplicate_task_keys_are_refused():
    with RemoteCoordinator(policy=FAST, worker_wait=0.1,
                           fallback=_inline_fallback()) as coord:
        with pytest.raises(ValueError, match="unique"):
            coord.run([("k", 1), ("k", 2)])


def test_empty_task_list_is_a_noop():
    with RemoteCoordinator(policy=FAST, worker_wait=0.1) as coord:
        assert coord.run([]) == {}
        assert coord.stats["degraded"] is False


# -- healthy fleet ------------------------------------------------------------


def test_healthy_run_over_two_workers():
    fired = []
    with RemoteCoordinator(policy=FAST, worker_wait=10.0,
                           lease_seconds=5.0) as coord:
        threads = _spawn_thread_workers(coord.address, 2, _double)
        tasks = [(f"cell-{index}", index) for index in range(8)]
        outcomes = coord.run(tasks, on_result=lambda oc: fired.append(oc.key))
    for thread in threads:
        thread.join(timeout=5)
    assert all(outcomes[key].ok for key, __ in tasks)
    assert {key: outcomes[key].value for key, __ in tasks} == {
        f"cell-{index}": index * 2 for index in range(8)}
    # on_result fired exactly once per cell, no strikes anywhere.
    assert sorted(fired) == sorted(key for key, __ in tasks)
    assert coord.stats["workers_seen"] == 2
    assert coord.stats["duplicate_results"] == 0
    assert coord.stats["expired_leases"] == 0
    assert coord.stats["degraded"] is False


def test_workers_persist_across_sequential_runs():
    with RemoteCoordinator(policy=FAST, worker_wait=10.0) as coord:
        threads = _spawn_thread_workers(coord.address, 2, _double)
        first = coord.run([("a", 1), ("b", 2), ("c", 3)])
        second = coord.run([("d", 4), ("e", 5)])
        assert all(outcome.ok for outcome in first.values())
        assert all(outcome.ok for outcome in second.values())
        # The same two connections served both phases.
        assert coord.stats["workers_seen"] == 2
        assert coord.stats["worker_disconnects"] == 0
    for thread in threads:
        thread.join(timeout=5)


# -- crash / hang recovery ----------------------------------------------------


def _exit_on_first_attempt(payload, attempt):
    if payload == "bomb" and attempt == 0:
        os._exit(3)  # the whole worker process vanishes, lease held
    return payload


def test_worker_process_death_strikes_crash_and_retries():
    with RemoteCoordinator(policy=FAST, worker_wait=10.0,
                           lease_seconds=5.0) as coord:
        host, port = coord.address
        procs = [multiprocessing.Process(
            target=serve_worker, args=(host, port),
            kwargs=dict(worker_fn=_exit_on_first_attempt,
                        worker_id=f"p{index}"),
            daemon=True) for index in range(2)]
        for proc in procs:
            proc.start()
        outcomes = coord.run([("bomb", "bomb"), ("ok-1", "x"),
                              ("ok-2", "y")])
    for proc in procs:
        proc.join(timeout=5)
        proc.terminate()
    assert outcomes["bomb"].ok
    assert outcomes["bomb"].value == "bomb"
    assert "crash" in outcomes["bomb"].strikes
    assert outcomes["bomb"].attempts == 2
    assert outcomes["ok-1"].ok and outcomes["ok-2"].ok
    assert coord.stats["worker_disconnects"] >= 1


def _hang_on_first_attempt(payload, attempt):
    if payload == "tarpit" and attempt == 0:
        time.sleep(3600)
    return payload


def test_hung_cell_is_abandoned_at_budget_and_worker_survives():
    policy = FleetPolicy(cell_timeout=0.2, retries=2,
                         backoff_base=0.001, backoff_cap=0.01)
    with RemoteCoordinator(policy=policy, worker_wait=10.0,
                           lease_seconds=5.0) as coord:
        threads = _spawn_thread_workers(coord.address, 1,
                                        _hang_on_first_attempt)
        outcomes = coord.run([("tarpit", "tarpit"), ("after", "z")])
    for thread in threads:
        thread.join(timeout=5)
    # The hung attempt was abandoned (not a dead worker), the retry ran
    # on the *same* surviving connection, and the next cell still ran.
    assert outcomes["tarpit"].ok
    assert "timeout" in outcomes["tarpit"].strikes
    assert outcomes["after"].ok
    assert coord.stats["abandoned_cells"] >= 1
    assert coord.stats["worker_disconnects"] == 0
    assert coord.stats["workers_seen"] == 1


def test_silent_worker_expires_its_lease():
    policy = FleetPolicy(retries=2, backoff_base=0.001, backoff_cap=0.01)
    with RemoteCoordinator(policy=policy, worker_wait=10.0,
                           lease_seconds=0.3) as coord:
        host, port = coord.address
        stop = threading.Event()
        honest = []

        def mute_worker():
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                send_frame(sock, hello_frame("mute"))
                recv_frame(sock)  # take the only lease...
                # An honest worker joins only now, so all it can serve
                # is the cell requeued when this lease expires.
                honest.extend(_spawn_thread_workers(coord.address, 1,
                                                    _double))
                stop.wait(10.0)   # ...then go silent: no heartbeats
            finally:
                sock.close()

        mute = threading.Thread(target=mute_worker, daemon=True)
        mute.start()
        try:
            outcomes = coord.run([("cell", 21)])
        finally:
            stop.set()
    mute.join(timeout=5)
    for thread in honest:
        thread.join(timeout=5)
    assert outcomes["cell"].ok
    assert outcomes["cell"].value == 42
    assert "timeout" in outcomes["cell"].strikes
    assert coord.stats["expired_leases"] >= 1


# -- at-least-once dedup ------------------------------------------------------


def test_duplicate_result_delivery_is_deduplicated():
    fired = []
    with RemoteCoordinator(policy=FAST, worker_wait=10.0,
                           lease_seconds=5.0) as coord:
        host, port = coord.address

        def duplicating_worker():
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                send_frame(sock, hello_frame("dup"))
                while True:
                    frame = recv_frame(sock)
                    if frame["type"] != "task":
                        return
                    reply = result_frame(frame["key"], "ok",
                                         value=frame["payload"])
                    send_frame(sock, reply)
                    send_frame(sock, reply)  # delivered twice
            except EOFError:
                pass
            finally:
                sock.close()

        thread = threading.Thread(target=duplicating_worker, daemon=True)
        thread.start()
        outcomes = coord.run([("a", 1), ("b", 2)],
                             on_result=lambda oc: fired.append(oc.key))
    thread.join(timeout=5)
    assert all(outcome.ok for outcome in outcomes.values())
    assert sorted(fired) == ["a", "b"]  # exactly once despite duplicates
    assert coord.stats["duplicate_results"] >= 1


def test_version_skew_is_rejected_and_run_continues():
    with RemoteCoordinator(policy=FAST, worker_wait=10.0) as coord:
        host, port = coord.address
        rejection = {}

        def ancient_worker():
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                hello = hello_frame("ancient")
                hello["protocol"] = 999
                send_frame(sock, hello)
                rejection.update(recv_frame(sock))
            finally:
                sock.close()

        thread = threading.Thread(target=ancient_worker, daemon=True)
        thread.start()
        honest = _spawn_thread_workers(coord.address, 1, _double)
        outcomes = coord.run([("cell", 5)])
    thread.join(timeout=5)
    for worker in honest:
        worker.join(timeout=5)
    assert outcomes["cell"].ok
    assert rejection["type"] == "reject"
    assert "version mismatch" in rejection["reason"]
    assert coord.stats["workers_seen"] == 1  # the skewed one never counted


# -- degraded mode ------------------------------------------------------------


def test_no_workers_degrades_to_local_fallback():
    fired = []
    with RemoteCoordinator(policy=FAST, worker_wait=0.2,
                           fallback=_inline_fallback()) as coord:
        outcomes = coord.run([("a", 10), ("b", 20)],
                             on_result=lambda oc: fired.append(oc.key))
    assert outcomes["a"].value == 20
    assert outcomes["b"].value == 40
    assert sorted(fired) == ["a", "b"]
    assert coord.stats["degraded"] is True
    assert coord.stats["degraded_cells"] == 2


def test_degraded_state_persists_to_later_phases():
    with RemoteCoordinator(policy=FAST, worker_wait=0.2,
                           fallback=_inline_fallback()) as coord:
        coord.run([("a", 1)])
        assert coord.stats["degraded"] is True
        started = time.monotonic()
        outcomes = coord.run([("b", 2)])
        elapsed = time.monotonic() - started
    assert outcomes["b"].ok
    assert coord.stats["degraded_cells"] == 2
    # The second phase went straight to the fallback - no fresh
    # worker_wait was burned rediscovering that the fleet is gone.
    assert elapsed < 0.15


def test_degrade_without_fallback_is_a_structured_error():
    with RemoteCoordinator(policy=FAST, worker_wait=0.1) as coord:
        with pytest.raises(ReproError, match="no local +fallback"):
            coord.run([("a", 1)])


def test_mid_sweep_fleet_loss_degrades_and_keeps_finished_cells():
    fired = []
    with RemoteCoordinator(policy=FAST, worker_wait=0.3,
                           lease_seconds=5.0,
                           fallback=_inline_fallback()) as coord:
        # One worker serves exactly one cell, then departs for good.
        threads = _spawn_thread_workers(coord.address, 1, _double,
                                        max_cells=1, reconnect_attempts=0)
        tasks = [(f"cell-{index}", index) for index in range(4)]
        outcomes = coord.run(tasks, on_result=lambda oc: fired.append(oc.key))
    for thread in threads:
        thread.join(timeout=5)
    assert all(outcomes[key].ok for key, __ in tasks)
    assert sorted(fired) == sorted(key for key, __ in tasks)
    assert coord.stats["degraded"] is True
    # At least one cell landed remotely, so the fallback got fewer than
    # the full task list - remote progress was not recomputed.
    assert coord.stats["degraded_cells"] < len(tasks)


def test_close_is_idempotent_and_stops_workers():
    # Each cell waits until both workers hold one, so both workers are
    # connected - and owed a stop frame - when the run returns.
    both_serving = threading.Barrier(2, timeout=10.0)

    def rendezvous(payload, attempt):
        both_serving.wait()
        return payload * 2

    coord = RemoteCoordinator(policy=FAST, worker_wait=10.0)
    threads = _spawn_thread_workers(coord.address, 2, rendezvous)
    outcomes = coord.run([("a", 1), ("b", 2)])
    assert outcomes["a"].ok and outcomes["b"].ok
    coord.close()
    coord.close()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()  # stop frames landed
