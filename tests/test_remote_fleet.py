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

from repro.corpus.fleet import (CellStatus, FleetPolicy, Inline,
                                WorkerSupervisor, dispatch)
from repro.corpus.protocol import (hello_frame, recv_frame, result_frame,
                                   send_frame)
from repro.corpus.remote import RemoteCoordinator, serve_worker
from repro.errors import ReproError

FAST = FleetPolicy(retries=2, backoff_base=0.001, backoff_cap=0.01)


def _double(payload, attempt):
    return payload * 2


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
    with RemoteCoordinator(worker_wait=0.1) as coord:
        with pytest.raises(ValueError, match="unique"):
            dispatch(coord, [("k", 1), ("k", 2)], FAST,
                     fallback=Inline(_double))


def test_empty_task_list_is_a_noop():
    with RemoteCoordinator(worker_wait=0.1) as coord:
        assert dispatch(coord, [], FAST) == {}
        assert coord.stats["degraded"] is False


# -- healthy fleet ------------------------------------------------------------


def test_healthy_run_over_two_workers():
    # Cells 0 and 1 wait until both workers hold one, so neither worker
    # can serve every cell before the other's hello is read.
    both_serving = threading.Barrier(2, timeout=10.0)

    def double_after_rendezvous(payload, attempt):
        if payload < 2:
            both_serving.wait()
        return payload * 2

    fired = []
    with RemoteCoordinator(worker_wait=10.0, lease_seconds=5.0) as coord:
        threads = _spawn_thread_workers(coord.address, 2,
                                        double_after_rendezvous)
        tasks = [(f"cell-{index}", index) for index in range(8)]
        outcomes = dispatch(coord, tasks, FAST,
                            on_result=lambda oc: fired.append(oc.key))
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
    with RemoteCoordinator(worker_wait=10.0) as coord:
        threads = _spawn_thread_workers(coord.address, 2, _double)
        first = dispatch(coord, [("a", 1), ("b", 2), ("c", 3)], FAST)
        second = dispatch(coord, [("d", 4), ("e", 5)], FAST)
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
    with RemoteCoordinator(worker_wait=10.0, lease_seconds=5.0) as coord:
        host, port = coord.address
        procs = [multiprocessing.Process(
            target=serve_worker, args=(host, port),
            kwargs=dict(worker_fn=_exit_on_first_attempt,
                        worker_id=f"p{index}"),
            daemon=True) for index in range(2)]
        for proc in procs:
            proc.start()
        outcomes = dispatch(coord, [("bomb", "bomb"), ("ok-1", "x"),
                                    ("ok-2", "y")], FAST)
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
    with RemoteCoordinator(worker_wait=10.0, lease_seconds=5.0) as coord:
        threads = _spawn_thread_workers(coord.address, 1,
                                        _hang_on_first_attempt)
        outcomes = dispatch(coord, [("tarpit", "tarpit"), ("after", "z")],
                            policy)
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
    with RemoteCoordinator(worker_wait=10.0, lease_seconds=0.3) as coord:
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
            outcomes = dispatch(coord, [("cell", 21)], policy)
        finally:
            stop.set()
    mute.join(timeout=5)
    for thread in honest:
        thread.join(timeout=5)
    assert outcomes["cell"].ok
    assert outcomes["cell"].value == 42
    assert "timeout" in outcomes["cell"].strikes
    assert coord.stats["expired_leases"] >= 1


@pytest.mark.parametrize("value", [
    {"$tuple": 5}, {"$faultplan": {"bogus": 1}}, {"$faultplan": [1]}])
def test_malformed_result_value_strikes_the_cell_and_run_completes(value):
    """A result whose value does not decode is a protocol violation: the
    sender is dropped, its leased cell charged a crash strike and
    retried elsewhere - the run does not end."""
    with RemoteCoordinator(worker_wait=10.0, lease_seconds=5.0) as coord:
        host, port = coord.address
        honest = []

        def malformed_worker():
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                send_frame(sock, hello_frame("malformed"))
                frame = recv_frame(sock)  # take the only lease
                honest.extend(_spawn_thread_workers(coord.address, 1,
                                                    _double))
                reply = result_frame(frame["key"], "ok")
                reply["value"] = value
                send_frame(sock, reply)
            finally:
                sock.close()

        thread = threading.Thread(target=malformed_worker, daemon=True)
        thread.start()
        # A cell left pending with no lease would spin dispatch forever;
        # bound it so that defect fails the test instead of hanging it.
        outcomes = {}
        runner = threading.Thread(
            target=lambda: outcomes.update(
                dispatch(coord, [("cell", 21)], FAST)),
            daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the run never finished"
    thread.join(timeout=5)
    for worker in honest:
        worker.join(timeout=5)
    assert outcomes["cell"].ok
    assert outcomes["cell"].value == 42
    assert outcomes["cell"].strikes == ["crash"]
    assert "protocol violation" in outcomes["cell"].error
    assert coord.stats["worker_disconnects"] >= 1


# -- at-least-once dedup ------------------------------------------------------


def test_duplicate_result_delivery_is_deduplicated():
    fired = []
    with RemoteCoordinator(worker_wait=10.0, lease_seconds=5.0) as coord:
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
        outcomes = dispatch(coord, [("a", 1), ("b", 2)], FAST,
                            on_result=lambda oc: fired.append(oc.key))
    thread.join(timeout=5)
    assert all(outcome.ok for outcome in outcomes.values())
    assert sorted(fired) == ["a", "b"]  # exactly once despite duplicates
    assert coord.stats["duplicate_results"] >= 1


def test_version_skew_is_rejected_and_run_continues():
    with RemoteCoordinator(worker_wait=10.0) as coord:
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
        outcomes = dispatch(coord, [("cell", 5)], FAST)
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
    with RemoteCoordinator(worker_wait=0.2) as coord:
        outcomes = dispatch(coord, [("a", 10), ("b", 20)], FAST,
                            on_result=lambda oc: fired.append(oc.key),
                            fallback=Inline(_double))
    assert outcomes["a"].value == 20
    assert outcomes["b"].value == 40
    assert sorted(fired) == ["a", "b"]
    assert coord.stats["degraded"] is True
    assert coord.stats["degraded_cells"] == 2


def test_degrade_without_fallback_is_a_structured_error():
    with RemoteCoordinator(worker_wait=0.1) as coord:
        with pytest.raises(ReproError, match="no local +fallback"):
            dispatch(coord, [("a", 1)], FAST)


def test_mid_sweep_fleet_loss_degrades_and_keeps_finished_cells():
    fired = []
    with RemoteCoordinator(worker_wait=0.3, lease_seconds=5.0) as coord:
        # One worker serves exactly one cell, then departs for good.
        threads = _spawn_thread_workers(coord.address, 1, _double,
                                        max_cells=1, reconnect_attempts=0)
        tasks = [(f"cell-{index}", index) for index in range(4)]
        outcomes = dispatch(coord, tasks, FAST,
                            on_result=lambda oc: fired.append(oc.key),
                            fallback=Inline(_double))
    for thread in threads:
        thread.join(timeout=5)
    assert all(outcomes[key].ok for key, __ in tasks)
    assert sorted(fired) == sorted(key for key, __ in tasks)
    assert coord.stats["degraded"] is True
    # At least one cell landed remotely, so the fallback got fewer than
    # the full task list - remote progress was not recomputed.
    assert coord.stats["degraded_cells"] < len(tasks)


def _log_attempt_and_die(path, attempt):
    """Append ``attempt pid`` to ``path``, then kill this process."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{attempt} {os.getpid()}\n")
    os._exit(3)


def test_degraded_mode_keeps_each_cells_retry_budget(tmp_path):
    """A cell struck remotely keeps its attempts and strikes when the
    dispatcher switches to the local fallback: three attempts in all
    under ``retries=2``, the remote crash among them."""
    path = tmp_path / "attempts.log"
    with RemoteCoordinator(worker_wait=1.0, lease_seconds=5.0) as coord:
        host, port = coord.address
        remote = multiprocessing.Process(
            target=serve_worker, args=(host, port),
            kwargs=dict(worker_fn=_log_attempt_and_die, worker_id="doomed",
                        reconnect_attempts=0), daemon=True)
        remote.start()
        with WorkerSupervisor(_log_attempt_and_die, jobs=1) as local:
            outcomes = dispatch(coord, [("cell", str(path))], FAST,
                                fallback=local)
    remote.join(timeout=5)
    lines = [line.split() for line in path.read_text().splitlines()]
    assert [attempt for attempt, __ in lines] == ["0", "1", "2"]
    assert lines[0][1] == str(remote.pid)  # the first crash was remote
    cell = outcomes["cell"]
    assert cell.status == CellStatus.QUARANTINED
    assert cell.attempts == 3
    assert cell.strikes == ["crash"] * 3
    assert coord.stats["degraded"] is True
    assert coord.stats["degraded_cells"] == 1


def test_close_is_idempotent_and_stops_workers():
    # Each cell waits until both workers hold one, so both workers are
    # connected - and owed a stop frame - when the run returns.
    both_serving = threading.Barrier(2, timeout=10.0)

    def rendezvous(payload, attempt):
        both_serving.wait()
        return payload * 2

    coord = RemoteCoordinator(worker_wait=10.0)
    threads = _spawn_thread_workers(coord.address, 2, rendezvous)
    outcomes = dispatch(coord, [("a", 1), ("b", 2)], FAST)
    assert outcomes["a"].ok and outcomes["b"].ok
    coord.close()
    coord.close()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()  # stop frames landed
