"""Worker supervision: crashes, hangs, retries, and clean shutdown.

These tests drive :class:`~repro.corpus.fleet.WorkerSupervisor` with toy
worker functions that misbehave on demand - raising, killing their own
process (``os._exit``, the segfault/OOM analogue), or sleeping past the
wall-clock budget - and assert the supervisor converges every cell to a
terminal status without ever raising or leaking worker processes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.corpus.fleet import (CellStatus, FleetPolicy, Inline,
                                WorkerSupervisor, dispatch, retry_seed)
from repro.corpus.remote import RemoteCoordinator, serve_worker

# Fast backoff so retry tests stay sub-second.
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


def toy(payload, attempt):
    """Module-level worker fn (pickles by name): (kind, value)."""
    kind, value = payload
    if kind == "ok":
        return value * 2
    if kind == "boom":
        raise ValueError(f"boom {value}")
    if kind == "boom-once" and attempt == 0:
        raise ValueError("first attempt only")
    if kind == "crash" and attempt == 0:
        os._exit(3)
    if kind == "crash-always":
        os._exit(3)
    if kind == "hang" and attempt == 0:
        time.sleep(60)
    return value


def run_fleet(tasks, jobs=2, **policy):
    with WorkerSupervisor(toy, jobs=jobs,
                          policy=FleetPolicy(**dict(FAST, **policy))) as sup:
        return sup.run(tasks)


def test_healthy_cells_complete_with_values():
    tasks = [(f"t{i}", ("ok", i)) for i in range(7)]
    outcomes = run_fleet(tasks)
    assert set(outcomes) == {f"t{i}" for i in range(7)}
    for i in range(7):
        outcome = outcomes[f"t{i}"]
        assert outcome.status == CellStatus.OK and outcome.ok
        assert outcome.value == i * 2
        assert outcome.attempts == 1 and outcome.strikes == []


def test_raising_cell_is_failed_after_retry_budget():
    outcomes = run_fleet([("bad", ("boom", 1)), ("good", ("ok", 5))],
                         retries=2)
    bad = outcomes["bad"]
    assert bad.status == CellStatus.FAILED and not bad.ok
    assert bad.attempts == 3  # 1 + 2 retries
    assert bad.strikes == ["error"] * 3
    assert "boom 1" in bad.error
    assert outcomes["good"].ok  # the healthy cell is unaffected


def test_transient_error_recovers_on_retry():
    outcomes = run_fleet([("flaky", ("boom-once", 9))], retries=2)
    flaky = outcomes["flaky"]
    assert flaky.ok and flaky.value == 9
    assert flaky.attempts == 2 and flaky.strikes == ["error"]


def test_worker_crash_is_detected_and_cell_retried():
    """A worker dying mid-cell (the segfault analogue) must not kill the
    sweep: the cell is charged a crash strike and retried on a fresh
    worker, where it succeeds."""
    outcomes = run_fleet([("c", ("crash", 4)), ("h", ("ok", 1))],
                         retries=2)
    crashed = outcomes["c"]
    assert crashed.ok and crashed.value == 4
    assert crashed.attempts == 2 and crashed.strikes == ["crash"]
    assert outcomes["h"].ok


def test_cell_that_keeps_killing_workers_is_quarantined():
    outcomes = run_fleet([("k", ("crash-always", 0)), ("h", ("ok", 2))],
                         retries=1)
    killer = outcomes["k"]
    assert killer.status == CellStatus.QUARANTINED
    assert killer.attempts == 2 and killer.strikes == ["crash", "crash"]
    assert "died" in killer.error
    assert outcomes["h"].ok


def test_hung_cell_is_killed_at_the_wall_clock_budget():
    started = time.monotonic()
    outcomes = run_fleet([("slow", ("hang", 7)), ("h", ("ok", 3))],
                         jobs=2, cell_timeout=0.5, retries=1)
    elapsed = time.monotonic() - started
    slow = outcomes["slow"]
    assert slow.ok and slow.value == 7  # retry ran clean
    assert slow.strikes == ["timeout"]
    assert outcomes["h"].ok
    assert elapsed < 30, "the 60s sleep must have been killed, not waited"


def test_hung_cell_exhausting_retries_reports_timeout():
    plan = [("slow", ("hang", 0))]
    with WorkerSupervisor(hang_forever, jobs=1,
                          policy=FleetPolicy(cell_timeout=0.3, retries=1,
                                             **FAST)) as sup:
        outcomes = sup.run(plan)
    slow = outcomes["slow"]
    assert slow.status == CellStatus.TIMEOUT
    assert slow.strikes == ["timeout", "timeout"]
    assert "wall-clock" in slow.error


def hang_forever(payload, attempt):
    time.sleep(60)


def test_batch_survivors_are_requeued_after_a_crash():
    """Cells batched behind a crasher were never attempted; they must be
    requeued without a strike and still complete."""
    tasks = [("k", ("crash-always", 0))] + [
        (f"t{i}", ("ok", i)) for i in range(5)]
    # jobs=1 with one big batch forces every cell behind the crasher.
    outcomes = run_fleet(tasks, jobs=1, retries=1, batch_size=6)
    assert outcomes["k"].status == CellStatus.QUARANTINED
    for i in range(5):
        outcome = outcomes[f"t{i}"]
        assert outcome.ok and outcome.value == i * 2
        assert outcome.strikes == []


def test_context_exit_leaves_no_orphan_workers():
    with WorkerSupervisor(toy, jobs=3) as sup:
        sup.run([(f"t{i}", ("ok", i)) for i in range(6)])
        procs = [w.process for w in sup.workers]
        assert procs and all(p.is_alive() for p in procs)
    assert all(not p.is_alive() for p in procs)


def test_exception_inside_the_block_still_reaps_workers():
    procs = []
    with pytest.raises(KeyboardInterrupt):
        with WorkerSupervisor(toy, jobs=2) as sup:
            sup.run([("t", ("ok", 1))])
            procs = [w.process for w in sup.workers]
            raise KeyboardInterrupt
    assert procs and all(not p.is_alive() for p in procs)


def test_sigterm_unwinds_the_supervisor_and_reaps_workers(tmp_path):
    """A plain SIGTERM (systemd stop, container teardown) must tear the
    fleet down through ``__exit__``, not orphan it: the supervised
    process exits 143 (SystemExit from the installed handler, not a raw
    signal death) and its workers are gone."""
    pid_file = tmp_path / "pids.json"
    script = (
        "import json, os, sys, time\n"
        "from repro.corpus.fleet import WorkerSupervisor\n"
        "def fn(payload, attempt):\n"
        "    return payload\n"
        "with WorkerSupervisor(fn, jobs=2) as sup:\n"
        "    sup.run([('a', 1), ('b', 2), ('c', 3), ('d', 4)])\n"
        "    pids = [w.process.pid for w in sup.workers]\n"
        f"    open({str(pid_file)!r} + '.tmp', 'w').write(json.dumps(pids))\n"
        f"    os.replace({str(pid_file)!r} + '.tmp', {str(pid_file)!r})\n"
        "    time.sleep(60)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        worker_pids = json.loads(pid_file.read_text())
        assert worker_pids
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143  # SystemExit(128 + SIGTERM)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if all(not _alive(pid) for pid in worker_pids):
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned fleet workers: "
                         f"{[p for p in worker_pids if _alive(p)]}")


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def test_sigterm_handler_is_installed_then_restored():
    previous = signal.getsignal(signal.SIGTERM)
    assert previous in (signal.SIG_DFL, None), \
        "test expects the default disposition outside the supervisor"
    with WorkerSupervisor(toy, jobs=1) as sup:
        installed = signal.getsignal(signal.SIGTERM)
        assert installed not in (signal.SIG_DFL, None)
        with pytest.raises(SystemExit) as excinfo:
            installed(signal.SIGTERM, None)
        assert excinfo.value.code == 128 + signal.SIGTERM
        sup.run([("t", ("ok", 1))])  # the fleet still works under it
    assert signal.getsignal(signal.SIGTERM) is previous


def test_on_result_streams_outcomes_as_they_finalize():
    seen = []
    with WorkerSupervisor(toy, jobs=2,
                          policy=FleetPolicy(**FAST)) as sup:
        sup.run([(f"t{i}", ("ok", i)) for i in range(4)],
                on_result=seen.append)
    assert sorted(o.key for o in seen) == [f"t{i}" for i in range(4)]
    assert all(o.ok for o in seen)


def test_duplicate_keys_are_rejected():
    with WorkerSupervisor(toy, jobs=1) as sup:
        with pytest.raises(ValueError):
            sup.run([("t", ("ok", 1)), ("t", ("ok", 2))])


def test_no_tasks_start_no_workers():
    with WorkerSupervisor(toy, jobs=4) as sup:
        assert sup.run([]) == {}
        assert sup.workers == []


def test_no_worker_reads_busy_after_a_dispatch():
    """A worker is idle once its whole batch has reported, so the next
    dispatch on the same fleet can hand it work at once."""
    with WorkerSupervisor(toy, jobs=2, policy=FleetPolicy(**FAST)) as sup:
        for __ in range(10):
            sup.run([(f"t{i}", ("ok", i)) for i in range(4)])
            assert len(sup.workers) == 2
            assert not sup.busy
            assert not any(worker.busy for worker in sup.workers)


def test_worker_that_died_idle_is_replaced_unstruck():
    """A worker killed between two dispatches held no task: the next
    dispatch's send to it fails, and the batch waits unstruck for a
    replacement, so the second dispatch matches the first."""
    tasks = [(f"t{i}", ("ok", i)) for i in range(4)]
    with WorkerSupervisor(toy, jobs=2, policy=FleetPolicy(**FAST)) as sup:
        first = sup.run(tasks)
        victim = sup.workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)
        assert not victim.process.is_alive()
        second = sup.run(tasks)
        assert victim not in sup.workers
    assert {key: (o.status, o.value, o.attempts, o.strikes)
            for key, o in second.items()} == {
        key: (o.status, o.value, o.attempts, o.strikes)
        for key, o in first.items()}
    assert all(o.ok and o.strikes == [] for o in second.values())


# -- determinism of the retry machinery ---------------------------------------


def test_retry_seed_is_a_pure_function():
    assert retry_seed("record:3", 1) == retry_seed("record:3", 1)
    assert retry_seed("record:3", 1) != retry_seed("record:3", 2)
    assert retry_seed("record:3", 1) != retry_seed("record:4", 1)


def test_backoff_is_deterministic_exponential_and_capped():
    policy = FleetPolicy(backoff_base=0.05, backoff_cap=2.0)
    first = policy.backoff("cell", 1)
    assert first == policy.backoff("cell", 1)  # deterministic jitter
    assert 0.05 <= first < 0.075               # base * [1, 1.5)
    assert policy.backoff("cell", 2) > 0.05    # grows
    assert policy.backoff("cell", 30) <= 3.0   # capped (2.0 * 1.5 max)
    assert FleetPolicy(backoff_base=0.0).backoff("cell", 5) == 0.0


def test_backoff_cap_is_a_hard_ceiling_after_jitter():
    """The ``--max-backoff`` cap bounds the *final* delay - jitter can
    never push past it - and absurd attempt counts neither overflow nor
    stall computing the intermediate power."""
    policy = FleetPolicy(backoff_base=0.05, backoff_cap=1.5)
    for attempt in (1, 2, 6, 10, 64, 10 ** 6):
        assert policy.backoff("cell", attempt) <= 1.5
    assert policy.backoff("cell", 10 ** 6) == 1.5  # saturated exactly
    # The default cap keeps an exhausted cell's wait civilized.
    assert FleetPolicy().backoff_cap == 30.0
    assert FleetPolicy().backoff("cell", 100) <= 30.0


def test_chunk_sizes_batches_for_the_fleet():
    assert FleetPolicy(batch_size=4).chunk(100, 2) == 4
    assert FleetPolicy().chunk(20, 2) == 5   # ~2 batches per worker
    assert FleetPolicy().chunk(1, 8) == 1
    assert FleetPolicy().chunk(0, 2) == 1


# -- one dispatch contract, three transports ---------------------------------


@pytest.mark.parametrize("backend", ["inline", "pipes", "sockets"])
def test_every_transport_keeps_the_dispatch_contract(backend):
    threads = []
    if backend == "inline":
        transport = Inline(toy)
    elif backend == "pipes":
        transport = WorkerSupervisor(toy, jobs=2)
    else:
        transport = RemoteCoordinator(worker_wait=10.0)
        threads = [threading.Thread(
            target=serve_worker, args=transport.address,
            kwargs=dict(worker_fn=toy, worker_id=f"t{index}"), daemon=True)
            for index in range(2)]
        for thread in threads:
            thread.start()
    policy = FleetPolicy(retries=1, **FAST)
    with transport:
        with pytest.raises(ValueError, match="unique"):
            dispatch(transport, [("t", ("ok", 1)), ("t", ("ok", 2))],
                     policy)
        outcomes = dispatch(transport, [("a", ("ok", 3)), ("b", ("boom", 0)),
                                        ("c", ("boom-once", 8))], policy)
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert {key: (o.status, o.value, o.attempts, o.strikes)
            for key, o in outcomes.items()} == {
        "a": (CellStatus.OK, 6, 1, []),
        "b": (CellStatus.FAILED, None, 2, ["error", "error"]),
        "c": (CellStatus.OK, 8, 2, ["error"]),
    }
    assert "boom 0" in outcomes["b"].error
