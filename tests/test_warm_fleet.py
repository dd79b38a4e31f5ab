"""The warm fleet: supervised sweeps in one process share their workers.

``run_matrix`` keeps one :class:`~repro.corpus.fleet.WorkerSupervisor`
per process.  These tests pin its contract: later sweeps reuse the
workers the first one forked and match an inline run; the fleet is
forked again when what a worker saw at fork moves (the worker function,
``jobs``, the model registry); no worker outlives an exception leaving
a sweep, interpreter exit, SIGTERM or its owner's SIGKILL; a worker
that died idle is replaced unstruck; a SIGTERM handler the program sets
is left alone; and a forked child never touches its parent's fleet.
The autouse ``close_warm_fleet`` fixture (``conftest.py``) reaps the
fleet after every test.
"""

import copy
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.corpus import matrix
from repro.corpus.matrix import run_matrix
from repro.models import get_model, register_model, unregister_model
from repro.store import RunStore

SEEDS = [0, 1]
MODELS = ("full", "failure")


def pids():
    """The warm fleet's worker pids, in fork order."""
    return [worker.process.pid for worker in matrix._fleet.workers]


def comparable(results):
    trimmed = copy.deepcopy(results)
    trimmed.pop("timing")
    trimmed["config"].pop("jobs")
    return trimmed


def alive(pid):
    """Whether ``pid`` runs; a zombie counts as gone (a worker orphaned
    by its owner's death is reaped only by whatever adopts it)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def wait_reaped(worker_pids):
    deadline = time.monotonic() + 10
    while any(alive(pid) for pid in worker_pids):
        assert time.monotonic() < deadline, \
            f"orphaned fleet workers: {[p for p in worker_pids if alive(p)]}"
        time.sleep(0.05)


def test_sweeps_in_one_process_share_the_warm_fleet():
    served = []
    for seeds in ([0, 1], [2, 3]):
        results = run_matrix(seeds, models=MODELS, jobs=2)
        served.append(pids())
        assert not any(worker.busy for worker in matrix._fleet.workers)
        assert comparable(results) == comparable(
            run_matrix(seeds, models=MODELS, jobs=1))
    assert len(served[0]) == 2 and served[1] == served[0]
    assert all(alive(pid) for pid in served[0])


def test_a_worker_that_died_idle_between_sweeps_is_replaced():
    first = run_matrix(SEEDS, models=MODELS, jobs=2)
    victim = matrix._fleet.workers[0].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    second = run_matrix(SEEDS, models=MODELS, jobs=2)
    assert victim.pid not in pids()
    assert second["fleet"]["retried"] == {}  # no strike: it held no task
    assert comparable(second) == comparable(first)


_untagged_cell = matrix._fleet_cell


def _tagged_cell(payload, attempt):
    return _untagged_cell(payload, attempt)


def test_the_fleet_is_reforked_when_what_a_worker_saw_moves(monkeypatch):
    def sweep(jobs=2):
        results = run_matrix(SEEDS, models=MODELS, jobs=jobs)
        assert results["matrix"] == reference["matrix"]
        return pids()

    reference = run_matrix(SEEDS, models=MODELS, jobs=1)
    served = [sweep()]
    assert sweep() == served[0]  # nothing moved: reused
    served.append(sweep(jobs=3))  # another jobs
    register_model(dataclasses.replace(get_model("full"), name="warm-toy",
                                       core=False))
    try:
        served.append(sweep(jobs=3))  # a model registered
    finally:
        unregister_model("warm-toy")
    served.append(sweep(jobs=3))  # and unregistered
    monkeypatch.setattr(matrix, "_fleet_cell", _tagged_cell)
    served.append(sweep(jobs=3))  # another worker function
    assert matrix._fleet.worker_fn is _tagged_cell
    every = [pid for fleet in served for pid in fleet]
    assert len(set(every)) == len(every), served
    wait_reaped([pid for fleet in served[:-1] for pid in fleet])


@pytest.mark.parametrize("raised", [RuntimeError, KeyboardInterrupt])
def test_an_exception_leaving_a_sweep_reaps_the_fleet(tmp_path, monkeypatch,
                                                      raised):
    seen = []

    def put_row(self, seed, model, code_hash, row):
        seen.extend(pids())
        raise raised("the store refused a row")

    monkeypatch.setattr(RunStore, "put_row", put_row)
    with pytest.raises(raised):
        run_matrix(SEEDS, models=MODELS, jobs=2,
                   store=str(tmp_path / "store"))
    assert seen and matrix._fleet is None
    assert not any(alive(pid) for pid in seen)


def test_concurrent_sweeps_take_turns_on_the_fleet():
    """Three threads sweeping at once never share the fleet's pipes:
    each sweep waits for the one using it, and every sweep matches its
    inline reference."""
    work = [(0, 1), (2, 3), (4, 5)]
    reference = {seeds: run_matrix(seeds, models=MODELS, jobs=1)["matrix"]
                 for seeds in work}
    swept = {seeds: [] for seeds in work}
    errors = []

    def sweeps(seeds):
        try:
            for __ in range(2):
                swept[seeds].append(
                    run_matrix(seeds, models=MODELS, jobs=2)["matrix"])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=sweeps, args=(seeds,), daemon=True)
               for seeds in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert swept == {seeds: [rows] * 2 for seeds, rows in reference.items()}


def test_a_sigterm_handler_set_between_sweeps_is_kept():
    """The fleet puts SIGTERM back only while the handler is still its
    own, so one the program installs after a sweep survives the re-fork
    and the close that follow."""
    previous = signal.getsignal(signal.SIGTERM)

    def handler(signum, frame):
        pass

    run_matrix(SEEDS, models=MODELS, jobs=2)
    signal.signal(signal.SIGTERM, handler)
    try:
        run_matrix(SEEDS, models=MODELS, jobs=3)  # closes the first fleet
        assert signal.getsignal(signal.SIGTERM) is handler
        matrix.close_fleet()
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


def _close_inherited_fleet():
    matrix.close_fleet()


def test_a_forked_child_leaves_the_parents_fleet_serving():
    run_matrix(SEEDS, models=MODELS, jobs=2)
    served = pids()
    child = multiprocessing.get_context("fork").Process(
        target=_close_inherited_fleet)
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    run_matrix([2, 3], models=MODELS, jobs=2)
    assert pids() == served and all(alive(pid) for pid in served)


SCRIPT = """\
import json, os, sys, time
from repro.corpus import matrix
matrix.run_matrix([0, 1], models=("full",), jobs=2)
pids = [worker.process.pid for worker in matrix._fleet.workers]
with open(sys.argv[1] + ".tmp", "w") as handle:
    json.dump(pids, handle)
os.replace(sys.argv[1] + ".tmp", sys.argv[1])
if sys.argv[2] != "exit":
    time.sleep(60)
"""


@pytest.mark.parametrize("ending", ["exit", "sigterm", "sigkill"])
def test_no_worker_outlives_its_process(tmp_path, ending):
    """A normal exit reaps the fleet at exit; SIGTERM while the fleet
    idles between sweeps exits 143 through the fleet's handler and
    reaps it too; after a SIGKILL, which runs no cleanup, each worker
    sees its parent gone and exits."""
    pid_file = tmp_path / "pids.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(pid_file), ending], env=env)
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() and proc.poll() is None:
            assert time.monotonic() < deadline, "the sweep never finished"
            time.sleep(0.05)
        worker_pids = json.loads(pid_file.read_text())
        assert len(worker_pids) == 2
        if ending == "sigterm":
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 143
        elif ending == "sigkill":
            proc.kill()
            assert proc.wait(timeout=30) == -signal.SIGKILL
        else:
            assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wait_reaped(worker_pids)
