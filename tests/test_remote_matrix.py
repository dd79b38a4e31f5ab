"""Remote-backend acceptance: the ISSUE's distributed criteria as tests.

A sweep over >= 2 real remote workers (``serve_worker`` processes over
real TCP sockets) with injected worker kills, mid-frame drops,
duplicate deliveries, and payload corruption completes, quarantines
exactly the injured cells, and produces matrix/summary/cases
byte-identical to a fault-free local run; killing every remote worker
mid-sweep degrades to the local supervisor and finishes with zero
stored cells recomputed; and a store written remotely resumes locally.
"""

import json
import multiprocessing

import pytest

from repro.corpus.fleet import FleetPolicy
from repro.corpus.matrix import run_matrix
from repro.corpus.remote import RemoteCoordinator, serve_worker
from repro.harness.faults import FaultPlan
from test_matrix_fleet import interrupt_and_resume

SEEDS = [0, 1, 2, 3]
MODELS = ("full", "failure")

# Pinned so the test asserts, not hopes: network faults draw on the task
# key (``seed:{s}``), and with these rates and seed the plan injects
# every *network* fault class at least once across SEEDS, kills strictly
# fewer workers than the fleet holds, and corrupts at least one payload
# (verified by test_plan_covers_every_net_fault_class below).
NET_PLAN = FaultPlan(seed=30, corrupt_rate=0.25, kill_rate=0.12,
                     drop_rate=0.18, stall_rate=0.12, dup_rate=0.2,
                     strikes=1)
N_WORKERS = 3  # > the kill count the pinned plan draws


def _net_kinds():
    kinds, kills = [], 0
    for seed in SEEDS:
        kind = NET_PLAN.net_fault_at(f"seed:{seed}")
        if kind:
            kinds.append(kind)
        if kind == "kill":
            kills += 1
    return kinds, kills


def _corrupted_cells():
    return {f"{seed}:{model}" for seed in SEEDS for model in MODELS
            if NET_PLAN.corrupts(f"payload:{seed}:{model}")}


def cells(rows):
    return {f'{r["seed"]}:{r["model"]}': r for r in rows}


@pytest.fixture(scope="module")
def clean():
    """The fault-free local reference sweep."""
    return run_matrix(SEEDS, models=MODELS, jobs=1)


def _start_fleet(address, count, **kwargs):
    host, port = address
    procs = [multiprocessing.Process(
        target=serve_worker, args=(host, port),
        kwargs=dict(worker_id=f"w{index}", **kwargs), daemon=True)
        for index in range(count)]
    for proc in procs:
        proc.start()
    return procs


def _reap(procs):
    for proc in procs:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)


def test_plan_covers_every_net_fault_class():
    kinds, kills = _net_kinds()
    assert set(kinds) == {"kill", "drop", "stall", "dup"}
    assert 0 < kills < N_WORKERS, \
        "the plan must kill workers but leave the fleet alive"
    assert _corrupted_cells(), "the plan must corrupt at least one payload"


def test_net_faults_are_seeded_and_strike_gated():
    assert [NET_PLAN.net_fault_at(f"seed:{s}") for s in SEEDS] == \
        [NET_PLAN.net_fault_at(f"seed:{s}") for s in SEEDS]
    # Attempts past the strike budget run clean, so retries converge.
    for seed in SEEDS:
        assert NET_PLAN.net_fault(f"seed:{seed}",
                                  NET_PLAN.strikes) is None


def test_healthy_remote_sweep_is_byte_identical_to_local(clean):
    with RemoteCoordinator(("127.0.0.1", 0), worker_wait=30.0,
                           lease_seconds=5.0) as coord:
        procs = _start_fleet(coord.address, 2)
        results = run_matrix(SEEDS, models=MODELS, coordinator=coord)
    _reap(procs)
    for section in ("matrix", "summary", "cases"):
        assert json.dumps(results[section], sort_keys=True) == \
            json.dumps(clean[section], sort_keys=True), section
    remote = results["fleet"]["remote"]
    assert remote["workers_seen"] == 2
    assert remote["degraded"] is False
    assert results["config"]["backend"] == "remote"
    # The local reference artifact carries no remote keys at all - the
    # committed CORPUS_results.json stays byte-stable.
    assert "remote" not in clean["fleet"]
    assert "backend" not in clean["config"]


def test_remote_sweep_under_full_fault_barrage(clean):
    """Kill + drop + stall + dup + payload corruption, all at once.

    The sweep completes; exactly the corrupted cells are quarantined;
    every healthy row is byte-identical to the fault-free local run;
    and the stats show the faults actually bit.
    """
    with RemoteCoordinator(("127.0.0.1", 0), worker_wait=30.0,
                           lease_seconds=1.0) as coord:
        procs = _start_fleet(coord.address, N_WORKERS)
        results = run_matrix(SEEDS, models=MODELS, coordinator=coord,
                             policy=FleetPolicy(cell_timeout=5.0,
                                                retries=3,
                                                backoff_base=0.01),
                             faults=NET_PLAN)
    _reap(procs)
    fleet = results["fleet"]
    # Network faults converged: nothing failed or timed out terminally.
    assert fleet["failed"] == [] and fleet["timeout"] == []
    # Exactly the corrupted payload cells are quarantined, each refused
    # with a structured error - attestation catches a bit-flip that
    # still parses, the format layer catches one that shredded the JSON.
    expected_bad = _corrupted_cells()
    assert {q["cell"] for q in fleet["quarantined"]} == expected_bad
    assert all(any(tag in q["error"] for tag in
                   ("LogAttestationError", "LogFormatError"))
               for q in fleet["quarantined"])
    # Healthy rows: present, complete, byte-identical.
    assert json.dumps(results["matrix"], sort_keys=True) == \
        json.dumps([r for r in clean["matrix"]
                    if f'{r["seed"]}:{r["model"]}' not in expected_bad],
                   sort_keys=True)
    # The faults visibly bit: killed/dropped workers disconnected, the
    # stalled worker expired its lease, the dup delivery was deduped.
    remote = fleet["remote"]
    assert remote["worker_disconnects"] >= 1
    assert remote["expired_leases"] >= 1
    assert remote["duplicate_results"] >= 1
    assert remote["degraded"] is False


def test_killing_every_worker_degrades_without_recomputation(clean,
                                                             tmp_path,
                                                             put_rows):
    """Every remote worker departs mid-sweep; the coordinator degrades
    to the local runner, the sweep finishes byte-identical, and each
    cell's row is stored exactly once - nothing recomputed."""
    with RemoteCoordinator(("127.0.0.1", 0), worker_wait=1.0,
                           lease_seconds=5.0) as coord:
        procs = _start_fleet(coord.address, 2, max_cells=1,
                             reconnect_attempts=0)
        results = run_matrix(SEEDS, models=MODELS, coordinator=coord,
                             store=str(tmp_path / "store"))
    _reap(procs)
    remote = results["fleet"]["remote"]
    assert remote["degraded"] is True
    assert remote["degraded_cells"] > 0
    assert remote["degraded_cells"] < len(SEEDS), \
        "some seeds landed remotely before the fleet died"
    for section in ("matrix", "summary", "cases"):
        assert json.dumps(results[section], sort_keys=True) == \
            json.dumps(clean[section], sort_keys=True), section
    assert sorted(put_rows) == sorted(
        (seed, model) for seed in SEEDS for model in MODELS), \
        "degrade must hand over only cells with no stored row"


def test_degraded_remote_run_resumes_only_the_missing_cells(clean,
                                                            tmp_path,
                                                            put_rows):
    """A remote sweep with no workers degrades to the local runner; cut
    its store's index after two rows and the rerun recomputes exactly
    the other cells.  Only the transport report (``fleet.remote``, which
    counts the degraded tasks) may differ between the two runs."""
    store_dir = str(tmp_path / "store")

    def degraded_run():
        with RemoteCoordinator(("127.0.0.1", 0),
                               worker_wait=0.2) as coord:
            results = run_matrix(SEEDS, models=MODELS,
                                 coordinator=coord, store=store_dir)
        assert results["fleet"].pop("remote")["degraded"] is True
        return results

    resumed = interrupt_and_resume(store_dir, put_rows, degraded_run)
    assert resumed["matrix"] == clean["matrix"]


def test_remote_journaled_run_resumes_locally(clean, tmp_path, put_rows):
    """A store written by a remote sweep resumes on the local backend
    with zero recomputation - the store is backend-agnostic."""
    store_dir = str(tmp_path / "store")
    with RemoteCoordinator(("127.0.0.1", 0), worker_wait=30.0,
                           lease_seconds=5.0) as coord:
        procs = _start_fleet(coord.address, 2)
        first = run_matrix(SEEDS, models=MODELS, coordinator=coord,
                           store=store_dir)
    _reap(procs)
    del put_rows[:]
    resumed = run_matrix(SEEDS, models=MODELS, jobs=1, store=store_dir)
    assert put_rows == []
    assert resumed["timing"]["store_hits"] == len(SEEDS) * len(MODELS)
    assert resumed["matrix"] == first["matrix"] == clean["matrix"]
