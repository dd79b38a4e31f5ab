"""Matrix acceptance under faults: the sweep completes, converges, and
resumes from its run store.

These are the ISSUE's acceptance criteria as tests: a sweep with
injected worker crashes, cell hangs, and payload corruption completes
with a report, quarantines only the injured cells, and produces healthy
rows byte-identical to a fault-free run; an interrupted sweep rerun on
the same store recomputes exactly the cells the store does not hold.
The store's append-only index is the run's journal.  Recomputation is
counted as ``RunStore.put_row`` calls (the ``put_rows`` fixture).
"""

import copy
import json
import os

import pytest

from repro.corpus import matrix
from repro.corpus.fleet import FleetPolicy
from repro.corpus.matrix import run_matrix
from repro.errors import ReproError
from repro.harness.faults import FaultPlan
from repro.store import INDEX_NAME, RunStore

SEEDS = [0, 1, 2]
MODELS = ("full", "failure")
ALL_CELLS = sorted((seed, model) for seed in SEEDS for model in MODELS)

# Pinned so the test asserts, not hopes: with these rates and seed, the
# plan injects every fault class at least once across SEEDS x MODELS
# (verified by test_plan_covers_every_fault_class below).
PLAN = FaultPlan(seed=1, crash_rate=0.25, hang_rate=0.2,
                 corrupt_rate=0.3, strikes=1, hang_seconds=30.0)
FAULTY_POLICY = FleetPolicy(cell_timeout=2.0, retries=2)


@pytest.fixture(scope="module")
def clean():
    """The fault-free reference sweep (jobs=2, supervised path)."""
    return run_matrix(SEEDS, models=MODELS, jobs=2)


def cells(rows):
    return {f'{r["seed"]}:{r["model"]}': r for r in rows}


def comparable(results):
    trimmed = copy.deepcopy(results)
    trimmed.pop("timing")  # wall clock + store accounting live here
    return trimmed


def cut_index_after_two_rows(store_dir):
    """Simulate a crash mid-append: keep the index through its second
    row entry, then half of the next line with no newline.  Returns the
    kept rows' cells."""
    path = os.path.join(store_dir, INDEX_NAME)
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    kept = []
    for count, line in enumerate(lines):
        entry = json.loads(line)
        if entry["kind"] == "row":
            kept.append((entry["seed"], entry["model"]))
            if len(kept) == 2:
                torn = lines[count + 1][:len(lines[count + 1]) // 2]
                with open(path, "wb") as handle:
                    handle.write(b"".join(lines[:count + 1]) + torn)
                return kept
    raise AssertionError("the index holds fewer than two rows")


def interrupt_and_resume(store_dir, put_rows, run):
    """Sweep, cut the index after two rows, sweep again; check the
    rerun recomputed exactly the cells that lost their row."""
    first = run()
    kept = cut_index_after_two_rows(store_dir)
    del put_rows[:]
    resumed = run()
    stored = {(row["seed"], row["model"]) for row in first["matrix"]}
    assert sorted(put_rows) == sorted(stored - set(kept))
    assert resumed["timing"]["store_hits"] == len(kept)
    assert comparable(resumed) == comparable(first)
    return resumed


def test_plan_covers_every_fault_class():
    kinds = set()
    for seed in SEEDS:
        for site in (f"record:{seed}", f"replay:{seed}"):
            kind = PLAN.fault_at(site)
            if kind in ("crash", "hang"):
                kinds.add(kind)
        for model in MODELS:
            if PLAN.corrupts(f"payload:{seed}:{model}"):
                kinds.add("corrupt")
    assert kinds == {"crash", "hang", "corrupt"}


def test_healthy_fleet_report_is_clean(clean):
    fleet = clean["fleet"]
    assert fleet["cells"] == len(SEEDS) * len(MODELS)
    assert fleet["ok"] == fleet["cells"]
    assert fleet["failed"] == fleet["timeout"] == []
    assert fleet["quarantined"] == [] and fleet["retried"] == {}
    assert fleet["resumed_cells"] == 0


def test_sweep_converges_under_injected_faults(clean):
    """Crashes and hangs retry clean (strikes < retries); corrupted
    payloads are refused by attestation and quarantined; every healthy
    row is byte-identical to the fault-free run."""
    results = run_matrix(SEEDS, models=MODELS, jobs=2, policy=FAULTY_POLICY,
                         faults=PLAN)
    fleet = results["fleet"]
    # Process faults converged: nothing failed or timed out terminally,
    # but the struck seeds show their retries.
    assert fleet["failed"] == [] and fleet["timeout"] == []
    assert fleet["retried"], "the plan injects at least one crash/hang"
    assert all(key.startswith("seed:") for key in fleet["retried"])
    # Exactly the corrupted payload cells are quarantined, each refused
    # by attestation with a structured error.
    expected_bad = {f"{s}:{m}" for s in SEEDS for m in MODELS
                    if PLAN.corrupts(f"payload:{s}:{m}")}
    assert {q["cell"] for q in fleet["quarantined"]} == expected_bad
    assert all("LogAttestationError" in q["error"]
               for q in fleet["quarantined"])
    # Healthy rows: present, complete, byte-identical.
    want = {k: r for k, r in cells(clean["matrix"]).items()
            if k not in expected_bad}
    assert cells(results["matrix"]) == want
    assert json.dumps(results["matrix"], sort_keys=True) == \
        json.dumps([r for r in clean["matrix"]
                    if f'{r["seed"]}:{r["model"]}' not in expected_bad],
                   sort_keys=True)


def test_journaled_run_resumes_with_zero_recomputation(clean, tmp_path,
                                                       put_rows):
    store_dir = str(tmp_path / "store")
    first = run_matrix(SEEDS, models=MODELS, jobs=2, store=store_dir)
    assert sorted(put_rows) == ALL_CELLS
    del put_rows[:]
    resumed = run_matrix(SEEDS, models=MODELS, jobs=2, store=store_dir)
    assert put_rows == [], "a fully stored sweep must recompute zero cells"
    assert resumed["matrix"] == first["matrix"] == clean["matrix"]
    assert resumed["summary"] == clean["summary"]
    assert resumed["timing"]["store_hits"] == len(ALL_CELLS)


def test_interrupted_run_resumes_only_the_missing_cells(clean, tmp_path,
                                                        put_rows):
    """Simulate a crash mid-sweep on the supervised fleet: keep an index
    prefix (with a torn final line), rerun, and check only the missing
    cells were recomputed and the artifact equals the uninterrupted
    one."""
    store_dir = str(tmp_path / "store")
    resumed = interrupt_and_resume(
        store_dir, put_rows,
        lambda: run_matrix(SEEDS, models=MODELS, jobs=2, store=store_dir))
    assert resumed["matrix"] == clean["matrix"]


def test_inline_path_still_works_with_journal(clean, tmp_path, put_rows):
    """jobs=1 (no worker processes) stores and resumes identically."""
    store_dir = str(tmp_path / "store")
    resumed = interrupt_and_resume(
        store_dir, put_rows,
        lambda: run_matrix(SEEDS, models=MODELS, jobs=1, store=store_dir))
    assert resumed["matrix"] == clean["matrix"]


def test_corrupt_mid_journal_raises_structured_error(tmp_path):
    store_dir = str(tmp_path / "store")
    run_matrix(SEEDS[:1], models=MODELS, store=store_dir)
    path = os.path.join(store_dir, INDEX_NAME)
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.write(lines[0] + b"NOT JSON\n" + b"".join(lines[2:]))
    with pytest.raises(ReproError) as excinfo:
        run_matrix(SEEDS[:1], models=MODELS, store=store_dir)
    assert "line 2" in str(excinfo.value)
    assert path in str(excinfo.value)


def test_torn_header_line_is_tolerated_on_load_and_reopen(clean,
                                                          tmp_path,
                                                          put_rows):
    """A run that died while writing the very first index line leaves
    only a torn fragment: the rerun ignores it, cuts it off instead of
    welding onto it, and stores every cell exactly once."""
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    path = store_dir / INDEX_NAME
    path.write_text('{"kind": "case", "seed": 0, "co')  # no newline
    resumed = run_matrix(SEEDS, models=MODELS, jobs=2,
                         store=str(store_dir))
    assert resumed["matrix"] == clean["matrix"]
    assert sorted(put_rows) == ALL_CELLS
    entries = [json.loads(line) for line in open(path)]
    assert entries[0]["kind"] == "case" and "code_hash" in entries[0]
    row_cells = [(entry["seed"], entry["model"]) for entry in entries
                 if entry["kind"] == "row"]
    assert sorted(row_cells) == ALL_CELLS


def test_matching_resume_is_not_refused(tmp_path, put_rows):
    """Identical seeds given in a different order or as a different
    sequence type are the same cells: all of them are store hits."""
    store_dir = str(tmp_path / "store")
    first = run_matrix(SEEDS, models=MODELS, jobs=1, store=store_dir)
    del put_rows[:]
    resumed = run_matrix(tuple(reversed(SEEDS)), models=list(MODELS),
                         jobs=1, store=store_dir)
    assert put_rows == []
    assert resumed["matrix"] == first["matrix"]


def test_wider_sweep_recomputes_only_the_new_seeds(clean, tmp_path,
                                                   put_rows):
    """The store reuses exactly the overlap of two different sweeps."""
    store_dir = str(tmp_path / "store")
    run_matrix(SEEDS[:2], models=MODELS, store=store_dir)
    del put_rows[:]
    wider = run_matrix(SEEDS, models=MODELS, store=store_dir)
    assert sorted(put_rows) == [(2, model) for model in sorted(MODELS)]
    for section in ("matrix", "summary", "cases"):
        assert wider[section] == clean[section], section


def test_rows_under_another_code_hash_are_all_recomputed(tmp_path,
                                                         monkeypatch,
                                                         put_rows):
    """A resume after a code edit must not serve the old code's rows."""
    store_dir = str(tmp_path / "store")
    with monkeypatch.context() as patch:
        patch.setattr(matrix, "matrix_code_hash", lambda: "older-code")
        stale = run_matrix(SEEDS[:1], models=MODELS, store=store_dir)
    del put_rows[:]
    fresh = run_matrix(SEEDS[:1], models=MODELS, store=store_dir)
    assert sorted(put_rows) == ALL_CELLS[:len(MODELS)]
    assert fresh["timing"]["store_hits"] == 0
    assert comparable(fresh) == comparable(stale)


def test_faulty_rerun_requarantines_identically(tmp_path, put_rows):
    """Quarantined cells are never stored, so a rerun retries them; the
    deterministic plan injures them again, identically, and the store
    lists each bucket member once."""
    store_dir = str(tmp_path / "store")
    first = run_matrix(SEEDS, models=MODELS, jobs=2, policy=FAULTY_POLICY,
                       faults=PLAN, store=store_dir)
    quarantined = {entry["cell"] for entry in first["fleet"]["quarantined"]}
    assert quarantined
    del put_rows[:]
    second = run_matrix(SEEDS, models=MODELS, jobs=2, policy=FAULTY_POLICY,
                        faults=PLAN, store=store_dir)
    assert put_rows == [], "healthy cells are store hits"
    assert second["timing"]["store_hits"] == \
        len(ALL_CELLS) - len(quarantined)
    assert second["fleet"]["quarantined"] == first["fleet"]["quarantined"]
    assert second["fleet"]["buckets"] == first["fleet"]["buckets"]
    assert second["matrix"] == first["matrix"]
    stored = RunStore(store_dir).buckets()
    assert sorted(cell for view in stored.values()
                  for cell in view.cells) == sorted(quarantined)
    for view in stored.values():
        assert view.count == len(set(view.cells)) == len(view.cells)
