"""The content-addressed run store and store-backed incremental reruns.

Pins the object plane's invariants (one address per content, atomic
idempotent writes, self-verifying reads), the index's journal idiom
(append-only, torn final line tolerated), the per-process index view
(every store and process sees each other's appends, a replaced,
truncated or rewritten index is re-parsed, reruns parse each line
once), the code hash over the whole package, gc's "never touch
referenced content" rule, the fleet's one-exemplar-per-bucket shipping
rule, and the acceptance criteria: a store-backed rerun recomputes zero
cells while producing an artifact byte-identical (modulo timing) to a
plain run, and a faulty sweep's quarantines land in dedupe buckets with
exactly one stored exemplar each.
"""

import copy
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

import repro
from repro.corpus.matrix import matrix_code_hash, run_matrix
from repro.errors import ReproError
from repro.harness.faults import FaultPlan
from repro.store import INDEX_NAME, RunStore, runstore
from repro.util import hashing
from repro.util.hashing import (canonical_json, content_address, sha256_hex,
                                source_tree_hash)

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


# -- hashing ------------------------------------------------------------------


def test_content_address_is_sha256_of_canonical_json():
    payload = {"b": 2, "a": [1, "x"]}
    assert canonical_json(payload) == '{"a":[1,"x"],"b":2}'
    assert content_address(payload) == sha256_hex(canonical_json(payload))
    # Key order and whitespace never change the address.
    assert content_address({"a": [1, "x"], "b": 2}) == \
        content_address(payload)


# -- object plane -------------------------------------------------------------


def test_object_round_trip(store):
    payload = {"rows": [1, 2, 3], "model": "full"}
    address = store.put_object(payload)
    assert store.has_object(address)
    assert store.get_object(address) == payload
    # Idempotent: re-putting identical content returns the same address
    # and leaves exactly one object on disk.
    assert store.put_object(dict(payload)) == address
    assert store.stats()["objects"] == 1


def test_corrupt_object_is_refused_not_returned(store):
    address = store.put_object({"value": 1})
    path = pathlib.Path(store._object_path(address))
    for text in ('{"value":2}',  # modified in place under its name
                 "[" * 100_000):  # nested past the recursion limit
        path.write_text(text)
        with pytest.raises(ReproError) as excinfo:
            store.get_object(address)
        assert "corrupt" in str(excinfo.value)


def test_missing_object_is_a_typed_error(store):
    with pytest.raises(ReproError):
        store.get_object("0" * 64)


# -- rows: the incremental-rerun key ------------------------------------------


def test_row_round_trip_keyed_by_seed_model_code_hash(store):
    row = {"seed": 3, "model": "full", "DF": 1.0}
    store.put_row(3, "full", "hash-a", row)
    assert store.get_row(3, "full", "hash-a") == row
    # A different code hash is a miss: the cell must rerun.
    assert store.get_row(3, "full", "hash-b") is None
    assert store.get_row(3, "value", "hash-a") is None
    assert store.stored_cells("hash-a") == {
        (3, "full"): content_address(row)}


def test_duplicate_row_put_appends_no_new_index_entry(store):
    row = {"seed": 0, "model": "full"}
    store.put_row(0, "full", "h", row)
    before = len(store.entries())
    store.put_row(0, "full", "h", row)
    assert len(store.entries()) == before


def test_torn_index_tail_is_tolerated_and_healed(store):
    store.put_row(0, "full", "h", {"seed": 0})
    index = pathlib.Path(store.root) / INDEX_NAME
    with open(index, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "row", "seed": 1, "mo')  # crash mid-append
    # The torn fragment is invisible to readers...
    assert len(store.entries()) == 1
    assert store.get_row(0, "full", "h") == {"seed": 0}
    # ...and the next append discards it instead of welding onto it.
    store.put_row(2, "full", "h", {"seed": 2})
    kinds = [entry["seed"] for entry in store.entries()]
    assert kinds == [0, 2]
    assert index.read_bytes().endswith(b"\n")


# -- the per-process index view -----------------------------------------------


def test_stores_on_one_directory_share_one_view(store):
    other = RunStore(os.path.join(store.root, ".", ""))
    store.put_row(0, "full", "h", {"seed": 0})
    assert other.get_row(0, "full", "h") == {"seed": 0}
    other.put_row(1, "full", "h", {"seed": 1})
    assert set(store.stored_cells("h")) == {(0, "full"), (1, "full")}
    assert store._index is other._index


def test_view_sees_another_process_append(store):
    store.put_row(0, "full", "h", {"seed": 0})
    assert store.get_row(1, "full", "h") is None
    script = ("import sys; from repro.store import RunStore; "
              "RunStore(sys.argv[1]).put_row(1, 'full', 'h', {'seed': 1})")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    subprocess.run([sys.executable, "-c", script, store.root], env=env,
                   check=True)
    assert store.get_row(1, "full", "h") == {"seed": 1}
    assert [entry["seed"] for entry in store.entries()] == [0, 1]


def test_replaced_index_is_reparsed(store):
    store.put_row(0, "full", "h", {"seed": 0})
    store.put_row(1, "full", "h", {"seed": 1})
    assert len(store.entries()) == 2
    index = pathlib.Path(store.index_path)
    first, second = index.read_bytes().splitlines(keepends=True)
    assert len(first) == len(second)
    # The new file still holds the last parsed line at the parsed
    # offset; only its inode tells the view the first line changed.
    replacement = index.with_name("index.new")
    replacement.write_bytes(second + second + first)
    os.replace(replacement, index)
    assert [entry["seed"] for entry in store.entries()] == [1, 1, 0]


def test_truncated_index_is_reparsed(store):
    for seed in range(3):
        store.put_row(seed, "full", "h", {"seed": seed})
    assert len(store.entries()) == 3
    index = pathlib.Path(store.index_path)
    first = index.read_bytes().splitlines(keepends=True)[0]
    with open(index, "r+b") as handle:  # same inode, shorter file
        handle.truncate(len(first))
    assert [entry["seed"] for entry in store.entries()] == [0]
    assert store.get_row(2, "full", "h") is None


def test_rewritten_last_line_is_reparsed(store):
    store.put_row(0, "full", "h", {"seed": 0})
    store.put_row(1, "full", "h", {"seed": 1})
    assert len(store.entries()) == 2
    index = pathlib.Path(store.index_path)
    first, second = index.read_bytes().splitlines(keepends=True)
    with open(index, "r+b") as handle:  # same inode, longer file
        handle.write(second + first + second)
    assert [entry["seed"] for entry in store.entries()] == [1, 0, 1]


def test_corrupt_non_final_line_raises(store, monkeypatch):
    store.put_row(0, "full", "h", {"seed": 0})
    index = pathlib.Path(store.index_path)
    good = index.read_bytes()
    index.write_bytes(good + b'{"kind": "row", "se\n' + good)
    for __ in range(2):  # the view stays refusing, not half-read
        with pytest.raises(ReproError, match="corrupt store index line 2"):
            store.get_row(0, "full", "h")
    monkeypatch.setattr(runstore, "_VIEWS", {})  # a fresh process
    with pytest.raises(ReproError, match="corrupt store index line 2"):
        RunStore(store.root).entries()


@pytest.mark.parametrize("line", [
    '{"kind": "row", "model": "full", "code_hash": "h"}',  # no seed
    '{"kind": "row", "seed": [0], "model": "full", "code_hash": "h"}',
    '{"kind": ["row"]}', '[1, 2]', '7',
    pytest.param("[" * 100_000, id="deep-nesting")])
def test_malformed_entry_is_a_corrupt_line(store, line):
    os.makedirs(store.root)
    with open(store.index_path, "w", encoding="utf-8") as handle:
        handle.write('{"kind": "case", "seed": 0, "code_hash": "h"}\n')
        handle.write(line + "\n")
    with pytest.raises(ReproError, match="corrupt store index line 2"):
        store.stored_cells("h")


def test_rerun_after_deleted_row_object_recomputes_that_cell(tmp_path):
    store_dir = str(tmp_path / "store")
    first = run_matrix([0], models=("full", "failure"), store=store_dir)
    store = RunStore(store_dir)
    code_hash = matrix_code_hash()
    gone = store.stored_cells(code_hash)[(0, "failure")]
    os.unlink(store._object_path(gone))
    assert store.get_row(0, "failure", code_hash) is None
    assert set(store.stored_cells(code_hash)) == {(0, "full")}
    second = run_matrix([0], models=("full", "failure"), store=store_dir)
    assert second["timing"]["store_hits"] == 1
    assert _comparable(second) == _comparable(first)
    assert store.has_object(gone), "the rerun restored the row's object"


def test_rerun_after_deleted_case_object_restores_it(tmp_path):
    store_dir = str(tmp_path / "store")
    first = run_matrix(SEEDS, models=MODELS, store=store_dir)
    store = RunStore(store_dir)
    code_hash = matrix_code_hash()
    gone = next(entry["address"] for entry in store.entries()
                if entry["kind"] == "case" and entry["seed"] == 0)
    os.unlink(store._object_path(gone))
    assert store.get_case(0, code_hash) is None
    second = run_matrix(SEEDS, models=MODELS, store=store_dir)
    # Every row is still a hit; seed 0's task only rebuilt its case.
    assert second["timing"]["store_hits"] == len(SEEDS) * len(MODELS)
    assert _comparable(second) == _comparable(first)
    assert store.has_object(gone), "the rerun restored the case object"


def test_fully_stored_rerun_reads_each_object_once(store_runs, monkeypatch):
    """A rerun whose every cell is stored opens and parses each object
    once, re-encodes nothing, and probes presence only for its rows."""
    __, ___, store_dir = store_runs
    calls = {"canonical_json": 0, "loads": 0, "has_object": 0}
    opened = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hashing, "canonical_json",
                        counted("canonical_json", hashing.canonical_json))
    monkeypatch.setattr(runstore, "canonical_json",
                        counted("canonical_json", runstore.canonical_json))
    monkeypatch.setattr(runstore, "json", types.SimpleNamespace(
        loads=counted("loads", json.loads), dumps=json.dumps))
    monkeypatch.setattr(RunStore, "has_object",
                        counted("has_object", RunStore.has_object))

    def opening(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(runstore, "open", opening, raising=False)
    results = run_matrix(SEEDS, models=MODELS, store=store_dir)
    cells = len(SEEDS) * len(MODELS)
    assert results["timing"]["store_hits"] == cells
    objects = cells + len(SEEDS)  # every row and every seed's case
    assert len(opened) == len(set(opened)) == objects
    assert calls == {"canonical_json": 0, "loads": objects,
                     "has_object": cells}, \
        "stored_cells probes each row; get_case probes nothing"


def test_object_paths_join_nothing(store, monkeypatch):
    address = store.put_object({"value": 1})
    expected = os.path.join(store.root, "objects", address[:2],
                            f"{address}.json")
    joins = []
    real_join = os.path.join

    def join(*parts):
        joins.append(parts)
        return real_join(*parts)

    monkeypatch.setattr(os.path, "join", join)
    assert store._object_path(address) == expected
    assert joins == []


def test_reruns_parse_each_index_line_once(tmp_path, monkeypatch):
    parsed = []
    decode = runstore._decode_entry

    def counted(line, number, path):
        parsed.append(line)
        return decode(line, number, path)

    monkeypatch.setattr(runstore, "_decode_entry", counted)
    store_dir = str(tmp_path / "store")
    for __ in range(10):
        results = run_matrix(SEEDS, models=MODELS, store=store_dir)
    assert results["timing"]["store_hits"] == len(SEEDS) * len(MODELS)
    lines = pathlib.Path(store_dir, INDEX_NAME).read_bytes().splitlines(
        keepends=True)
    assert sorted(parsed) == sorted(lines)


def test_gc_removes_only_unreferenced_objects(store):
    row = {"seed": 0, "model": "full"}
    live = store.put_row(0, "full", "h", row)
    dead = store.put_object({"scratch": True})  # no index entry
    report = store.gc()
    assert report == {"kept": 1, "removed": 1, "orphaned": 0}
    assert store.has_object(live)
    assert not store.has_object(dead)
    # A gc'd-away referenced object would count as orphaned, and its
    # row lookup degrades to a miss (the cell simply reruns).
    os.unlink(store._object_path(live))
    assert store.gc()["orphaned"] == 1
    assert store.get_row(0, "full", "h") is None


# -- buckets: one exemplar per bucket -----------------------------------------


def test_first_bucket_member_ships_the_exemplar_later_ones_do_not(store):
    address, shipped = store.put_bucket_member(
        "bucket-a", failure=["assert", "main@3"], fingerprint="fp",
        cell="0:full", payload={"recording": "the bytes"})
    assert shipped and address
    again, shipped_again = store.put_bucket_member(
        "bucket-a", failure=["assert", "main@3"], fingerprint="fp",
        cell="1:full", payload={"recording": "other bytes"})
    assert not shipped_again
    assert again == address, "every member points at the one exemplar"
    view = store.buckets()["bucket-a"]
    assert view.count == 2
    assert view.exemplar == address
    assert view.cells == ["0:full", "1:full"]
    assert store.get_object(address) == {"recording": "the bytes"}
    assert store.stats()["objects"] == 1, "second payload never stored"


def test_buckets_are_keyed_independently(store):
    store.put_bucket_member("bucket-a", cell="0:full",
                            payload={"a": 1})
    store.put_bucket_member("bucket-b", cell="0:value",
                            payload={"b": 2})
    views = store.buckets()
    assert set(views) == {"bucket-a", "bucket-b"}
    assert views["bucket-a"].exemplar != views["bucket-b"].exemplar


# -- store-backed matrix reruns -----------------------------------------------

SEEDS = [0, 1]
MODELS = ("full", "failure")


def _comparable(results):
    trimmed = copy.deepcopy(results)
    trimmed.pop("timing")  # wall clock + store accounting live here
    return trimmed


@pytest.fixture(scope="module")
def store_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("rerun")
    store_dir = str(root / "store")
    first = run_matrix(SEEDS, models=MODELS, store=store_dir)
    second = run_matrix(SEEDS, models=MODELS, store=store_dir)
    return first, second, store_dir


def test_rerun_recomputes_zero_cells(store_runs):
    first, second, __ = store_runs
    assert first["timing"]["store_hits"] == 0
    assert second["timing"]["store_hits"] == len(SEEDS) * len(MODELS)
    assert _comparable(first) == _comparable(second)


def test_store_backed_artifact_matches_plain_run(store_runs):
    """Attaching a store must not move a single byte outside timing."""
    first, __, ___ = store_runs
    plain = run_matrix(SEEDS, models=MODELS)
    assert "store_hits" not in plain["timing"]
    assert json.dumps(_comparable(plain), sort_keys=True) == \
        json.dumps(_comparable(first), sort_keys=True)


def test_code_hash_covers_every_module_of_the_package(tmp_path):
    copy_dir = tmp_path / "repro"
    shutil.copytree(PACKAGE_DIR, copy_dir,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert source_tree_hash(str(copy_dir)) == source_tree_hash(PACKAGE_DIR)
    deep = copy_dir / "vm" / "compiler" / "codegen.py"
    source = bytearray(deep.read_bytes())
    source[-1:] = b" " if source[-1:] != b" " else b"\n"
    deep.write_bytes(bytes(source))
    assert source_tree_hash(str(copy_dir)) != source_tree_hash(PACKAGE_DIR)


def test_code_hash_agrees_across_processes():
    script = ("from repro.corpus.matrix import matrix_code_hash; "
              "print(matrix_code_hash())")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    hashes = {subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True,
                             text=True).stdout.strip()
              for __ in range(2)}
    assert hashes == {matrix_code_hash()}


def test_code_hash_change_invalidates_stored_cells(store_runs):
    __, ___, store_dir = store_runs
    cells = RunStore(store_dir).stored_cells(matrix_code_hash())
    assert set(cells) == {(seed, model)
                          for seed in SEEDS for model in MODELS}
    assert RunStore(store_dir).stored_cells("some-other-code") == {}


# -- faulty sweeps: quarantines bucketed, one exemplar each -------------------

# Pinned plan: corruption strikes at least one payload across these
# cells and strikes=1 exhausts retries, so quarantines are guaranteed.
FAULTY_SEEDS = [0, 1, 2]
FAULT_PLAN = FaultPlan(seed=1, crash_rate=0.25, corrupt_rate=0.4,
                       strikes=1)


@pytest.fixture(scope="module")
def faulty(tmp_path_factory):
    store_dir = str(tmp_path_factory.mktemp("faulty") / "store")
    results = run_matrix(FAULTY_SEEDS, models=MODELS, jobs=2,
                         faults=FAULT_PLAN, store=store_dir)
    return results, RunStore(store_dir)


def test_faulty_sweep_buckets_its_quarantines(faulty):
    results, store = faulty
    fleet = results["fleet"]
    assert fleet["quarantined"], "plan must injure at least one cell"
    for entry in fleet["quarantined"]:
        assert entry["bucket"], "every quarantine names its bucket"
    buckets = fleet["buckets"]
    bucketed = [cell for view in buckets for cell in view["cells"]]
    assert sorted(bucketed) == \
        sorted(entry["cell"] for entry in fleet["quarantined"])
    for view in buckets:
        assert view["count"] == len(view["cells"])


def test_faulty_sweep_ships_one_exemplar_per_bucket(faulty):
    results, store = faulty
    for view in results["fleet"]["buckets"]:
        assert view["exemplar"], "store was attached: exemplar shipped"
        payload = store.get_object(view["exemplar"])
        assert "recording" in payload
    # The store holds exactly one exemplar object per bucket, no matter
    # how many members the bucket has.
    stored = store.buckets()
    assert len(stored) == len(results["fleet"]["buckets"])
    exemplars = {view.exemplar for view in stored.values()}
    assert len(exemplars) == len(stored)


def test_clean_sweep_report_has_no_bucket_section(store_runs):
    first, __, ___ = store_runs
    assert "buckets" not in first["fleet"], \
        "all-healthy artifact bytes never move"
