"""The run store's decoders refuse damaged bytes with a typed error.

Seeded mutations - a truncation, a bit flip, a splice of two objects,
appended garbage, deep nesting and a huge integer literal - are written
over a stored object and over one complete index line.  Whatever the
bytes, ``get_object``, ``get_row``, ``get_case``, ``stored_cells`` and
``entries`` answer, raise :class:`~repro.errors.ReproError`, or (for a
missing object) answer absent, and each call returns promptly.

Also pins the read rule: ``put_object`` stores exactly the canonical
encoding its address hashes, so every object it writes reads back
equal, a file holding the same value in other bytes is corrupt, and a
deleted object reads as absent.
"""

import hashlib
import json
import os
import pathlib
import time

import pytest

from repro.corpus import generate_case
from repro.errors import ReproError
from repro.models.session import DebugSession
from repro.store import RunStore, runstore
from repro.util.rng import DeterministicRng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "CORPUS_results.json"),
          encoding="utf-8") as _handle:
    CORPUS = json.load(_handle)

CODE = "code-hash"
SEEDS = range(6)
DRAWS = 15           # per mutation and target
PROMPT_S = 1.0       # a refusal must not wait on a pathological parse
REFUSED = object()   # what _call returns for a ReproError


def _rows(seeds=SEEDS):
    return [row for row in CORPUS["matrix"] if row["seed"] in seeds]


def _cases(seeds=SEEDS):
    return [case for case in CORPUS["cases"] if case["seed"] in seeds]


# -- mutations ----------------------------------------------------------------
# Each takes the bytes to damage, the bytes of a second object or line,
# and the stream; none returns the bytes it was given unless a draw
# happens to rebuild them (a splice at one point of two equal tails).


def truncate(data, other, rng):
    return data[:rng.randint(0, len(data) - 1)]


def bit_flip(data, other, rng):
    at = rng.randint(0, len(data) - 1)
    return (data[:at] + bytes([data[at] ^ (1 << rng.randint(0, 7))])
            + data[at + 1:])


def splice(data, other, rng):
    return data[:rng.randint(0, len(data))] + other[rng.randint(
        0, len(other)):]


def garbage(data, other, rng):
    return data + bytes(rng.randint(0, 255)
                        for __ in range(rng.randint(1, 32)))


def deep_nesting(data, other, rng):
    depth = rng.randint(1_000, 100_000)
    return data[:-1] + b',"deep":' + b"[" * depth + b"]" * depth + b"}"


def huge_integer(data, other, rng):
    return (data[:-1] + b',"seed":' + b"9" * rng.randint(1_000, 100_000)
            + b"}")


MUTATIONS = [truncate, bit_flip, splice, garbage, deep_nesting,
             huge_integer]


# -- fixtures -----------------------------------------------------------------


@pytest.fixture
def filled(tmp_path, monkeypatch):
    """A store holding seeds 0-1's rows and cases under ``CODE`` and
    one bucket exemplar; its index view is private to the test."""
    monkeypatch.setattr(runstore, "_VIEWS", {})
    store = RunStore(str(tmp_path / "store"))
    for row in _rows(range(2)):
        store.put_row(row["seed"], row["model"], CODE, row)
    for case in _cases(range(2)):
        store.put_case(case["seed"], CODE, case)
    store.put_bucket_member("bucket", failure=["quarantined", "error"],
                            cell="0:full", payload={"recording": "bytes"})
    return store


def _call(function, *args):
    """``function(*args)``, or REFUSED for a ReproError; anything else
    it raises fails the test, and so does a slow answer."""
    started = time.perf_counter()
    try:
        result = function(*args)
    except ReproError:
        result = REFUSED
    elapsed = time.perf_counter() - started
    assert elapsed < PROMPT_S, f"{function.__name__} took {elapsed:.2f} s"
    return result


def _read_everything(store):
    """Every read a sweep makes, each through ``_call``."""
    answers = [_call(store.entries), _call(store.stored_cells, CODE)]
    for row in _rows(range(2)):
        answers.append(_call(store.get_row, row["seed"], row["model"],
                             CODE))
    for seed in range(2):
        answers.append(_call(store.get_case, seed, CODE))
    return answers


# -- fuzz -----------------------------------------------------------------------


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_damaged_object_is_refused(filled, mutate):
    rng = DeterministicRng(7, f"object/{mutate.__name__}")
    row, case = _rows(range(1))[0], _cases(range(1))[0]
    targets = [(filled.put_object(row), row), (filled.put_object(case),
                                               case)]
    for draw in range(DRAWS):
        address, value = targets[draw % 2]
        path = pathlib.Path(filled._object_path(address))
        intact = path.read_bytes()
        other = pathlib.Path(filled._object_path(
            targets[1 - draw % 2][0])).read_bytes()
        damaged = mutate(intact, other, rng)
        path.write_bytes(damaged)
        read = (filled.get_row if value is row else filled.get_case)
        key = ((row["seed"], row["model"], CODE) if value is row
               else (case["seed"], CODE))
        # REFUSED equals only itself, and a value only its equal.
        expected = value if damaged == intact else REFUSED
        assert _call(filled.get_object, address) == expected, draw
        assert _call(read, *key) == expected, draw
        _read_everything(filled)
        path.write_bytes(intact)
        assert filled.get_object(address) == value


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_damaged_index_line_is_refused(filled, mutate, monkeypatch):
    rng = DeterministicRng(7, f"index/{mutate.__name__}")
    index = pathlib.Path(filled.index_path)
    lines = index.read_bytes().splitlines(keepends=True)
    for draw in range(DRAWS):
        at = rng.randint(0, len(lines) - 1)
        other = lines[rng.randint(0, len(lines) - 1)].rstrip(b"\n")
        damaged = mutate(lines[at].rstrip(b"\n"), other, rng)
        index.write_bytes(b"".join(lines[:at]) + damaged + b"\n"
                          + b"".join(lines[at + 1:]))
        monkeypatch.setattr(runstore, "_VIEWS", {})  # a fresh process
        _read_everything(RunStore(filled.root))
    index.write_bytes(b"".join(lines))
    monkeypatch.setattr(runstore, "_VIEWS", {})
    assert len(RunStore(filled.root).entries()) == len(lines)


@pytest.mark.parametrize("address", [
    7, ["a" * 64], "../" * 3 + "x", "A" * 64, "a" * 63],
    ids=["int", "list", "path", "upper-case", "short"])
def test_entry_address_must_be_a_content_address(filled, address):
    """An address is a file name: anything but a SHA-256 name is a
    corrupt line, not a TypeError or a path outside the store."""
    with open(filled.index_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"kind": "row", "seed": 9, "model": "full",
                                 "code_hash": CODE, "address": address})
                     + "\n")
    with pytest.raises(ReproError, match="corrupt store index line"):
        filled.stored_cells(CODE)


def test_missing_objects_read_as_absent(filled):
    for entry in filled.entries():
        if entry.get("address"):
            path = filled._object_path(entry["address"])
            if os.path.exists(path):
                os.unlink(path)
    assert filled.stored_cells(CODE) == {}
    assert _read_everything(filled)[2:] == [None] * (
        len(_rows(range(2))) + 2)
    with pytest.raises(ReproError, match="has no object"):
        filled.get_object(filled.entries()[0]["address"])


# -- the read rule --------------------------------------------------------------


def test_same_value_in_other_bytes_is_corrupt(filled):
    row = _rows(range(1))[0]
    address = filled.put_row(row["seed"], row["model"], CODE, row)
    path = pathlib.Path(filled._object_path(address))
    path.write_text(json.dumps(row, indent=1), encoding="utf-8")
    for read in (lambda: filled.get_object(address),
                 lambda: filled.get_row(row["seed"], row["model"], CODE)):
        with pytest.raises(ReproError, match="is corrupt"):
            read()


@pytest.mark.parametrize("data", [b"not json", b"[" * 100_000],
                         ids=["not-json", "deep-nesting"])
def test_bytes_named_by_their_own_hash_must_parse(filled, data):
    """A file placed under the hash of its own bytes passes the hash
    check; bytes no ``put_object`` could write are still corrupt."""
    address = hashlib.sha256(data).hexdigest()
    path = pathlib.Path(filled._object_path(address))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    with pytest.raises(ReproError, match="is corrupt: .* not JSON"):
        filled.get_object(address)


def test_every_object_put_writes_reads_back_equal(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    case = generate_case(0)
    session = DebugSession(case, "full", seed=case.failing_seed)
    session.record()
    payloads = _rows() + _cases() + [
        {"recording": session.ship()},  # an exemplar, as a sweep ships it
        {"text": "résumé ✓", "float": 0.1, "big": 2 ** 70,
         "nested": [[], {}, None, False]}]
    assert len(_rows()) == 30
    for payload in payloads:
        assert store.get_object(store.put_object(payload)) == payload
