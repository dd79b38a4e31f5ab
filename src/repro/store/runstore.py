"""Content-addressed run store: dedupe for a fleet's recordings and rows.

A debugging fleet produces millions of recordings and result rows, and
most of them say the same thing.  The store gives every artifact one
name - the SHA-256 of its canonical JSON encoding, the same hashing
attestation stamps use (:mod:`repro.util.hashing`) - so identical
artifacts occupy one object no matter how many sweeps produce them,
and a rerun can prove "I already have this" by address alone.

Layout of a store directory::

    objects/<aa>/<sha256>.json   one object per content address
    index.jsonl                  append-only index (crash-tolerant)

The object plane is immutable and self-verifying: an object's file name
*is* its hash, so ``get`` recomputes the address on read and refuses a
corrupted object instead of returning silently wrong bytes.  Writes are
atomic (temp file + rename) and idempotent - re-putting existing
content is a no-op that costs one hash.

The index is the mutable-world view over the immutable objects: JSONL,
append + flush per entry, torn final line ignored on load.  It is also
a corpus sweep's only record of finished work - resuming an
interrupted sweep means rerunning it on the same store.  Four entry
kinds:

``row``       one matrix cell's metric row, keyed by
              ``(seed, model, code_hash)`` - the incremental-rerun
              lookup: a sweep skips any cell whose key is already
              stored under the current code hash.
``case``      one seed's case provenance, keyed by ``(seed, code_hash)``.
``bucket``    one quarantined/failed recording's membership in a dedupe
              bucket, keyed by ``(failure, fingerprint)`` - the failure
              signature and divergence/quarantine fingerprint from
              :mod:`repro.replay.diff`.
``exemplar``  the one recording payload the fleet ships per bucket;
              every later member of the bucket is counted, not stored.

Each process parses an index once: every :class:`RunStore` on the same
directory shares one :class:`IndexView`, which on each access stats
``index.jsonl`` and parses only the complete lines appended since its
last access.  That relies on the index being append-only; a file that
was replaced, truncated, or rewritten under the last parsed line is
re-parsed from byte 0.

``gc`` deletes unreferenced objects (and reports orphaned index
entries); it never touches referenced content.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.util.hashing import canonical_json, content_address, sha256_hex

OBJECTS_DIR = "objects"
INDEX_NAME = "index.jsonl"
STORE_VERSION = 1

# Keys (int or str values) an index entry of each kind must carry.
_ENTRY_KEYS = {"row": ("seed", "model", "code_hash"),
               "case": ("seed", "code_hash"),
               "bucket": ("bucket",), "exemplar": ("bucket",)}


@dataclass
class BucketView:
    """One dedupe bucket, as reconstructed from the index."""

    bucket: str
    count: int = 0
    exemplar: Optional[str] = None      # content address of the payload
    failure: Optional[List[Any]] = None  # failure signature (first seen)
    cells: List[Any] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"bucket": self.bucket, "count": self.count,
                "exemplar": self.exemplar, "failure": self.failure,
                "cells": list(self.cells)}


def _decode_entry(line: bytes, number: int, path: str) -> Dict[str, Any]:
    """One complete index line as an entry; corrupt lines are refused."""
    try:
        entry = json.loads(line)
        keys = _ENTRY_KEYS.get(entry.get("kind"), ())
        if all(isinstance(entry.get(key), (int, str)) for key in keys):
            return entry
    except (ValueError, AttributeError, TypeError):
        pass  # not JSON, not an object, or an unhashable kind
    raise ReproError(f"corrupt store index line {number} in {path!r}")


class IndexView:
    """One store directory's parsed index, shared within a process.

    Holds every entry in file order plus the lookups the store serves,
    where the latest entry for a key wins: rows by code hash and
    ``(seed, model)``, case provenance by code hash and seed, and dedupe
    buckets by name.  ``refresh`` brings it up to date with the file.
    """

    def __init__(self, path: str):
        self.path = path
        self._reset(None)

    def _reset(self, identity: Optional[Tuple[int, int]]) -> None:
        self.identity = identity  # (st_dev, st_ino) of the parsed file
        self.offset = 0           # end of the last complete line parsed
        self.last_line = b""      # that line, newline included
        self.lines = 0
        self.entries: List[Dict[str, Any]] = []
        self.rows: Dict[str, Dict[Tuple[Any, Any], Optional[str]]] = {}
        self.cases: Dict[str, Dict[Any, Optional[str]]] = {}
        self.buckets: Dict[str, BucketView] = {}

    def refresh(self) -> "IndexView":
        """Parse the complete lines appended since the last access.

        Starts over from byte 0 when the file is a different one (new
        inode), shrank below the parsed offset, or no longer holds the
        last parsed line just before that offset.  A final line without
        its newline is an append still in flight, or torn by a crash:
        it stays unparsed.
        """
        try:
            status = os.stat(self.path)
        except FileNotFoundError:
            self._reset(None)
            return self
        identity = (status.st_dev, status.st_ino)
        if identity != self.identity or status.st_size < self.offset:
            self._reset(identity)
        if status.st_size == self.offset:
            return self
        tail = self._read_from(self.offset - len(self.last_line))
        if not tail.startswith(self.last_line):
            self._reset(identity)
            tail = self._read_from(0)
        self.parse(tail[len(self.last_line):])
        return self

    def _read_from(self, position: int) -> bytes:
        with open(self.path, "rb") as handle:
            handle.seek(position)
            return handle.read()

    def parse(self, data: bytes) -> None:
        """Index the complete lines of ``data``, which starts at the
        parsed offset."""
        start = 0
        while True:
            end = data.find(b"\n", start) + 1
            if not end:
                return
            line = data[start:end]
            if line.strip():
                self._add(_decode_entry(line, self.lines + 1, self.path))
            self.lines += 1
            self.offset += end - start
            self.last_line = line
            start = end

    def _add(self, entry: Dict[str, Any]) -> None:
        self.entries.append(entry)
        kind = entry.get("kind")
        address = entry.get("address") or None
        if kind == "row":
            self.rows.setdefault(entry["code_hash"], {})[
                (entry["seed"], entry["model"])] = address
        elif kind == "case":
            self.cases.setdefault(entry["code_hash"], {})[
                entry["seed"]] = address
        elif kind in ("bucket", "exemplar"):
            view = self.buckets.setdefault(
                entry["bucket"], BucketView(bucket=entry["bucket"]))
            if kind == "bucket":
                view.count += 1
                if view.failure is None and entry.get("failure"):
                    view.failure = entry["failure"]
                if entry.get("cell") is not None:
                    view.cells.append(entry["cell"])
            elif view.exemplar is None:
                view.exemplar = address


# One view per index file in this process, by absolute path.
_VIEWS: Dict[str, IndexView] = {}


class RunStore:
    """One content-addressed store directory."""

    def __init__(self, root: str):
        self.root = root
        self.objects_dir = os.path.join(root, OBJECTS_DIR)
        self.index_path = os.path.join(root, INDEX_NAME)
        key = os.path.abspath(self.index_path)
        self._index = _VIEWS.get(key)
        if self._index is None:
            self._index = _VIEWS[key] = IndexView(key)

    # -- object plane --------------------------------------------------------

    def _object_path(self, address: str) -> str:
        return os.path.join(self.objects_dir, address[:2],
                            f"{address}.json")

    def put_object(self, payload: Any) -> str:
        """Store a JSON-able payload; returns its content address.

        Idempotent: content that already exists is not rewritten.  The
        write is atomic (temp + rename) so a crash can never leave a
        half-object under a valid address.
        """
        text = canonical_json(payload)  # the bytes hashed are the bytes stored
        address = sha256_hex(text)
        path = self._object_path(address)
        if os.path.exists(path):
            return address
        directory = os.path.dirname(path)
        try:
            handle, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
            handle, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as out:
                out.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return address

    def get_object(self, address: str) -> Any:
        """Load an object by address, verifying its content on read."""
        try:
            with open(self._object_path(address), "rb") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise ReproError(
                f"store {self.root!r} has no object {address[:12]}…; "
                f"was it gc'd, or is the address from another store?"
            ) from None
        except ValueError:
            payload = found = None  # not JSON: hashes to no address
        else:
            found = content_address(payload)
        if found != address:
            raise ReproError(
                f"store object {address[:12]}… is corrupt: content "
                f"re-hashes to {str(found)[:12]}… - the file was "
                f"modified in place; delete it and re-run the sweep")
        return payload

    def _stored(self, address: Optional[str]) -> Any:
        """The object an index entry points at; None when the entry has
        no address or its object was gc'd away (the cell reruns)."""
        if address and self.has_object(address):
            return self.get_object(address)
        return None

    def has_object(self, address: str) -> bool:
        return os.path.exists(self._object_path(address))

    # -- index plane ---------------------------------------------------------

    def _view(self) -> IndexView:
        return self._index.refresh()

    def entries(self) -> List[Dict[str, Any]]:
        """All index entries, tolerating a torn final line."""
        return list(self._view().entries)

    def _append(self, entry: Dict[str, Any]) -> None:
        """Append one entry, first cutting off a torn final line
        (welding onto a torn fragment would corrupt both)."""
        view = self._view()
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        if view.identity is None:  # no index yet, perhaps no directory
            os.makedirs(os.path.dirname(view.path), exist_ok=True)
        with open(view.path, "ab") as handle:
            if handle.tell() > view.offset:
                handle.truncate(view.offset)
            handle.write(line)
            handle.flush()
            status = os.fstat(handle.fileno())
        if (view.identity == (status.st_dev, status.st_ino)
                and status.st_size == view.offset + len(line)):
            view.parse(line)  # nothing else landed: index it directly

    # -- rows: incremental reruns -------------------------------------------

    def put_row(self, seed: int, model: str, code_hash: str,
                row: Dict[str, Any]) -> str:
        """Store one matrix cell's row under its rerun key."""
        address = self.put_object(row)
        stored = self._view().rows.get(code_hash, {})
        if stored.get((int(seed), model)) != address:
            self._append({"kind": "row", "seed": int(seed),
                          "model": model, "code_hash": code_hash,
                          "address": address})
        return address

    def get_row(self, seed: int, model: str,
                code_hash: str) -> Optional[Dict[str, Any]]:
        """The stored row for ``(seed, model, code_hash)``, if any.

        The latest matching index entry wins; an entry whose object was
        gc'd away counts as absent (the cell simply reruns).
        """
        address = self._view().rows.get(code_hash, {}).get(
            (int(seed), model))
        return self._stored(address)

    def put_case(self, seed: int, code_hash: str,
                 provenance: Dict[str, Any]) -> str:
        """Store one seed's case provenance (the sweep's ``cases`` row).

        Stored alongside the seed's rows so a rerun whose every cell is
        a store hit can still emit a byte-identical ``cases`` section
        without re-running the record phase.
        """
        address = self.put_object(provenance)
        if self._view().cases.get(code_hash, {}).get(int(seed)) != address:
            self._append({"kind": "case", "seed": int(seed),
                          "code_hash": code_hash, "address": address})
        return address

    def get_case(self, seed: int,
                 code_hash: str) -> Optional[Dict[str, Any]]:
        """The stored provenance for ``(seed, code_hash)``, if any."""
        address = self._view().cases.get(code_hash, {}).get(int(seed))
        return self._stored(address)

    def stored_cells(self, code_hash: str,
                     cells: Optional[Iterable[Tuple[int, str]]] = None
                     ) -> Dict[Tuple[int, str], str]:
        """The ``(seed, model) -> address`` rows stored under a code
        hash whose object is present: all of them, or only ``cells``."""
        stored = self._view().rows.get(code_hash, {})
        wanted = stored if cells is None else [
            cell for cell in cells if cell in stored]
        return {cell: stored[cell] for cell in wanted
                if stored[cell] and self.has_object(stored[cell])}

    # -- buckets: fleet dedupe ----------------------------------------------

    def put_bucket_member(self, bucket: str, *,
                          failure: Optional[Iterable[Any]] = None,
                          fingerprint: Optional[str] = None,
                          cell: Any = None,
                          payload: Any = None) -> Tuple[Optional[str], bool]:
        """Record one recording's membership in a dedupe bucket.

        Idempotent per cell, as :meth:`put_row` is per row: a cell that
        is already a member (a rerun re-quarantining it) appends
        nothing.  Ships ``payload`` (the recording, JSON-able) only when
        the bucket has no exemplar yet - the fleet's "one exemplar per
        bucket" rule.  Returns ``(exemplar_address, shipped)`` where
        ``shipped`` says whether *this* call stored the payload.
        """
        members = self._view().buckets.get(bucket)
        if members is None or cell not in members.cells:
            self._append({"kind": "bucket", "bucket": bucket,
                          "failure": list(failure) if failure else None,
                          "fingerprint": fingerprint, "cell": cell})
        existing = self._view().buckets.get(bucket)
        if existing is not None and existing.exemplar:
            return existing.exemplar, False
        if payload is None:
            return None, False
        address = self.put_object(payload)
        self._append({"kind": "exemplar", "bucket": bucket,
                      "address": address, "cell": cell})
        return address, True

    def buckets(self) -> Dict[str, BucketView]:
        """Dedupe buckets reconstructed from the index (copies)."""
        return {name: dataclasses.replace(view, cells=list(view.cells))
                for name, view in self._view().buckets.items()}

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Index/object counts (the CI health artifact)."""
        view = self._view()
        kinds: Dict[str, int] = {}
        for entry in view.entries:
            kind = entry.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        objects = 0
        size = 0
        if os.path.isdir(self.objects_dir):
            for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
                for name in filenames:
                    if name.endswith(".json"):
                        objects += 1
                        size += os.path.getsize(
                            os.path.join(dirpath, name))
        return {"version": STORE_VERSION, "root": self.root,
                "entries": len(view.entries), "kinds": kinds,
                "objects": objects, "object_bytes": size,
                "buckets": len(view.buckets)}

    def gc(self) -> Dict[str, int]:
        """Delete objects no index entry references.

        Referenced objects are never touched; entries whose object has
        gone missing are counted as ``orphaned`` (their cells rerun).
        """
        live = {entry.get("address") for entry in self._view().entries
                if entry.get("address")}
        removed = 0
        kept = 0
        orphaned = 0
        if os.path.isdir(self.objects_dir):
            for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
                for name in filenames:
                    if not name.endswith(".json"):
                        continue
                    address = name[:-len(".json")]
                    path = os.path.join(dirpath, name)
                    if address in live:
                        kept += 1
                    else:
                        os.unlink(path)
                        removed += 1
        for address in live:
            if not self.has_object(address):
                orphaned += 1
        return {"kept": kept, "removed": removed, "orphaned": orphaned}
