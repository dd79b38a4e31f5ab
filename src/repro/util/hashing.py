"""The one canonical-JSON + SHA-256 implementation.

Three subsystems hash structured values and must agree byte-for-byte:
log attestation (:mod:`repro.record.attest` stamps and re-verifies
shipped logs), the content-addressed run store (:mod:`repro.store`
keys every object by the hash of its canonical encoding), and
divergence fingerprints (:mod:`repro.replay.diff` buckets failure
recordings by where and how they diverged).  A drift between two
private copies of "canonical JSON" would silently split those worlds -
an attested log the store addresses differently, a bucket fingerprint
that changes between releases - so the encoding lives here, once.

``canonical_json`` is deliberately strict: sorted keys, no whitespace,
and only JSON-representable values (a non-JSON-able value raises
``TypeError`` at the call site instead of hashing a lossy repr).
Attestation stamps computed through these helpers are byte-identical
to the pre-factoring implementation (pinned by
``tests/test_attestation.py``).

``source_tree_hash`` names a source tree instead of a value: the run
store keys stored rows by the hash of the code that computed them.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

import json


def canonical_json(value: Any) -> str:
    """The one deterministic JSON encoding hashes are computed over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of a string (UTF-8 encoded)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_address(value: Any) -> str:
    """The content address of a JSON-able value: SHA-256 over its
    canonical encoding.

    Two structurally identical values share an address no matter who
    computed it or in what field order - the property the run store's
    dedupe and the divergence buckets rely on.
    """
    return sha256_hex(canonical_json(value))


def source_tree_hash(root: str) -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``.py``
    file under ``root``: the identity of a source tree, wherever it is
    checked out."""
    files = []
    for dirpath, __, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                files.append((relative, path))
    digest = hashlib.sha256()
    for relative, path in sorted(files):
        with open(path, "rb") as handle:
            data = handle.read()
        # Length-prefixed, so no two trees share an encoding.
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()
