"""Recording-log and fleet-frame decoders refuse damaged bytes with a
typed error.

Seeded mutations - a truncation, a bit flip, a splice of two payloads,
appended garbage, deep nesting, a huge integer literal, and a swap of
two values at the top level or inside ``metadata`` - are applied to
shipped recording logs and to fleet wire frames.  Whatever the bytes,
``load_log``, ``DebugSession.receive`` and a ``FrameReader`` followed
by ``decode_value`` answer or raise :class:`~repro.errors.ReproError`,
and each call returns within a second.  An accepted log that names its
case is one of the logs that were shipped: the attestation covers every
value a mutation can change, outside the attestation block itself, and
a log that names its case but lost its block is refused.  (A mutation
that drops the case too - say, swaps ``metadata`` away - makes a log
that names no case, which loads by design.)

Also pins the refusal of a malformed attestation block: a block that is
not an object holding a ``content_sha256`` string, or that holds a hash
of any other type, raises :class:`~repro.errors.LogAttestationError`
from both log decoders (a warning under ``verify=False``), and the CLI
reports it in one line.
"""

import json
import struct
import time

import pytest

from repro.__main__ import main as cli_main
from repro.corpus import generate_case
from repro.corpus.protocol import (FrameReader, decode_value, encode_frame,
                                   encode_value, hello_frame, result_frame,
                                   task_frame)
from repro.errors import LogAttestationError, ReproError
from repro.harness.faults import FaultPlan
from repro.models import DebugSession
from repro.record import load_log, log_from_dict, log_to_dict
from repro.record.attest import ATTESTATION_KEY
from repro.util.rng import DeterministicRng

DRAWS = 20           # per mutation and decoder
PROMPT_S = 1.0       # a refusal must not wait on a pathological parse
HEADER = struct.Struct(">I")


@pytest.fixture(scope="module")
def payloads():
    """corpus:0 shipped under two models, as bytes."""
    case = generate_case(0)
    shipped = []
    for model in ("full", "rcse"):
        session = DebugSession(case, model, seed=case.failing_seed)
        session.record()
        shipped.append(session.ship().encode("utf-8"))
    return shipped


FRAMES = [
    encode_frame(task_frame(
        "3:full", encode_value(("record", 3, {"plan": FaultPlan(seed=1),
                                              "empty": ()})),
        attempt=2, lease_seconds=5.0, heartbeat_seconds=1.0, budget=2.0,
        faults=FaultPlan(seed=2, dup_rate=0.5))),
    encode_frame(result_frame("3:full", "ok",
                              encode_value([("x", 1), {"a": ()}]))),
    encode_frame(hello_frame("w0")),
]


# -- mutations ----------------------------------------------------------------
# Each takes the JSON bytes to damage, the bytes of a second payload and
# the stream.  The byte-level ones also damage a frame's length header;
# the others rewrite a frame's body under a fresh header.


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
    return (data[:-1] + b',"seed":' + b"9" * rng.randint(5_000, 20_000)
            + b"}")


def _swapped(data, rng, inside=None):
    """``data`` with two values of one object swapped: the top-level
    object's, or the one under the key ``inside``."""
    whole = json.loads(data)
    obj = whole if inside is None else whole[inside]
    keys = sorted(obj)
    first, second = rng.choice(keys), rng.choice(keys)
    obj[first], obj[second] = obj[second], obj[first]
    return json.dumps(whole).encode("utf-8")


def swap_top(data, other, rng):
    return _swapped(data, rng)


def swap_metadata(data, other, rng):
    return _swapped(data, rng, "metadata")


BYTE_MUTATIONS = (truncate, bit_flip, splice, garbage)
LOG_MUTATIONS = BYTE_MUTATIONS + (deep_nesting, huge_integer, swap_top,
                                  swap_metadata)
FRAME_MUTATIONS = BYTE_MUTATIONS + (deep_nesting, huge_integer, swap_top)


def _call(function, *args):
    """``function(*args)``, or None for a ReproError; anything else it
    raises fails the test, and so does a slow answer."""
    started = time.perf_counter()
    try:
        result = function(*args)
    except ReproError:
        result = None
    elapsed = time.perf_counter() - started
    assert elapsed < PROMPT_S, f"{function.__name__} took {elapsed:.2f} s"
    return result


def _damaged(items, mutate, rng):
    """One draw: an item of ``items`` damaged, spliced with the next."""
    at = rng.randint(0, len(items) - 1)
    return mutate(items[at], items[(at + 1) % len(items)], rng)


def _body(log):
    """A log's encoding without its attestation block."""
    data = log_to_dict(log)
    data["metadata"].pop(ATTESTATION_KEY, None)
    return data


def _check_shipped(log, payloads):
    """A refusal, a log that names no case, or a log that was shipped
    (not one a mutation made)."""
    if log is not None and "case" in log.metadata:
        assert _body(log) in [_body(log_from_dict(json.loads(payload)))
                              for payload in payloads], \
            "a changed log was accepted"


# -- fuzz ---------------------------------------------------------------------


@pytest.mark.parametrize("mutate", LOG_MUTATIONS, ids=lambda m: m.__name__)
def test_damaged_log_file_is_refused(payloads, mutate, tmp_path):
    rng = DeterministicRng(11, f"load_log/{mutate.__name__}")
    path = tmp_path / "damaged.rrlog.json"
    for __ in range(DRAWS):
        path.write_bytes(_damaged(payloads, mutate, rng))
        _check_shipped(_call(load_log, str(path)), payloads)


@pytest.mark.parametrize("mutate", LOG_MUTATIONS, ids=lambda m: m.__name__)
def test_damaged_payload_is_refused(payloads, mutate):
    rng = DeterministicRng(11, f"receive/{mutate.__name__}")
    for __ in range(DRAWS):
        damaged = _damaged(payloads, mutate, rng)
        session = _call(DebugSession.receive,
                        damaged.decode("utf-8", "replace"))
        _check_shipped(session and session.log, payloads)


def _read_frames(data):
    reader = FrameReader()
    reader.feed(data)
    return [decode_value(frame) for frame in reader]


@pytest.mark.parametrize("mutate", FRAME_MUTATIONS,
                         ids=lambda m: m.__name__)
def test_damaged_frame_is_refused(mutate):
    rng = DeterministicRng(11, f"frame/{mutate.__name__}")
    bodies = [frame[HEADER.size:] for frame in FRAMES]
    for __ in range(DRAWS * 2):
        if mutate in BYTE_MUTATIONS:
            damaged = _damaged(FRAMES, mutate, rng)
        else:
            body = _damaged(bodies, mutate, rng)
            damaged = HEADER.pack(len(body)) + body
        _call(_read_frames, damaged)


def test_intact_inputs_decode(payloads, tmp_path):
    """The fuzz targets accept what they were given undamaged."""
    path = tmp_path / "intact.rrlog.json"
    path.write_bytes(payloads[0])
    assert load_log(str(path)).model == "full"
    assert DebugSession.receive(payloads[1].decode("utf-8")).log.model \
        == "rcse"
    assert len(_read_frames(b"".join(FRAMES))) == len(FRAMES)


# -- malformed attestation blocks ---------------------------------------------

MALFORMED_BLOCKS = [5, ["content_sha256"], {"content_sha256": 5},
                    {"content_sha256": None}, {"guest_sha256": 7}, {},
                    "content_sha256"]
BLOCK_IDS = ["int", "list", "int-hash", "null-hash", "int-guest-hash",
             "empty", "string"]


def _with_block(payload, block):
    data = json.loads(payload)
    data["metadata"][ATTESTATION_KEY] = block
    return json.dumps(data)


@pytest.mark.parametrize("block", MALFORMED_BLOCKS, ids=BLOCK_IDS)
def test_malformed_block_is_refused(payloads, block, tmp_path):
    text = _with_block(payloads[0], block)
    path = tmp_path / "bad.rrlog.json"
    path.write_text(text)
    with pytest.raises(LogAttestationError, match="malformed attestation"):
        load_log(str(path))
    with pytest.raises(LogAttestationError, match="malformed attestation"):
        DebugSession.receive(text)
    with pytest.warns(UserWarning, match="malformed attestation"):
        assert load_log(str(path), verify=False).model == "full"
    with pytest.warns(UserWarning, match="malformed attestation"):
        DebugSession.receive(text, verify=False)


@pytest.mark.parametrize("verb", [["replay"], ["diff", "replay"]],
                         ids=["replay", "diff"])
def test_cli_refuses_malformed_block_in_one_line(payloads, verb, tmp_path,
                                                 capsys):
    path = tmp_path / "bad.rrlog.json"
    path.write_text(_with_block(payloads[0], {"content_sha256": None}))
    args = [verb[0], str(path)] + verb[1:]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed attestation" in err
    with pytest.warns(UserWarning, match="malformed attestation"):
        assert cli_main(args + ["--no-verify"]) == 0
