"""Wire protocol for the remote experiment fleet.

Coordinator and workers (:mod:`repro.corpus.remote`) exchange
**length-prefixed JSON frames** over TCP: a 4-byte big-endian length
followed by a UTF-8 JSON object.  JSON keeps every frame inspectable
with any packet capture and keeps the transport honest about what it
carries - results, and a quarantined cell's refused recording as the
payload string :mod:`repro.record.serialize` produced, never pickled
Python objects.

Frame types
-----------

``hello``      worker → coordinator, once per connection: protocol
               version, worker id, pid.  A version mismatch is refused.
``task``       coordinator → worker: one leased cell - key, encoded
               payload, attempt index, lease/heartbeat/budget seconds,
               and the encoded fault plan when one is injected.
``heartbeat``  worker → coordinator while a cell runs: renews the lease.
``abandon``    worker → coordinator: the cell exceeded its budget and
               was abandoned (the fast path for a hung guest; lease
               expiry catches the partition case).
``result``     worker → coordinator: terminal cell verdict (``ok`` with
               an encoded value, or ``error`` with a traceback).
``stop``       coordinator → worker: drain and exit cleanly.
``reject``     coordinator → worker: handshake refused (version skew).

Payload encoding
----------------

Task payloads and results are arbitrary JSON-able trees plus two typed
tags mirroring the log serializer's idiom: ``$tuple`` (tuples survive
the wire - cell bodies are tuples) and ``$faultplan`` (a frozen
:class:`~repro.harness.faults.FaultPlan` of primitives).  Dict keys
must be strings: JSON silently stringifies integer keys, the exact
corruption class PR 3 fixed in the log serializer, so the fleet
protocol refuses them outright instead of shipping them wrong.

Framing violations - a connection dropped *mid-frame*, an absurd
declared length, a non-JSON body, version skew - raise
:class:`~repro.errors.ProtocolError`.  A clean close between frames is
``EOFError``: hanging up is not a protocol violation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.harness.faults import FaultPlan

PROTOCOL_VERSION = 1
_HEADER = struct.Struct(">I")
# Generous ceiling: a frame is one cell's payloads (a few recordings),
# not a sweep.  Anything larger is a corrupt length prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_TUPLE_TAG = "$tuple"
_PLAN_TAG = "$faultplan"


# -- payload codec ------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """JSON-able encoding of a task payload / result value."""
    if isinstance(value, FaultPlan):
        return {_PLAN_TAG: dataclasses.asdict(value)}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ProtocolError(
                    f"fleet payloads require string dict keys; got "
                    f"{key!r} ({type(key).__name__}) - JSON would "
                    f"silently stringify it")
        return {key: encode_value(item) for key, item in value.items()}
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (tuples and fault plans restored).

    A tag whose body does not match its type, or a value nested past the
    recursion limit, is a :class:`~repro.errors.ProtocolError`, like any
    other malformed frame.
    """
    try:
        return _decode_value(value)
    except RecursionError:
        raise ProtocolError(
            "malformed value: nested too deeply to decode") from None


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {_PLAN_TAG}:
            fields = value[_PLAN_TAG]
            try:
                return FaultPlan(**fields)
            except TypeError as exc:
                raise ProtocolError(
                    f"malformed {_PLAN_TAG} value {fields!r}: {exc}"
                ) from None
        if set(value) == {_TUPLE_TAG}:
            items = value[_TUPLE_TAG]
            if not isinstance(items, list):
                raise ProtocolError(
                    f"malformed {_TUPLE_TAG} value {items!r}: expected "
                    f"a list")
            return tuple(_decode_value(item) for item in items)
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


# -- framing ------------------------------------------------------------------


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + canonical JSON."""
    body = json.dumps(obj, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling")
    return _HEADER.pack(len(body)) + body


def send_frame(sock: socket.socket, obj: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, count: int,
                clean_eof_ok: bool = False) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF at a
    frame boundary (when allowed).  EOF *inside* the read is a tear."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if clean_eof_ok and not chunks:
                return None
            raise ProtocolError(
                f"connection dropped mid-frame ({count - remaining} of "
                f"{count} bytes arrived)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(frame).__name__}")
    return frame


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one frame (blocking).  ``EOFError`` on a clean close."""
    header = _recv_exact(sock, _HEADER.size, clean_eof_ok=True)
    if header is None:
        raise EOFError("connection closed")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame declares {length} bytes (ceiling "
            f"{MAX_FRAME_BYTES}); corrupt length prefix?")
    return _decode_body(_recv_exact(sock, length) or b"")


class FrameReader:
    """Incremental frame decoder for non-blocking sockets.

    The coordinator feeds whatever bytes ``recv`` returned; complete
    frames are yielded as they materialize, partial frames wait in the
    buffer.  Raises :class:`~repro.errors.ProtocolError` on a corrupt
    length prefix or body.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pending(self) -> int:
        """Bytes of an unfinished frame still waiting in the buffer."""
        return len(self._buffer)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack(self._buffer[:_HEADER.size])
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame declares {length} bytes (ceiling "
                    f"{MAX_FRAME_BYTES}); corrupt length prefix?")
            if len(self._buffer) < _HEADER.size + length:
                return
            body = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:_HEADER.size + length]
            yield _decode_body(body)


# -- frame builders -----------------------------------------------------------


def hello_frame(worker_id: str) -> Dict[str, Any]:
    return {"type": "hello", "protocol": PROTOCOL_VERSION,
            "worker": worker_id, "pid": os.getpid()}


def check_hello(frame: Dict[str, Any]) -> str:
    """Validate a handshake frame; returns the worker id."""
    if frame.get("type") != "hello":
        raise ProtocolError(
            f"expected a hello frame, got {frame.get('type')!r}")
    version = frame.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: worker speaks {version!r}, "
            f"coordinator speaks {PROTOCOL_VERSION}")
    return str(frame.get("worker") or f"pid-{frame.get('pid', '?')}")


def task_frame(key: str, payload: Any, attempt: int,
               lease_seconds: float, heartbeat_seconds: float,
               budget: Optional[float] = None,
               faults: Optional[FaultPlan] = None) -> Dict[str, Any]:
    frame: Dict[str, Any] = {
        "type": "task", "key": key, "payload": encode_value(payload),
        "attempt": attempt, "lease": lease_seconds,
        "heartbeat": heartbeat_seconds}
    if budget is not None:
        frame["budget"] = budget
    if faults is not None:
        frame["faults"] = encode_value(faults)
    return frame


def heartbeat_frame(key: str) -> Dict[str, Any]:
    return {"type": "heartbeat", "key": key}


def abandon_frame(key: str, reason: str) -> Dict[str, Any]:
    return {"type": "abandon", "key": key, "reason": reason}


def result_frame(key: str, status: str, value: Any = None,
                 error: str = "") -> Dict[str, Any]:
    frame: Dict[str, Any] = {"type": "result", "key": key,
                             "status": status}
    if status == "ok":
        frame["value"] = encode_value(value)
    else:
        frame["error"] = error
    return frame


def stop_frame() -> Dict[str, Any]:
    return {"type": "stop"}


def reject_frame(reason: str) -> Dict[str, Any]:
    return {"type": "reject", "reason": reason}


# -- addresses ----------------------------------------------------------------


def parse_address(spec: str,
                  default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``HOST:PORT`` / ``:PORT`` / ``PORT`` into ``(host, port)``.

    A bare or empty host means ``default_host``; the CLI's ``--listen
    :0`` binds an ephemeral port the coordinator then reports.
    """
    text = spec.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(
            f"bad fleet address {spec!r}: expected HOST:PORT") from None
    if not 0 <= port <= 65535:
        raise ProtocolError(f"bad fleet port {port} in {spec!r}")
    return host, port
