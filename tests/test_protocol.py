"""Wire-protocol tests: framing, payload codec, handshake, addresses.

The framing layer must make the two EOF cases unmistakable - a clean
close between frames is ``EOFError`` (hanging up is legal), a close
*inside* a frame is :class:`~repro.errors.ProtocolError` (a tear).  The
payload codec must round-trip tuples and fault plans and refuse the
non-string dict keys JSON would silently stringify.
"""

import socket
import struct
import threading

import pytest

from repro.corpus import protocol
from repro.corpus.protocol import (FrameReader, MAX_FRAME_BYTES,
                                   PROTOCOL_VERSION, check_hello,
                                   decode_value, encode_frame,
                                   encode_value, hello_frame,
                                   parse_address, recv_frame, result_frame,
                                   send_frame, task_frame)
from repro.errors import ProtocolError, ReproError
from repro.harness.faults import FaultPlan


def _socket_pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


# -- framing ------------------------------------------------------------------


def test_frame_round_trips_over_a_socket():
    left, right = _socket_pair()
    try:
        frame = {"type": "task", "key": "0:full", "n": 3,
                 "nested": {"a": [1, 2, {"b": "c"}]}}
        send_frame(left, frame)
        assert recv_frame(right) == frame
    finally:
        left.close()
        right.close()


def test_many_frames_arrive_in_order():
    left, right = _socket_pair()
    try:
        for index in range(20):
            send_frame(left, {"type": "heartbeat", "key": str(index)})
        for index in range(20):
            assert recv_frame(right)["key"] == str(index)
    finally:
        left.close()
        right.close()


def test_clean_close_between_frames_is_eof_not_protocol_error():
    left, right = _socket_pair()
    try:
        send_frame(left, {"type": "stop"})
        left.close()
        assert recv_frame(right) == {"type": "stop"}
        with pytest.raises(EOFError):
            recv_frame(right)
    finally:
        right.close()


def test_close_mid_frame_is_a_protocol_error():
    left, right = _socket_pair()
    try:
        wire = encode_frame({"type": "result", "key": "0:full",
                             "status": "ok", "value": "x" * 200})
        left.sendall(wire[:len(wire) // 2])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_close_inside_the_length_header_is_also_a_tear():
    left, right = _socket_pair()
    try:
        left.sendall(b"\x00\x00")  # 2 of the 4 header bytes
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_absurd_length_prefix_is_refused_without_reading_the_body():
    left, right = _socket_pair()
    try:
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="ceiling"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_oversize_frame_is_refused_at_the_sender():
    with pytest.raises(ProtocolError, match="ceiling"):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_non_json_body_is_a_protocol_error():
    left, right = _socket_pair()
    try:
        body = b"\xff\xfenot json"
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_non_object_body_is_a_protocol_error():
    left, right = _socket_pair()
    try:
        body = b"[1, 2, 3]"
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_protocol_error_is_a_repro_error():
    assert issubclass(ProtocolError, ReproError)


# -- incremental reader -------------------------------------------------------


def test_frame_reader_handles_byte_at_a_time_delivery():
    wire = encode_frame({"type": "hello", "worker": "w0"})
    wire += encode_frame({"type": "heartbeat", "key": "0:full"})
    reader = FrameReader()
    frames = []
    for index in range(len(wire)):
        reader.feed(wire[index:index + 1])
        frames.extend(reader)
    assert [frame["type"] for frame in frames] == ["hello", "heartbeat"]
    assert reader.pending() == 0


def test_frame_reader_keeps_partial_frames_buffered():
    wire = encode_frame({"type": "stop"})
    reader = FrameReader()
    reader.feed(wire[:3])
    assert list(reader) == []
    assert reader.pending() == 3
    reader.feed(wire[3:])
    assert list(reader) == [{"type": "stop"}]
    assert reader.pending() == 0


def test_frame_reader_refuses_corrupt_length_prefix():
    reader = FrameReader()
    reader.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(ProtocolError, match="ceiling"):
        list(reader)


# -- payload codec ------------------------------------------------------------


def test_codec_round_trips_tuples_nested_anywhere():
    value = {"cell": (0, "full", ("payload", [1, (2, 3)])),
             "list": [(1,), (2, "x")]}
    assert decode_value(encode_value(value)) == value


def test_codec_round_trips_a_fault_plan():
    plan = FaultPlan(seed=7, crash_rate=0.5, kill_rate=0.25,
                     drop_rate=0.125, stall_rate=0.0625, dup_rate=0.2,
                     strikes=3)
    restored = decode_value(encode_value(plan))
    assert restored == plan
    assert restored.net_fault_at("record:0") == plan.net_fault_at("record:0")


def test_codec_round_trips_through_actual_json_frames():
    plan = FaultPlan(seed=1, dup_rate=0.5)
    payload = ("record", 3, {"plan": plan, "empty": ()})
    frame = task_frame("3:full", payload, attempt=2, lease_seconds=5.0,
                       heartbeat_seconds=1.0, budget=2.0, faults=plan)
    left, right = _socket_pair()
    try:
        send_frame(left, frame)
        received = recv_frame(right)
    finally:
        left.close()
        right.close()
    assert decode_value(received["payload"]) == payload
    assert decode_value(received["faults"]) == plan
    assert received["attempt"] == 2
    assert received["budget"] == 2.0


def test_codec_refuses_non_string_dict_keys():
    with pytest.raises(ProtocolError, match="string dict keys"):
        encode_value({"rows": {3: "silently becomes '3'"}})


def test_codec_passes_scalars_through():
    for value in (None, True, 0, 1.5, "text"):
        assert decode_value(encode_value(value)) == value


@pytest.mark.parametrize("value", [
    {"$tuple": 5}, {"$faultplan": {"bogus": 1}}, {"$faultplan": [1]},
    [{"nested": {"$tuple": "abc"}}]])
def test_codec_refuses_malformed_tags_with_a_protocol_error(value):
    with pytest.raises(ProtocolError, match="malformed"):
        decode_value(value)


# -- handshake ----------------------------------------------------------------


def test_hello_round_trip_yields_worker_id():
    assert check_hello(hello_frame("worker-3")) == "worker-3"


def test_hello_without_id_falls_back_to_pid():
    frame = hello_frame("")
    assert check_hello(frame) == f"pid-{frame['pid']}"


def test_version_skew_is_refused():
    frame = hello_frame("w0")
    frame["protocol"] = PROTOCOL_VERSION + 1
    with pytest.raises(ProtocolError, match="version mismatch"):
        check_hello(frame)


def test_non_hello_first_frame_is_refused():
    with pytest.raises(ProtocolError, match="expected a hello"):
        check_hello(result_frame("0:full", "ok", value=1))


# -- addresses ----------------------------------------------------------------


def test_parse_address_variants():
    assert parse_address("10.0.0.2:9000") == ("10.0.0.2", 9000)
    assert parse_address(":0") == ("127.0.0.1", 0)
    assert parse_address("4567") == ("127.0.0.1", 4567)
    assert parse_address(" :31337 ") == ("127.0.0.1", 31337)


def test_parse_address_refuses_garbage():
    with pytest.raises(ProtocolError, match="HOST:PORT"):
        parse_address("host:port")
    with pytest.raises(ProtocolError, match="port"):
        parse_address(":70000")


# -- blocking recv under concurrent send --------------------------------------


def test_recv_blocks_until_the_frame_completes():
    left, right = _socket_pair()
    wire = encode_frame({"type": "result", "key": "k", "status": "ok",
                         "value": "v" * 1000})

    def dribble():
        for index in range(0, len(wire), 97):
            left.sendall(wire[index:index + 97])

    thread = threading.Thread(target=dribble)
    thread.start()
    try:
        frame = recv_frame(right)
        assert frame["value"] == "v" * 1000
    finally:
        thread.join()
        left.close()
        right.close()


def test_max_frame_bytes_is_generous_but_finite():
    assert 1024 * 1024 <= protocol.MAX_FRAME_BYTES <= 1024 ** 3
