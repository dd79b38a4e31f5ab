"""The §3.1.2 data-based selection example: bugs on large requests only.

"if the goal is to reproduce a bug that occurs when a server processes
large requests, developers could make the selection based on when the
request sizes are larger than a threshold."

The server parses framed requests (size header + payload words) into a
staging area.  Requests up to the staging capacity are handled correctly;
a request larger than 12 words corrupts the checksum accumulator (an
off-by-one in the oversize path) and the response checksum is wrong -
but only for large requests, so a size-threshold
:class:`~repro.analysis.triggers.PredicateTrigger` is the natural
recording policy: high determinism exactly while a large request is in
flight.
"""

from __future__ import annotations

from typing import List

from repro.analysis.rootcause import RootCause
from repro.analysis.triggers import PredicateTrigger
from repro.apps.base import AppCase
from repro.replay.search import InputSpace
from repro.vm.compiler import compile_source
from repro.vm.failures import IOSpec

STAGING_CAPACITY = 12

SOURCE = f"""
array staging[32];
global current_size = 0;

fn handle_request(size) {{
    current_size = size;
    var sum = 0;
    var i = 0;
    while (i < size) {{
        var word = input("req");
        staging[i] = word;
        sum = sum + word;
        i = i + 1;
    }}
    if (size > {STAGING_CAPACITY}) {{
        // BUG: the oversize path re-adds the last word to the checksum
        // (a stale-accumulator off-by-one kept from an old wrap-around
        // implementation).  Small requests never reach this code.
        sum = sum + staging[size - 1];
    }}
    output("resp", sum);
}}

fn main() {{
    var requests = input("req");
    while (requests > 0) {{
        var size = input("req");
        handle_request(size);
        requests = requests - 1;
    }}
}}
"""

FAILURE_LOCATION = "checksum-correct"


def make_spec() -> IOSpec:
    """Each response must be the true sum of its request payload."""
    def checksum_correct(outputs, inputs) -> bool:
        stream = list(inputs.get("req", []))
        responses = list(outputs.get("resp", []))
        if not stream:
            return True
        expected: List[int] = []
        cursor = 1
        count = stream[0] if stream else 0
        for __ in range(count):
            if cursor >= len(stream):
                break
            size = stream[cursor]
            payload = stream[cursor + 1:cursor + 1 + size]
            if len(payload) < size:
                break
            expected.append(sum(payload))
            cursor += 1 + size
        return responses == expected[:len(responses)] and \
            len(responses) >= len(expected)
    return IOSpec().require(FAILURE_LOCATION, checksum_correct,
                            "response checksum must equal the payload sum")


def _diagnose(trace, failure):
    """The defect lives on the oversize path of handle_request."""
    for step in trace.steps:
        if step.io is not None and step.io[0] == "output":
            continue
        for loc, value in step.writes:
            if loc == ("g", "current_size") and value > STAGING_CAPACITY:
                return RootCause(
                    "oversize-path-bug", "handle_request:oversize",
                    f"checksum corrupted on a {value}-word request")
    return None


def large_request_trigger():
    """§3.1.2's data-based trigger: fire while a large request is staged."""
    def predicate(machine, step) -> bool:
        for loc, value in step.writes:
            if loc == ("g", "current_size") and value > STAGING_CAPACITY:
                return True
        return False
    return PredicateTrigger("large-request", predicate)


# Workload: several small requests, then the oversize one.
ORIGINAL_STREAM = (
    [4,
     3, 10, 20, 30,
     5, 1, 2, 3, 4, 5,
     2, 7, 9,
     14] + list(range(1, 15))
)


def make_case() -> AppCase:
    return AppCase(
        name="large_request",
        program=compile_source(SOURCE),
        inputs={"req": list(ORIGINAL_STREAM)},
        io_spec=make_spec(),
        input_space=InputSpace.fixed({"req": list(ORIGINAL_STREAM)}),
        control_plane={"main"},
        diagnoser_rules={FAILURE_LOCATION: _diagnose},
        known_cause=RootCause("oversize-path-bug",
                              "handle_request:oversize"),
        description="§3.1.2 data-based selection: bug only on large "
                    "requests",
    )
