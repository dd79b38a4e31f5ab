"""Record/replay round trips for every determinism model."""

from unittest import mock

import pytest

from repro.apps import ALL_APPS, racy_counter
from repro.apps.base import find_failing_seed
from repro.models import DebugSession, model_order
from repro.models.session import resolve_case
from repro.record import base as record_base
from repro.record.serialize import log_to_dict
from repro.record import (FailureRecorder, FullRecorder, OutputMode,
                          OutputRecorder, SelectiveRecorder, ValueRecorder,
                          record_run)
from repro.replay import (DeterministicReplayer, ExecutionSynthesizer,
                          InputSpace, OdrReplayer, OutputOnlyReplayer,
                          SelectiveReplayer, ValueReplayer)
from repro.vm import Machine, RandomScheduler, assemble


@pytest.fixture(scope="module")
def case():
    return racy_counter.make_case()


@pytest.fixture(scope="module")
def failing_seed(case):
    seed = find_failing_seed(case)
    assert seed is not None
    return seed


def record(case, recorder, seed):
    return record_run(case.program, recorder, inputs=case.inputs,
                      seed=seed, scheduler=case.production_scheduler(seed),
                      io_spec=case.io_spec)


def test_full_roundtrip_bit_exact(case, failing_seed):
    log = record(case, FullRecorder(), failing_seed)
    assert log.failure is not None
    result = DeterministicReplayer().replay(case.program, log,
                                            io_spec=case.io_spec)
    assert result.reproduced_failure(log.failure)
    assert result.trace.schedule == log.schedule
    assert result.divergences == 0


def test_full_recorder_charges_for_switches(case, failing_seed):
    log = record(case, FullRecorder(), failing_seed)
    assert log.recorded_events.get("schedule", 0) > 0
    assert log.overhead_factor > 1.0


def test_value_roundtrip_reproduces_failure(case, failing_seed):
    log = record(case, ValueRecorder(), failing_seed)
    result = ValueReplayer().replay(case.program, log, io_spec=case.io_spec)
    assert result.reproduced_failure(log.failure)
    assert result.divergences == 0


def test_value_log_has_per_thread_reads(case, failing_seed):
    log = record(case, ValueRecorder(), failing_seed)
    # Both workers and main read the shared counter.
    assert len(log.thread_reads) >= 3
    assert log.thread_spawns.get(0), "main's spawns must be logged"


def test_odr_roundtrip_matches_outputs(case, failing_seed):
    log = record(case, OutputRecorder(OutputMode.IO_PATH_SCHED),
                 failing_seed)
    result = OdrReplayer(inner_seeds=range(64)).replay(
        case.program, log, io_spec=case.io_spec)
    assert result.found
    assert result.trace.outputs == log.outputs


def test_output_only_cheapest_recording(case, failing_seed):
    output_log = record(case, OutputRecorder(OutputMode.OUTPUT_ONLY),
                        failing_seed)
    full_log = record(case, FullRecorder(), failing_seed)
    assert output_log.overhead_factor < full_log.overhead_factor


def test_failure_model_records_nothing(case, failing_seed):
    log = record(case, FailureRecorder(), failing_seed)
    assert log.overhead_factor == 1.0
    assert log.event_count() == 0
    assert log.core_dump is not None
    assert log.core_dump.failure.same_failure(log.failure)


def test_synthesis_reaches_same_failure(case, failing_seed):
    log = record(case, FailureRecorder(), failing_seed)
    synthesizer = ExecutionSynthesizer(InputSpace.fixed({}),
                                       schedule_seeds=range(64))
    result = synthesizer.replay(case.program, log, io_spec=case.io_spec)
    assert result.found
    assert result.reproduced_failure(log.failure)
    assert result.inference_cycles >= 0


def test_synthesis_without_core_dump_fails_gracefully(case):
    ok_seed = next(s for s in range(100)
                   if case.run(s).failure is None)
    log = record(case, FailureRecorder(), ok_seed)
    synthesizer = ExecutionSynthesizer(InputSpace.fixed({}))
    result = synthesizer.replay(case.program, log)
    assert not result.found


def test_selective_records_less_than_full(case, failing_seed):
    full_log = record(case, FullRecorder(), failing_seed)
    sel_log = record(case, SelectiveRecorder(control_plane={"main"}),
                     failing_seed)
    assert sel_log.recording_cycles < full_log.recording_cycles
    # Only control-plane (main) steps appear in the selective order.
    assert all(site.startswith("main@")
               for __, site in sel_log.selective_order)


def test_selective_replay_reproduces(case, failing_seed):
    log = record(case, SelectiveRecorder(control_plane={"main"}),
                 failing_seed)
    result = SelectiveReplayer(
        base_inputs=case.inputs,
        target_failure=log.failure).replay(case.program, log,
                                           io_spec=case.io_spec)
    assert result.reproduced_failure(log.failure)


def test_selective_replay_gates_implicit_ret():
    """The implicit-ret virtual site must be replay-ordered like any step.

    Falling off a control-plane function's end records a step at the
    virtual site ``fn@len(body)``; guided replay must gate it against the
    recorded order (not wave it through), or replays rack up spurious
    divergences relative to the same program with an explicit ret.
    """
    program = assemble("""
    global g = 0
    fn helper():
        load %v, g
        add %v, %v, 1
        store g, %v
    fn main():
        spawn %a, helper
        spawn %b, helper
        spawn %c, helper
        join %a
        join %b
        join %c
        halt
    """)
    # Record seed 2 interleaves the helpers so an ungated implicit ret
    # runs ahead of its recorded turn on every replay seed below.
    log = record_run(program,
                     SelectiveRecorder(control_plane={"helper", "main"}),
                     seed=2, scheduler=RandomScheduler(seed=2))
    assert any(site == "helper@3" for __, site in log.selective_order), \
        "the implicit ret must be recorded at its virtual site"
    total_divergences = 0
    for seed in range(8):
        result = SelectiveReplayer(replay_seeds=[seed]).replay(program, log)
        total_divergences += result.divergences
    assert total_divergences == 0


def test_output_only_replay_searches_inputs():
    # Deterministic single-threaded echo: output == input.
    program = assemble("""
    fn main():
        input %x, "i"
        output "o", %x
        halt
    """)
    log = record_run(program, OutputRecorder(OutputMode.OUTPUT_ONLY),
                     inputs={"i": [7]}, seed=0)
    from repro.util.intervals import Interval
    replayer = OutputOnlyReplayer(
        InputSpace.grid({"i": (1, Interval(0, 10))}),
        schedule_seeds=range(1))
    result = replayer.replay(program, log)
    assert result.found
    assert result.trace.inputs_consumed["i"] == [7]


# -- recordings keep no trace ------------------------------------------------
#
# ``record_run`` runs the production machine in ``counting`` mode: the
# recorder, an every-step observer, is its only reader.  The reference
# records the same runs in ``full`` mode.

def _shipped_logs(ref, trace_mode=None):
    """The shipped log of each of ``ref``'s five sessions, recorded at
    its failing seed, with every recording machine in ``trace_mode``
    (``record_run``'s own choice when None)."""
    modes = []

    def machine(*args, **kwargs):
        if trace_mode is not None:
            kwargs["trace_mode"] = trace_mode
        modes.append(kwargs["trace_mode"])
        return Machine(*args, **kwargs)

    case = resolve_case(ref)
    logs = []
    with mock.patch.object(record_base, "Machine", machine):
        for model in model_order():
            session = DebugSession(case, model,
                                   seed=getattr(case, "failing_seed", None))
            session.record()
            logs.append(log_to_dict(session.log))
    assert modes == [trace_mode or "counting"] * len(logs)
    return logs


def check_recordings(ref):
    assert _shipped_logs(ref) == _shipped_logs(ref, "full"), ref


@pytest.mark.parametrize("ref", [f"app:{name}" for name in sorted(ALL_APPS)]
                         + [f"corpus:{seed}" for seed in range(24)])
def test_counting_recordings_ship_the_logs_full_ones_do(ref):
    check_recordings(ref)
