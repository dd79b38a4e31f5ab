"""The first-divergence walker: structured divergence, not booleans.

Edge cases pinned here: identical runs are ``MATCHED`` with no point;
the committed v1 fixture log diffs cleanly against its pinned replay; a
counting-mode run diffs as equivalent to its full-trace twin; diverging
runs report the exact first divergent step (index, site, thread,
field-level diffs) under a fingerprint that is stable across reruns and
buckets same-shaped divergences together; and ``repro replay`` /
``repro diff`` exit non-zero on divergence.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.__main__ import main as cli_main
from repro.apps import racy_counter
from repro.corpus.generator import generate_case
from repro.errors import SparseTraceError
from repro.models import DebugSession
from repro.record import load_log, save_log
from repro.record.attest import stamp_attestation
from repro.replay import (DeterministicReplayer, DiffStatus, diff_log_replay,
                          diff_logs, diff_traces, quarantine_bucket,
                          replay_and_diff)
from repro.replay.diff import normalize_error

V1_FIXTURE = pathlib.Path(__file__).parent / "data" / (
    "v1_racy_counter.rrlog.json")


@pytest.fixture(scope="module")
def case():
    return generate_case(0)


@pytest.fixture(scope="module")
def session(case):
    s = DebugSession(case, "full", seed=case.failing_seed)
    s.record()
    s.replay()
    return s


# -- identical runs -----------------------------------------------------------


def test_identical_traces_match_with_no_point(case):
    run = case.run(case.failing_seed)
    report = diff_traces(run.trace, run.trace)
    assert report.status == DiffStatus.MATCHED
    assert not report.diverged
    assert report.point is None
    assert report.fingerprint() is None
    assert report.steps_compared == len(run.trace.steps)
    assert "steps" in report.sections


def test_identical_logs_match(session):
    report = diff_logs(session.log, session.log)
    assert report.status == DiffStatus.MATCHED
    assert report.point is None


def test_faithful_replay_matches_its_log(session):
    report = session.diff()
    assert report.status == DiffStatus.MATCHED
    assert report.point is None
    # The full model is held to its exact recorded schedule.
    assert "schedule" in report.sections
    assert report.steps_compared == len(session.log.schedule)


@pytest.mark.parametrize("model",
                         ["value", "output", "failure", "rcse"])
def test_every_model_contract_matches_on_faithful_replay(case, model):
    session = DebugSession(case, model, seed=case.failing_seed)
    session.record()
    report = session.diff()
    assert report.status == DiffStatus.MATCHED, report.render()


# -- the committed v1 fixture -------------------------------------------------


def test_v1_fixture_diffs_cleanly_against_its_replay():
    """The compatibility pin, restated as a structured diff."""
    log = load_log(str(V1_FIXTURE))
    fixture_case = racy_counter.make_case()
    result = DeterministicReplayer().replay(fixture_case.program, log,
                                            io_spec=fixture_case.io_spec)
    report = diff_log_replay(log, result)
    assert report.status == DiffStatus.MATCHED, report.render()
    assert report.steps_compared == len(log.schedule)


# -- counting mode ------------------------------------------------------------


def _case_run(case, seed, trace_mode="full"):
    from repro.vm.environment import Environment
    from repro.vm.machine import Machine
    env = Environment(inputs={k: list(v) for k, v in case.inputs.items()},
                      seed=seed, net_drop_rate=case.net_drop_rate)
    return Machine(case.program, env=env,
                   scheduler=case.production_scheduler(seed),
                   io_spec=case.io_spec, trace_mode=trace_mode).run()


def test_counting_run_is_equivalent_to_its_full_trace_twin(case):
    full = _case_run(case, case.failing_seed)
    counting = _case_run(case, case.failing_seed, trace_mode="counting")
    assert counting.trace.steps == [] and counting.trace.total_steps > 0
    for expected, actual in ((full, counting), (counting, full)):
        report = diff_traces(expected.trace, actual.trace)
        assert report.status == DiffStatus.MATCHED, report.render()
        # Only the observables both kept are compared - no step walk.
        assert "counts" in report.sections
        assert "steps" not in report.sections


def test_counting_run_still_diverges_from_a_different_run(case):
    counting = _case_run(case, case.failing_seed, trace_mode="counting")
    other_case = generate_case(1)
    other = _case_run(other_case, other_case.failing_seed,
                      trace_mode="counting")
    report = diff_traces(counting.trace, other.trace)
    assert report.diverged


# -- events mode (sparse traces) ---------------------------------------------


def test_events_run_is_equivalent_to_its_full_trace_twin(case):
    full = _case_run(case, case.failing_seed)
    events = _case_run(case, case.failing_seed, trace_mode="events")
    assert events.trace.sparse
    for expected, actual in ((full, events), (events, full),
                             (events, events)):
        report = diff_traces(expected.trace, actual.trace)
        assert report.status == DiffStatus.MATCHED, report.render()
        # Neither the steps nor the branch paths it did not keep.
        assert "counts" in report.sections
        assert "steps" not in report.sections
        assert "branch-path" not in report.sections


def test_events_run_still_diverges_from_a_different_run(case):
    events = _case_run(case, case.failing_seed, trace_mode="events")
    other_case = generate_case(1)
    other = _case_run(other_case, other_case.failing_seed)
    assert diff_traces(events.trace, other.trace).diverged
    assert diff_traces(other.trace, events.trace).diverged


def test_diff_log_replay_refuses_a_sparse_replay_trace(case, session):
    events = _case_run(case, case.failing_seed, trace_mode="events")
    result = dataclasses.replace(session.replay_result, trace=events.trace)
    with pytest.raises(SparseTraceError):
        diff_log_replay(session.log, result)


# -- diverging runs -----------------------------------------------------------


def test_first_divergent_step_is_exact(case):
    """Index, site, thread, and field diffs of the first divergence."""
    a = case.run(case.failing_seed)
    b = case.run(case.failing_seed + 1)
    report = diff_traces(a.trace, b.trace)
    assert report.status == DiffStatus.DIVERGED
    point = report.point
    # The reported index is the first step where the runs disagree.
    index = point.step_index
    for mine, theirs in zip(a.trace.steps[:index], b.trace.steps[:index]):
        assert mine.field_diffs(theirs) == []
    assert a.trace.steps[index].field_diffs(b.trace.steps[index])
    assert point.site == a.trace.steps[index].site
    assert point.tid == a.trace.steps[index].tid
    assert point.diffs, "field-level diffs must be reported"
    for diff in point.diffs:
        assert diff.expected != diff.actual


def test_divergence_fingerprint_is_stable_across_reruns(case):
    first = diff_traces(case.run(case.failing_seed).trace,
                        case.run(case.failing_seed + 1).trace)
    second = diff_traces(case.run(case.failing_seed).trace,
                         case.run(case.failing_seed + 1).trace)
    assert first.fingerprint() == second.fingerprint()
    assert first.point.to_dict() == second.point.to_dict()


def test_fingerprint_hashes_shape_not_values(case):
    """Same site + same diverging fields = same dedupe bucket."""
    base = case.run(case.failing_seed).trace
    reports = [diff_traces(base, case.run(case.failing_seed + k).trace)
               for k in (1, 2, 3)]
    diverged = [r for r in reports if r.status == DiffStatus.DIVERGED]
    assert diverged
    for report in diverged:
        shape = (report.point.kind, report.point.site, report.point.tid,
                 tuple(sorted(d.path for d in report.point.diffs)))
        twin = next(r for r in diverged
                    if (r.point.kind, r.point.site, r.point.tid,
                        tuple(sorted(d.path for d in r.point.diffs)))
                    == shape)
        assert twin.fingerprint() == report.fingerprint()


def test_truncated_trace_reports_truncation(case):
    full = case.run(case.failing_seed).trace
    shorter = case.run(case.failing_seed).trace
    shorter.steps = shorter.steps[:-5]
    report = diff_traces(full, shorter)
    assert report.status == DiffStatus.TRUNCATED
    assert report.point.step_index == len(shorter.steps)
    assert report.point.diffs[0].path == "total_steps"


def test_logs_of_different_models_diverge_on_model(case):
    full = DebugSession(case, "full", seed=case.failing_seed).record()
    failure = DebugSession(case, "failure",
                           seed=case.failing_seed).record()
    report = diff_logs(full, failure)
    assert report.status == DiffStatus.DIVERGED
    assert report.point.kind == "log:model"


def test_tampered_observable_diverges_with_point(case, tmp_path):
    session = DebugSession(case, "full", seed=case.failing_seed)
    log = session.record()
    log.failure = dataclasses.replace(log.failure, detail="tampered")
    stamp_attestation(log, case.program)  # re-seal: diff, not attest, trips
    result, report = replay_and_diff(case.program, log, case=case)
    assert report.status == DiffStatus.DIVERGED
    assert report.point.kind == "failure"
    assert report.point.diffs[0].path == "failure"


# -- quarantine buckets -------------------------------------------------------


def test_error_normalization_collapses_volatile_parts():
    a = ("LogAttestationError: recording log in 'payload:3:full' failed "
         "content attestation: stamped sha256:0a1b2c3d4e5f… but "
         "recomputed sha256:f0e1d2c3b4a5…")
    b = ("LogAttestationError: recording log in 'payload:7:full' failed "
         "content attestation: stamped sha256:deadbeef0123… but "
         "recomputed sha256:cafebabe4567…")
    assert normalize_error(a) == normalize_error(b)
    assert quarantine_bucket("full", "quarantined", a) == \
        quarantine_bucket("full", "quarantined", b)


def test_bucket_distinguishes_model_status_and_error_class():
    error = "SomeError: it broke"
    base = quarantine_bucket("full", "quarantined", error)
    assert quarantine_bucket("value", "quarantined", error) != base
    assert quarantine_bucket("full", "failed", error) != base
    assert quarantine_bucket("full", "quarantined", "Other: nope") != base


# -- CLI exit codes -----------------------------------------------------------


@pytest.fixture(scope="module")
def log_file(session, tmp_path_factory):
    path = tmp_path_factory.mktemp("difflogs") / "run.rrlog.json"
    save_log(session.log, str(path))
    return str(path)


def test_cli_replay_exits_zero_and_reports_match(log_file, capsys):
    assert cli_main(["replay", log_file]) == 0
    out = capsys.readouterr().out
    assert "first divergence: none" in out


def test_cli_replay_exits_nonzero_on_divergence(session, case, tmp_path,
                                                capsys):
    tampered = dataclasses.replace(session.log.failure, detail="tampered")
    log = session.log
    original = log.failure
    try:
        log.failure = tampered
        stamp_attestation(log, case.program)
        path = str(tmp_path / "tampered.rrlog.json")
        save_log(log, path)
    finally:
        log.failure = original
        stamp_attestation(log, case.program)
    assert cli_main(["replay", path]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "fingerprint" in out


def test_cli_replay_exits_nonzero_on_attestation_failure(log_file,
                                                         tmp_path,
                                                         capsys):
    data = json.loads(pathlib.Path(log_file).read_text())
    data["failure"]["detail"] = "bit flip"  # body no longer matches stamp
    path = tmp_path / "flipped.rrlog.json"
    path.write_text(json.dumps(data))
    assert cli_main(["replay", str(path)]) == 1
    err = capsys.readouterr().err
    assert "attestation" in err


def test_cli_diff_log_vs_replay(log_file, capsys):
    assert cli_main(["diff", log_file, "replay"]) == 0
    out = capsys.readouterr().out
    assert "matched" in out


def test_cli_diff_two_logs(log_file, case, tmp_path, capsys):
    other = DebugSession(case, "failure", seed=case.failing_seed).record()
    other_path = str(tmp_path / "other.rrlog.json")
    save_log(other, other_path)
    assert cli_main(["diff", log_file, other_path]) == 1
    out = capsys.readouterr().out
    assert "log:model" in out
    assert "fingerprint" in out


def test_cli_diff_identical_logs_exit_zero(log_file, capsys):
    assert cli_main(["diff", log_file, log_file]) == 0
    out = capsys.readouterr().out
    assert "matched" in out
