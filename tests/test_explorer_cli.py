"""The command-line interface."""

from repro.__main__ import main as cli_main


def test_cli_lists_experiments(capsys):
    assert cli_main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "fig2" in out


def test_cli_lists_apps(capsys):
    assert cli_main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "racy_counter" in out and "deadlock" in out


def test_cli_demo_runs_a_model(capsys):
    assert cli_main(["demo", "racy_counter", "--model", "failure"]) == 0
    out = capsys.readouterr().out
    assert "failure reproduced: True" in out
    assert "DF=1.000" in out


def test_cli_demo_unknown_app(capsys):
    assert cli_main(["demo", "nope"]) == 1


def test_cli_run_experiment(capsys):
    assert cli_main(["run", "sec32_efficiency"]) == 0
    out = capsys.readouterr().out
    assert "first-hit" in out


def test_cli_lists_models(capsys):
    assert cli_main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("full", "value", "output", "output-only", "failure",
                 "rcse"):
        assert name in out


def test_cli_record_then_replay_corpus_case(capsys, tmp_path):
    """The production→workstation hop on real files.

    ``repro record`` writes a self-describing log; ``repro replay``
    resolves the case from the log's embedded reference and reproduces
    the corpus case's failure end to end.
    """
    log_path = tmp_path / "shipped.rrlog.json"
    assert cli_main(["record", "--model", "full", "--case", "corpus:0",
                     "-o", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert "[full]" in out and str(log_path) in out
    assert log_path.exists()

    assert cli_main(["replay", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert "failure reproduced: True" in out
    assert "model:              full" in out


def test_cli_record_then_replay_app_case(capsys, tmp_path):
    log_path = tmp_path / "app.rrlog.json"
    assert cli_main(["record", "--model", "rcse", "--case", "racy_counter",
                     "-o", str(log_path)]) == 0
    capsys.readouterr()
    assert cli_main(["replay", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert "failure reproduced: True" in out


def test_cli_record_unknown_case(capsys, tmp_path):
    assert cli_main(["record", "--model", "full", "--case", "nope",
                     "-o", str(tmp_path / "x.json")]) == 1


def test_cli_record_non_failing_seed_is_a_clean_error(capsys, tmp_path):
    # racy_counter seed 0 completes cleanly; recording must report that
    # as a one-line error, not a traceback.
    assert cli_main(["record", "--model", "full", "--case",
                     "racy_counter", "--seed", "0",
                     "-o", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "did not fail" in err


def test_cli_replay_corrupt_log(capsys, tmp_path):
    bad = tmp_path / "bad.rrlog.json"
    bad.write_text("{not json")
    assert cli_main(["replay", str(bad)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err


def test_cli_bench_section_select(capsys, tmp_path):
    """`bench --section` runs only the named section and keeps the rest
    of an existing summary intact."""
    import json
    out_path = tmp_path / "bench.json"
    out_path.write_text(json.dumps(
        {"benchmark": "minivm-interpreter",
         "workloads": {"counter": {"steps": 1, "steps_per_sec": 2}}}))
    assert cli_main(["bench", "--section", "search", "--repeats", "1",
                     "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "checkpoint_prune" in out
    assert "tight_loop" not in out, "interpreter section must not run"
    summary = json.loads(out_path.read_text())
    assert "search" in summary
    assert summary["workloads"] == {
        "counter": {"steps": 1, "steps_per_sec": 2}}, \
        "unmeasured sections keep their recorded values"
