"""Every paper table and example prints what it printed before.

Each ``python -m repro run <experiment>`` and each ``examples/*.py`` runs
in a fresh interpreter, and its stdout must equal the transcript kept in
``tests/data/transcripts/`` byte for byte.  The experiments and examples
are deterministic, so a transcript moves only when behaviour does; most
of what they run (the Figure 2 harness, the distributed simulator, the
Hypertable model, symbolic inference) no other tier-1 test runs end to
end.  To accept an intended change, regenerate the transcript from the
command the test names and say why in the change.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRANSCRIPTS = os.path.join(ROOT, "tests", "data", "transcripts")
EXPERIMENTS = ("fig1", "fig2", "sec2_adder", "sec2_msgserver",
               "sec32_efficiency", "corpus")
EXAMPLES = tuple(sorted(name[:-3] for name in os.listdir(
    os.path.join(ROOT, "examples")) if name.endswith(".py")))


def _stdout(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _transcript(name):
    with open(os.path.join(TRANSCRIPTS, f"{name}.txt"),
              encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_transcript(experiment):
    assert _stdout(["-m", "repro", "run", experiment]) == \
        _transcript(f"run_{experiment}")


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_transcript(example):
    assert _stdout([os.path.join("examples", f"{example}.py")]) == \
        _transcript(example)


def test_every_experiment_is_pinned():
    """A new experiment needs a transcript of its own (a new example
    gets one from the parametrization, and fails until it exists)."""
    from repro.harness import EXPERIMENTS as registered
    assert set(EXPERIMENTS) == set(registered)
