"""Shared experiment machinery: evaluate one (app, model) cell.

Everything here is a thin layer over the model registry
(:mod:`repro.models`): determinism models are first-class registered
objects, and the canonical record→ship→replay→score pipeline lives in
:class:`~repro.models.session.DebugSession`.  Construct recorders and
replayers through the registry -
``get_model(name).make_recorder(config)`` - or let
:func:`~repro.models.base.replay_log` dispatch from the log alone.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.rootcause import RootCause
from repro.apps.base import AppCase
from repro.metrics import DebuggingMetrics
from repro.models import DebugSession, REDIAGNOSE, model_order

# The five core models, in the paper's chronological relaxation order -
# an import-time snapshot of the registry kept for the historical
# constant's callers.  Sweeps (run_fig1, run_matrix) call model_order()
# at use time instead, so a core model registered later still joins
# their defaults.
MODEL_ORDER = model_order()


def evaluate_app_model(case: AppCase, model: str,
                       seed: Optional[int] = None,
                       ground_truth_cause: Optional[RootCause] = None,
                       cause_count_attempts: int = 120
                       ) -> DebuggingMetrics:
    """Record a failing production run under ``model``, replay, score.

    When ``ground_truth_cause`` is supplied (generated corpus cases carry
    their planted defect), the replay is scored against that truth and
    the original-run re-diagnosis is skipped entirely.
    """
    session = DebugSession(case, model, seed=seed)
    session.record()
    original_cause = (ground_truth_cause if ground_truth_cause is not None
                      else REDIAGNOSE)
    return session.score(original_cause=original_cause,
                         cause_count_attempts=cause_count_attempts)
