"""Figure 1: the relaxation trend, measured instead of sketched.

The paper's Figure 1 is qualitative ("not based on new measurements").
This harness produces its quantitative counterpart on the MiniVM bug
corpus: for every determinism model, the recording overhead and the
debugging utility achieved on each bug, plus a per-model summary.

Expected shape (what the bench asserts):

* overhead falls along the chronological relaxation
  full >= value > output > failure;
* ultra-relaxed models lose utility (output determinism scores DF = 0 on
  the adder; failure determinism drops to 1/n where several causes
  exist);
* debug determinism (RCSE) escapes the curve: overhead close to failure
  determinism's, utility at or near the maximum among relaxed models.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.apps import ALL_APPS
from repro.harness.experiments import evaluate_app_model
from repro.models import model_order
from repro.util.tables import Table

FIG1_APPS = ("racy_counter", "adder", "msg_server", "bank")


def run_fig1() -> Tuple[Table, Table]:
    """Return (per-cell table, per-model summary table).

    The models are the registry's core sweep order at call time.
    """
    models = model_order()
    cells = Table(["app", "model", "overhead_x", "DF", "DE", "DU",
                   "failure_reproduced"],
                  title="Fig.1 - per-bug determinism model comparison")
    for app_name in FIG1_APPS:
        case = ALL_APPS[app_name]()
        for model in models:
            metrics = evaluate_app_model(case, model)
            cells.add_row(
                app=app_name, model=model,
                overhead_x=round(metrics.overhead, 3),
                DF=round(metrics.fidelity, 3),
                DE=round(metrics.efficiency, 4),
                DU=round(metrics.utility, 4),
                failure_reproduced=metrics.failure_reproduced)
    summary = summarize_fig1(cells, models)
    return cells, summary


def summarize_fig1(cells: Table, models: Iterable[str]) -> Table:
    """Average each model's overhead/DF/DU across the corpus."""
    summary = Table(["model", "mean_overhead_x", "mean_DF", "mean_DU",
                     "bugs_reproduced"],
                    title="Fig.1 - relaxation trend (corpus averages)")
    for model in models:
        rows = [r for r in cells if r["model"] == model]
        if not rows:
            continue
        summary.add_row(
            model=model,
            mean_overhead_x=round(
                sum(r["overhead_x"] for r in rows) / len(rows), 3),
            mean_DF=round(sum(r["DF"] for r in rows) / len(rows), 3),
            mean_DU=round(sum(r["DU"] for r in rows) / len(rows), 4),
            bugs_reproduced=sum(
                1 for r in rows if r["failure_reproduced"]))
    return summary
