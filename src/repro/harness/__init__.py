"""Experiment harness: regenerates every figure in the paper.

=============  ==========================================================
Experiment     What it reproduces
=============  ==========================================================
``fig1``       Figure 1: the relaxation trend - recording overhead vs
               debugging utility across the five determinism models,
               averaged over the MiniVM bug corpus.
``fig2``       Figure 2: the Hypertable issue-63 case study - overhead
               and debugging fidelity for value determinism, failure
               determinism, and control-plane RCSE.
``sec2_adder``        §2: output determinism misses the 2+2=5 failure.
``sec2_msgserver``    §2: failure determinism blames congestion, not the
                      buffer race.
``sec32_efficiency``  §3.2: execution synthesis can beat DE = 1 by
                      synthesizing a shorter failing execution.
=============  ==========================================================

Each experiment returns :class:`~repro.util.tables.Table` objects whose
rows are the series the paper plots; the benchmark suite executes them
under pytest-benchmark and asserts the qualitative shape.
"""

from repro.harness.experiments import MODEL_ORDER, evaluate_app_model
from repro.harness.fig1 import run_fig1
from repro.harness.fig2 import run_fig2
from repro.harness.sec2 import run_sec2_adder, run_sec2_msgserver
from repro.harness.sec32 import run_sec32_efficiency
from repro.harness.registry import EXPERIMENTS, run_experiment

__all__ = [
    "MODEL_ORDER", "evaluate_app_model",
    "run_fig1", "run_fig2", "run_sec2_adder", "run_sec2_msgserver",
    "run_sec32_efficiency", "EXPERIMENTS", "run_experiment",
]
