"""Inference-search throughput benchmarks (checkpoint + prune pipeline).

An output-determinism workload is searched under the pre-checkpoint
configuration (every candidate replayed from step 0 with full tracing)
and under the checkpointed, trace-free pipeline, and the floor tests pin
the speedup.  Root-cause enumeration's candidates are timed under the
``full`` and the sparse ``events`` trace mode, with a floor on their
ratio too.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_search.py
"""

import time

import pytest

from repro.analysis.rootcause import Diagnoser
from repro.apps import ALL_APPS
from repro.apps.base import find_failing_seed
from repro.models.session import cause_search
from repro.replay.search import (ExecutionSearch, InputSpace, SearchBudget,
                                 divergent_output_abort)
from repro.util.intervals import Interval
from repro.vm import assemble, run_program

pytestmark = pytest.mark.perf

# Shaped like the §2 parables: two input values are consumed with a chunk
# of compute after each, and every consumed value is echoed before the
# final answer - so a searcher that prunes can (a) kill wrong-first-value
# candidates at the first echoed output and (b) resume shared
# first-value prefixes from a checkpoint instead of re-running the first
# compute chunk.
SEARCH_SRC = """
fn main():
    input %a, "in"
    output "echo", %a
    const %i, 150
w1:
    jz %i, n1
    sub %i, %i, 1
    jmp w1
n1:
    input %b, "in"
    output "echo", %b
    const %j, 150
w2:
    jz %j, n2
    sub %j, %j, 1
    jmp w2
n2:
    add %s, %a, %b
    mul %p, %a, %b
    output "sum", %s
    output "prod", %p
    halt
"""

SEARCH_DOMAIN_HI = 7          # values 0..7 per slot -> 64 candidates
SEARCH_TARGET_INPUTS = [6, 7]  # late in lexicographic order

SEARCH_MODES = ("full_trace_scratch", "counting", "checkpoint_prune")


def _search_workload():
    program = assemble(SEARCH_SRC)
    recorded = run_program(program, inputs={"in": list(SEARCH_TARGET_INPUTS)})
    return program, {k: list(v) for k, v in recorded.env.outputs.items()}


def run_search_mode(mode, program, recorded_outputs):
    """One search over the workload under a named configuration.

    ``full_trace_scratch`` is the pre-checkpoint baseline: every
    candidate replayed from step 0 with full tracing.  ``counting`` runs
    candidates trace-free.  ``checkpoint_prune`` adds prefix-sharing
    forks and the divergent-output early abort (the default pipeline).
    """
    space = InputSpace.grid({"in": (2, Interval(0, SEARCH_DOMAIN_HI))})
    abort = None
    if mode == "full_trace_scratch":
        search = ExecutionSearch(program, space, schedule_seeds=range(1),
                                 prefix_sharing=False,
                                 candidate_trace_mode="full")
    elif mode == "counting":
        search = ExecutionSearch(program, space, schedule_seeds=range(1),
                                 prefix_sharing=False)
    else:
        search = ExecutionSearch(program, space, schedule_seeds=range(1))
        abort = divergent_output_abort(recorded_outputs)
    outcome = search.search(
        lambda m: m.env.outputs == recorded_outputs,
        budget=SearchBudget(max_attempts=5000),
        early_abort=abort)
    assert outcome.found, f"{mode}: search bench must find its target"
    assert (outcome.machine.trace.inputs_consumed["in"]
            == SEARCH_TARGET_INPUTS), f"{mode}: wrong candidate accepted"
    return outcome


@pytest.fixture(scope="module")
def workload():
    return _search_workload()


@pytest.mark.parametrize("mode", SEARCH_MODES)
def test_search_mode_finds_target(benchmark, workload, mode):
    program, recorded = workload
    outcome = benchmark(lambda: run_search_mode(mode, program, recorded))
    assert outcome.found
    assert outcome.machine.trace.inputs_consumed["in"] == \
        SEARCH_TARGET_INPUTS


def _candidates_per_sec(mode, program, recorded, repeats=3):
    run_search_mode(mode, program, recorded)  # warmup (decode, allocator)
    best = 0.0
    for __ in range(repeats):
        start = time.perf_counter()
        outcome = run_search_mode(mode, program, recorded)
        elapsed = time.perf_counter() - start
        best = max(best, outcome.attempts / elapsed)
    return best


def test_counting_search_is_2x_full_trace_search(workload):
    """The counting-mode pipeline must explore >=2x the candidates/sec.

    The measured gap on the reference container is ~10x (trace-free
    candidates + checkpoint forks + divergent-output aborts vs full-trace
    from-scratch candidates); the floor is deliberately conservative to
    survive hardware variance.
    """
    program, recorded = workload
    full = _candidates_per_sec("full_trace_scratch", program, recorded)
    pruned = _candidates_per_sec("checkpoint_prune", program, recorded)
    assert pruned >= 2 * full, (
        f"counting-mode search regressed: {pruned:,.0f} vs "
        f"{full:,.0f} candidates/sec (need >=2x)")


def test_checkpointed_search_is_3x_full_trace_search(workload):
    """The full checkpoint + prune pipeline must clear 3x the scratch
    baseline's candidates/sec."""
    program, recorded = workload
    full = _candidates_per_sec("full_trace_scratch", program, recorded)
    pruned = _candidates_per_sec("checkpoint_prune", program, recorded)
    assert pruned >= 3 * full, (
        f"checkpointed search regressed: {pruned:,.0f} vs "
        f"{full:,.0f} candidates/sec (need >=3x)")


def test_pruned_search_charges_fewer_inference_cycles(workload):
    """Cycle accounting must reflect the pruning, not just wall clock."""
    program, recorded = workload
    full = run_search_mode("full_trace_scratch", program, recorded)
    pruned = run_search_mode("checkpoint_prune", program, recorded)
    assert pruned.attempts == full.attempts, \
        "pruning must not change the candidate enumeration"
    assert pruned.inference_cycles * 3 < full.inference_cycles
    assert pruned.forked_candidates > 0
    assert pruned.aborted_candidates > 0
    assert pruned.saved_cycles > 0


# -- root-cause enumeration candidates ---------------------------------------
#
# The candidates count_root_causes enumerates for msg_server (its fixed
# input space under 24 scheduler seeds), each run from scratch and, when
# it shows the recorded failure, diagnosed - once per trace mode.

ENUMERATION_MODES = ("full", "events")


def enumeration_workload():
    """msg_server, its failure, and the candidates enumeration tries."""
    case = ALL_APPS["msg_server"]()
    failure = case.run(find_failing_seed(case)).failure
    search = cause_search(case)
    candidates = [(inputs, seed)
                  for inputs in search.input_space.candidates()
                  for seed in search.schedule_seeds]
    return case, failure, search, candidates


def run_enumeration_mode(mode: str, workload) -> set:
    """Run and diagnose every candidate in ``mode``; the distinct causes."""
    case, failure, search, candidates = workload
    diagnoser = Diagnoser(extra_rules=case.diagnoser_rules)
    causes = set()
    for inputs, seed in candidates:
        machine = search.run_candidate(inputs, seed, trace_mode=mode)
        if machine.failure is not None \
                and failure.same_failure(machine.failure):
            cause = diagnoser.diagnose(machine.trace, machine.failure)
            causes.add((cause.kind, cause.site))
    return causes


def bench_enumeration(repeats: int):
    """Best seconds and distinct causes per trace mode, after a warmup.

    The modes alternate inside each repeat, so both see the same host
    speed.
    """
    workload = enumeration_workload()
    causes = {mode: run_enumeration_mode(mode, workload)  # warmup
              for mode in ENUMERATION_MODES}
    best = {mode: float("inf") for mode in ENUMERATION_MODES}
    for __ in range(repeats):
        for mode in ENUMERATION_MODES:
            start = time.perf_counter()
            causes[mode] = run_enumeration_mode(mode, workload)
            best[mode] = min(best[mode], time.perf_counter() - start)
    return best, causes


def test_events_enumeration_is_1_25x_full_trace():
    """Enumeration candidates must run >=1.25x faster in events mode.

    msg_server's 24 enumeration candidates, each run from scratch and
    diagnosed, best of 5 with the two modes alternated in each repeat.
    This reads 1.7-2.0x on the 2-vCPU reference container; the floor is
    deliberately conservative to survive hardware variance.
    """
    best, causes = bench_enumeration(repeats=5)
    assert causes["events"] == causes["full"] and causes["full"]
    speedup = best["full"] / best["events"]
    assert speedup >= 1.25, (
        f"events-mode enumeration regressed: {speedup:.2f}x full trace "
        f"(need >=1.25x)")
