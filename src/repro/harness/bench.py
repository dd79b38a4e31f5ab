"""Substrate performance benchmarks: interpreter, trace queries, search.

The perf trajectory of the MiniVM hot path is tracked across PRs: the
workloads here are executed both by ``benchmarks/bench_interpreter.py`` /
``benchmarks/bench_search.py`` (pytest-benchmark, statistical) and by
``python -m repro bench`` (one command, prints the tables and writes
``BENCH_interpreter.json``; ``--section`` selects a subset).

Workloads cover the interpreter's main cost regimes:

``counter``    lock-protected shared counter, 3 threads (the historical
               ``test_vm_throughput`` workload; sync + shared memory).
``tight_loop`` single thread, pure register arithmetic + branches - the
               decode-dispatch floor.
``calls``      call/return-heavy recursion - frame allocation cost.
``array``      shared-array streaming - bounds-checked memory path.
``odr_replay`` one replay run of msg_server's recorded output-model log
               under its recorded sync order (``SyncOrderScheduler``
               around ``RandomScheduler``, as ``OdrReplayer`` runs its
               attempts) - the constrained-scheduler path every ODR
               replay search pays per step.

The ``search`` section measures inference-search throughput
(candidates/sec) on an output-determinism workload, comparing the
pre-PR-2 configuration (every candidate re-executed from step 0 with
full tracing) against trace-free candidates and the full checkpoint +
prune pipeline.  Its ``enumeration`` table times root-cause
enumeration's candidates - msg_server's 24, each run from scratch and
diagnosed - under the ``full`` and the sparse ``events`` trace mode.

The ``corpus`` section measures scenario-matrix throughput (evaluated
cells/sec) on a small generated-corpus sweep, sequentially and with a
2-worker pool - the number that bounds how many generated scenarios a
full sweep can score per second - plus the model-registry dispatch
cost: constructing every core model's recorder+replayer pair through
the registry versus through the concrete classes, showing registry
dispatch adds no measurable per-cell overhead.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.rootcause import Diagnoser
from repro.apps import ALL_APPS
from repro.apps.base import find_failing_seed
from repro.models import DebugSession
from repro.models.session import cause_search
from repro.replay.search import (ExecutionSearch, InputSpace, SearchBudget,
                                 divergent_output_abort)
from repro.util.intervals import Interval
from repro.util.tables import Table
from repro.vm import (Environment, Machine, RandomScheduler,
                      SyncOrderScheduler, assemble, run_program)
from repro.vm.trace import StepRecord, Trace

BENCH_SUMMARY_PATH = "BENCH_interpreter.json"
BENCH_SECTIONS = ("interpreter", "trace", "search", "corpus")

COUNTER_SRC = """
global counter = 0
mutex m
fn main():
    spawn %t1, worker, 300
    spawn %t2, worker, 300
    join %t1
    join %t2
    halt
fn worker(n):
loop:
    jz %n, done
    lock m
    load %c, counter
    add %c, %c, 1
    store counter, %c
    unlock m
    sub %n, %n, 1
    jmp loop
done:
    ret
"""

TIGHT_LOOP_SRC = """
fn main():
    const %n, 3000
    const %acc, 0
loop:
    jz %n, done
    add %acc, %acc, %n
    mul %t, %n, 2
    sub %n, %n, 1
    jmp loop
done:
    output "o", %acc
    halt
"""

CALLS_SRC = """
fn fib(n):
    lt %small, %n, 2
    jnz %small, base
    sub %a, %n, 1
    call %x, fib, %a
    sub %b, %n, 2
    call %y, fib, %b
    add %r, %x, %y
    ret %r
base:
    ret %n
fn main():
    call %r, fib, 12
    output "o", %r
    halt
"""

ARRAY_SRC = """
array buf 64
fn main():
    const %n, 1500
    const %i, 0
loop:
    jz %n, done
    mod %slot, %i, 64
    aload %v, buf, %slot
    add %v, %v, 1
    astore buf, %slot, %v
    add %i, %i, 1
    sub %n, %n, 1
    jmp loop
done:
    halt
"""

WORKLOADS = {
    "counter": (COUNTER_SRC, 1),
    "tight_loop": (TIGHT_LOOP_SRC, 0),
    "calls": (CALLS_SRC, 0),
    "array": (ARRAY_SRC, 0),
}


def run_workload(name: str):
    """Execute one named workload; returns the finished machine."""
    src, seed = WORKLOADS[name]
    return run_program(assemble(src), scheduler=RandomScheduler(seed=seed))


def odr_replay_runner() -> Callable[[], Machine]:
    """The ``odr_replay`` workload, set up once (msg_server's output-model
    log is recorded here); each call of the result is one replay run."""
    case = ALL_APPS["msg_server"]()
    log = DebugSession(case, "output").record()
    return lambda: Machine(
        case.program, env=Environment(inputs=log.inputs, seed=0),
        scheduler=SyncOrderScheduler(
            log.sync_order,
            inner=RandomScheduler(seed=0, switch_prob=0.3)),
        max_steps=max(log.total_steps * 4, 1000)).run()


def bench_interpreter(repeats: int = 3) -> Table:
    """Steps/sec for every workload (best of ``repeats``, post-warmup)."""
    table = Table(["workload", "steps", "seconds", "steps_per_sec"],
                  title="MiniVM interpreter throughput")
    runs = {}
    for name, (src, seed) in WORKLOADS.items():
        program = assemble(src)
        runs[name] = (lambda program=program, seed=seed: run_program(
            program, scheduler=RandomScheduler(seed=seed)))
    runs["odr_replay"] = odr_replay_runner()
    for name, run in runs.items():
        run()  # warmup
        best_rate = 0.0
        best_seconds = 0.0
        steps = 0
        for __ in range(max(1, repeats)):
            start = time.perf_counter()
            machine = run()
            elapsed = time.perf_counter() - start
            steps = machine.steps
            rate = steps / elapsed if elapsed > 0 else float("inf")
            if rate > best_rate:
                best_rate = rate
                best_seconds = elapsed
        table.add_row(workload=name, steps=steps, seconds=best_seconds,
                      steps_per_sec=round(best_rate))
    return table


# Shared trace-query benchmark shape: both the pytest-benchmark variant
# (benchmarks/bench_substrate.py::test_trace_query_cost) and `repro bench`
# measure the same synthetic trace and the same query mix.
TRACE_BENCH_STEPS = 100_000
TRACE_BENCH_LOCATIONS = 64
TRACE_BENCH_QUERIES = 2000


def last_write_query_hits(trace: Trace, n_queries: int = TRACE_BENCH_QUERIES,
                          n_locations: int = TRACE_BENCH_LOCATIONS) -> int:
    """Run the standard ``last_write_before`` query mix; returns hits."""
    n_steps = trace.total_steps
    hits = 0
    for i in range(n_queries):
        step = trace.last_write_before(("g", f"g{i % n_locations}"),
                                       (i * 37) % n_steps)
        if step is not None:
            hits += 1
    return hits


def build_synthetic_trace(n_steps: int = TRACE_BENCH_STEPS,
                          n_locations: int = TRACE_BENCH_LOCATIONS) -> Trace:
    """A large trace with a realistic mix of step kinds for query benches."""
    trace = Trace()
    for i in range(n_steps):
        kind = i % 10
        if kind < 6:  # pure register step
            trace.append(StepRecord(i, i % 3, "main", i % 500, "add", 1))
        elif kind < 8:
            loc = ("g", f"g{i % n_locations}")
            trace.append(StepRecord(i, i % 3, "main", i % 500, "store", 2,
                                    writes=[(loc, i)]))
        elif kind < 9:
            loc = ("g", f"g{i % n_locations}")
            trace.append(StepRecord(i, i % 3, "main", i % 500, "load", 2,
                                    reads=[(loc, i)]))
        else:
            trace.append(StepRecord(i, i % 3, "main", i % 500, "lock", 6,
                                    sync=("lock", "m")))
    return trace


def bench_trace_queries(n_steps: int = TRACE_BENCH_STEPS,
                        n_queries: int = TRACE_BENCH_QUERIES) -> Table:
    """Query cost on a large trace once the lazy indexes are built."""
    trace = build_synthetic_trace(n_steps)
    table = Table(["query", "trace_steps", "queries", "seconds",
                   "queries_per_sec"],
                  title="Trace query cost (indexed)")

    start = time.perf_counter()
    trace.sites_executed()  # builds every index
    build_seconds = time.perf_counter() - start
    table.add_row(query="index_build", trace_steps=n_steps, queries=1,
                  seconds=build_seconds,
                  queries_per_sec=round(1 / build_seconds)
                  if build_seconds > 0 else 0)

    start = time.perf_counter()
    last_write_query_hits(trace, n_queries)
    elapsed = time.perf_counter() - start
    table.add_row(query="last_write_before", trace_steps=n_steps,
                  queries=n_queries, seconds=elapsed,
                  queries_per_sec=round(n_queries / elapsed)
                  if elapsed > 0 else 0)

    start = time.perf_counter()
    for i in range(n_queries):
        trace.steps_at_site(f"main@{i % 500}")
    elapsed = time.perf_counter() - start
    table.add_row(query="steps_at_site", trace_steps=n_steps,
                  queries=n_queries, seconds=elapsed,
                  queries_per_sec=round(n_queries / elapsed)
                  if elapsed > 0 else 0)

    start = time.perf_counter()
    for __ in range(20):
        trace.sites_executed()
    elapsed = time.perf_counter() - start
    table.add_row(query="sites_executed", trace_steps=n_steps, queries=20,
                  seconds=elapsed,
                  queries_per_sec=round(20 / elapsed) if elapsed > 0 else 0)
    return table


# -- inference-search throughput ---------------------------------------------
#
# An output-determinism inference workload shaped like the §2 parables:
# two input values are consumed with a chunk of compute after each, and
# every consumed value is echoed before the final answer - so a searcher
# that prunes can (a) kill wrong-first-value candidates at the first
# echoed output and (b) resume shared first-value prefixes from a
# checkpoint instead of re-running the first compute chunk.
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

# mode -> ExecutionSearch/search() configuration.
SEARCH_MODES = ("full_trace_scratch", "counting", "checkpoint_prune")


def _search_workload():
    program = assemble(SEARCH_SRC)
    recorded = run_program(program, inputs={"in": list(SEARCH_TARGET_INPUTS)})
    return program, {k: list(v) for k, v in recorded.env.outputs.items()}


def run_search_mode(mode: str, program=None, recorded_outputs=None):
    """One search over the workload under a named configuration.

    ``full_trace_scratch`` is the pre-checkpoint baseline: every
    candidate replayed from step 0 with full tracing.  ``counting`` runs
    candidates trace-free.  ``checkpoint_prune`` adds prefix-sharing
    forks and the divergent-output early abort (the default pipeline).
    """
    if program is None:
        program, recorded_outputs = _search_workload()
    space = InputSpace.grid({"in": (2, Interval(0, SEARCH_DOMAIN_HI))})
    if mode == "full_trace_scratch":
        search = ExecutionSearch(program, space, schedule_seeds=range(1),
                                 prefix_sharing=False,
                                 candidate_trace_mode="full")
        abort = None
    elif mode == "counting":
        search = ExecutionSearch(program, space, schedule_seeds=range(1),
                                 prefix_sharing=False)
        abort = None
    elif mode == "checkpoint_prune":
        search = ExecutionSearch(program, space, schedule_seeds=range(1))
        abort = divergent_output_abort(recorded_outputs)
    else:
        raise ValueError(f"unknown search bench mode {mode!r}")
    outcome = search.search(
        lambda m: m.env.outputs == recorded_outputs,
        budget=SearchBudget(max_attempts=5000),
        early_abort=abort)
    assert outcome.found, f"{mode}: search bench must find its target"
    assert (outcome.machine.trace.inputs_consumed["in"]
            == SEARCH_TARGET_INPUTS), f"{mode}: wrong candidate accepted"
    return outcome


def bench_search(repeats: int = 3) -> Table:
    """Candidates/sec per search mode (best of ``repeats``, post-warmup)."""
    program, recorded_outputs = _search_workload()
    table = Table(["mode", "attempts", "seconds", "candidates_per_sec",
                   "speedup_vs_full"],
                  title="Inference search throughput (output determinism)")
    baseline_rate = None
    for mode in SEARCH_MODES:
        run_search_mode(mode, program, recorded_outputs)  # warmup
        best_rate = 0.0
        best_seconds = 0.0
        attempts = 0
        for __ in range(max(1, repeats)):
            start = time.perf_counter()
            outcome = run_search_mode(mode, program, recorded_outputs)
            elapsed = time.perf_counter() - start
            attempts = outcome.attempts
            rate = attempts / elapsed if elapsed > 0 else float("inf")
            if rate > best_rate:
                best_rate = rate
                best_seconds = elapsed
        if baseline_rate is None:
            baseline_rate = best_rate
        table.add_row(mode=mode, attempts=attempts, seconds=best_seconds,
                      candidates_per_sec=round(best_rate),
                      speedup_vs_full=round(best_rate / baseline_rate, 2))
    return table


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


def bench_enumeration(repeats: int = 3) -> Table:
    """Enumeration candidates/sec per trace mode (best of ``repeats``).

    The modes alternate inside each repeat, so both see the same host
    speed.
    """
    workload = enumeration_workload()
    n_candidates = len(workload[3])
    table = Table(["mode", "candidates", "seconds", "candidates_per_sec",
                   "speedup_vs_full", "causes"],
                  title="Root-cause enumeration candidates (msg_server, "
                        "run + diagnose)")
    best = {mode: float("inf") for mode in ENUMERATION_MODES}
    causes = {mode: run_enumeration_mode(mode, workload)  # warmup
              for mode in ENUMERATION_MODES}
    for __ in range(max(1, repeats)):
        for mode in ENUMERATION_MODES:
            start = time.perf_counter()
            causes[mode] = run_enumeration_mode(mode, workload)
            best[mode] = min(best[mode], time.perf_counter() - start)
    for mode in ENUMERATION_MODES:
        table.add_row(mode=mode, candidates=n_candidates,
                      seconds=best[mode],
                      candidates_per_sec=round(n_candidates / best[mode]),
                      speedup_vs_full=round(best["full"] / best[mode], 2),
                      causes=len(causes[mode]))
    return table


# -- corpus-matrix throughput -------------------------------------------------

CORPUS_BENCH_SEEDS = 6
CORPUS_BENCH_MODELS = ("full", "failure", "rcse")
# (jobs, seeds): the historical 6-seed sweep (fixed worker-spawn cost
# dominates its ~0.1s of work) plus a 3-round sweep long enough for the
# supervised fleet's warm workers and batched dispatch to amortize it -
# the scale a real matrix run actually operates at.
CORPUS_BENCH_CONFIGS = ((1, 6), (2, 6), (1, 18), (2, 18))


def bench_corpus(repeats: int = 3) -> Table:
    """Matrix cells/sec per (worker count, sweep size)."""
    # Imported lazily: repro.corpus.matrix imports this package.
    from repro.corpus.matrix import run_matrix
    from repro.models import session
    table = Table(["jobs", "seeds", "cells", "seconds", "cells_per_sec"],
                  title="Corpus matrix throughput (generated scenarios)")
    # Warmup: fills this process's generation cache and decode caches so
    # the jobs=1 timing measures evaluation, not first-touch setup (fleet
    # workers fork from this process and inherit the warm caches).
    run_matrix(range(max(s for __, s in CORPUS_BENCH_CONFIGS)),
               models=CORPUS_BENCH_MODELS, jobs=1)
    for jobs, n_seeds in CORPUS_BENCH_CONFIGS:
        best_rate = 0.0
        best_seconds = 0.0
        cells = 0
        for __ in range(max(1, repeats)):
            # The warmup also filled the cause-count cache; every timed
            # sweep enumerates its cases' root causes again, as a cold
            # sweep does.
            session.clear_cause_counts()
            start = time.perf_counter()
            results = run_matrix(range(n_seeds),
                                 models=CORPUS_BENCH_MODELS,
                                 jobs=jobs)
            elapsed = time.perf_counter() - start
            cells = results["timing"]["cells"]
            rate = cells / elapsed if elapsed > 0 else float("inf")
            if rate > best_rate:
                best_rate = rate
                best_seconds = elapsed
        table.add_row(jobs=jobs, seeds=n_seeds, cells=cells,
                      seconds=best_seconds, cells_per_sec=round(best_rate))
    return table


DISPATCH_ROUNDS = 300


def _dispatch_direct(config, log):
    """Baseline: the five (recorder, replayer) pairs from concrete classes.

    Mirrors the pre-registry string-keyed factories, inlined.
    """
    from repro.analysis.triggers import RaceTrigger
    from repro.record import (FailureRecorder, FullRecorder, OutputMode,
                              OutputRecorder, SelectiveRecorder,
                              ValueRecorder)
    from repro.replay import (DeterministicReplayer, ExecutionSynthesizer,
                              OdrReplayer, SelectiveReplayer, ValueReplayer)
    from repro.replay.search import SearchBudget
    return (
        (FullRecorder(), DeterministicReplayer()),
        (ValueRecorder(), ValueReplayer()),
        (OutputRecorder(OutputMode.IO_PATH_SCHED),
         OdrReplayer(inner_seeds=range(48))),
        (FailureRecorder(),
         ExecutionSynthesizer(config.input_space,
                              schedule_seeds=range(48),
                              net_drop_rate=config.net_drop_rate,
                              budget=SearchBudget(max_attempts=600))),
        (SelectiveRecorder(control_plane=config.control_plane,
                           triggers=[RaceTrigger()],
                           dialdown_quiet_steps=400),
         SelectiveReplayer(base_inputs=config.inputs,
                           net_drop_rate=config.net_drop_rate,
                           target_failure=log.failure)),
    )


def _dispatch_registry(config, log):
    """The same five pairs, constructed through the model registry."""
    from repro.models import get_model, model_order
    return tuple(
        (get_model(name).make_recorder(config),
         get_model(name).make_replayer(config, log))
        for name in model_order())


def bench_model_dispatch(repeats: int = 3, rounds: int = DISPATCH_ROUNDS
                         ) -> Table:
    """Model-construction throughput: registry dispatch vs direct classes.

    One "construction" is all five core models' recorder+replayer pairs
    for one cell.  The matrix pays this once per cell, so as long as
    both variants run in the tens of microseconds the registry is free
    at matrix scale (cells take ~10ms each).
    """
    from repro.corpus.generator import generate_case
    from repro.models import DebugSession, ModelConfig
    case = generate_case(0)
    config = ModelConfig.from_case(case)
    session = DebugSession(case, "failure", seed=case.failing_seed)
    log = session.record()
    table = Table(["variant", "constructions", "seconds",
                   "constructions_per_sec"],
                  title="Model dispatch cost (5-model recorder+replayer "
                        "construction per cell)")
    for variant, build in (("direct_classes", _dispatch_direct),
                           ("registry", _dispatch_registry)):
        build(config, log)  # warmup (first-touch imports)
        best_rate = 0.0
        best_seconds = 0.0
        for __ in range(max(1, repeats)):
            start = time.perf_counter()
            for __r in range(rounds):
                build(config, log)
            elapsed = time.perf_counter() - start
            rate = rounds / elapsed if elapsed > 0 else float("inf")
            if rate > best_rate:
                best_rate = rate
                best_seconds = elapsed
        table.add_row(variant=variant, constructions=rounds,
                      seconds=best_seconds,
                      constructions_per_sec=round(best_rate))
    return table


def write_summary(interpreter: Optional[Table] = None,
                  queries: Optional[Table] = None,
                  path: str = BENCH_SUMMARY_PATH,
                  search: Optional[Table] = None,
                  corpus: Optional[Table] = None,
                  dispatch: Optional[Table] = None,
                  enumeration: Optional[Table] = None) -> Dict[str, Any]:
    """Write the machine-readable perf summary tracked across PRs.

    Sections not measured this run (``None``) are carried over from the
    existing summary file, so ``--section`` runs don't drop history.
    """
    summary: Dict[str, Any] = {"benchmark": "minivm-interpreter"}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
        for key in ("workloads", "trace_queries", "search", "enumeration",
                    "corpus", "model_dispatch"):
            if key in previous:
                summary[key] = previous[key]
    except (OSError, ValueError):
        pass
    if interpreter is not None:
        summary["workloads"] = {row["workload"]: {
            "steps": row["steps"],
            "steps_per_sec": row["steps_per_sec"],
        } for row in interpreter}
    if queries is not None:
        summary["trace_queries"] = {row["query"]: {
            "trace_steps": row["trace_steps"],
            "queries_per_sec": row["queries_per_sec"],
        } for row in queries}
    if search is not None:
        summary["search"] = {row["mode"]: {
            "attempts": row["attempts"],
            "candidates_per_sec": row["candidates_per_sec"],
            "speedup_vs_full": row["speedup_vs_full"],
        } for row in search}
    if enumeration is not None:
        summary["enumeration"] = {row["mode"]: {
            "candidates": row["candidates"],
            "candidates_per_sec": row["candidates_per_sec"],
            "speedup_vs_full": row["speedup_vs_full"],
            "causes": row["causes"],
        } for row in enumeration}
    if corpus is not None:
        summary["corpus"] = {
            f"jobs_{row['jobs']}_seeds_{row['seeds']}": {
                "cells": row["cells"],
                "cells_per_sec": row["cells_per_sec"],
            } for row in corpus}
    if dispatch is not None:
        summary["model_dispatch"] = {row["variant"]: {
            "constructions_per_sec": row["constructions_per_sec"],
        } for row in dispatch}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def run_bench(path: str = BENCH_SUMMARY_PATH,
              repeats: int = 3,
              sections: Optional[Sequence[str]] = None) -> List[Table]:
    """The ``python -m repro bench`` entry point."""
    selected = tuple(sections) if sections else BENCH_SECTIONS
    unknown = set(selected) - set(BENCH_SECTIONS)
    if unknown:
        raise ValueError(f"unknown bench sections: {sorted(unknown)}")
    tables: List[Table] = []
    interpreter = queries = search = enumeration = corpus = dispatch = None
    if "interpreter" in selected:
        interpreter = bench_interpreter(repeats=repeats)
        tables.append(interpreter)
    if "trace" in selected:
        queries = bench_trace_queries()
        tables.append(queries)
    if "search" in selected:
        search = bench_search(repeats=repeats)
        tables.append(search)
        enumeration = bench_enumeration(repeats=repeats)
        tables.append(enumeration)
    if "corpus" in selected:
        corpus = bench_corpus(repeats=repeats)
        tables.append(corpus)
        dispatch = bench_model_dispatch(repeats=repeats)
        tables.append(dispatch)
    write_summary(interpreter, queries, path=path, search=search,
                  corpus=corpus, dispatch=dispatch, enumeration=enumeration)
    return tables
