"""Deterministic, seed-driven generator of buggy MiniLang guests.

Each corpus seed maps to one generated application with one *planted*
defect drawn from six bug classes (round-robin over the seed, so any
contiguous seed range >= 6 covers every class):

=====================  ====================================================
Bug class              Planted defect
=====================  ====================================================
``data-race``          unlocked read-modify-write of a shared counter
``atomicity``          check-then-act window on a shared balance
``deadlock``           two mutexes taken in opposite orders
``order-violation``    consumer reads shared data before the producer's
                       write (missing wait)
``input-crash``        unvalidated input reaches a divide / array index
``lost-output``        unlocked slot-index read lets one produced item
                       overwrite another
=====================  ====================================================

Generation is a pure function of the corpus seed: the same seed yields a
byte-identical source program, the same ground-truth root cause, the
same failing scheduler seed, and the same failing-run trace digest.  The
generator validates each draw by actually running it: a draw is accepted
only when some production scheduler seed makes it fail *and* the trace
diagnosis of that failing run matches the planted bug class - that
diagnosis (planted kind, concrete site) becomes the case's ground truth,
so debugging fidelity can be scored against truth instead of a per-cell
re-diagnosis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.analysis.rootcause import Diagnoser
from repro.apps.base import AppCase, find_failing_seed
from repro.replay.search import InputSpace
from repro.util.intervals import Interval
from repro.vm.compiler import compile_source
from repro.vm.failures import IOSpec

BUG_CLASSES = ("data-race", "atomicity", "deadlock", "order-violation",
               "input-crash", "lost-output")

# The planted defect's diagnosis kind, per bug class (what the trace
# diagnosis of a true reproduction must report).
EXPECTED_KIND = {
    "data-race": "data-race",
    "atomicity": "data-race",
    "deadlock": "lock-cycle",
    "order-violation": "data-race",
    "input-crash": ("missing-zero-check", "missing-bounds-check"),
    "lost-output": "data-race",
}

# Scheduler seeds a draw is validated against; a draw that never fails
# (or fails for the wrong reason) on all of them is redrawn.
FAILING_SEED_RANGE = range(40)
MAX_PARAM_DRAWS = 8


@dataclass(eq=False)
class GeneratedCase(AppCase):
    """An :class:`AppCase` plus its generation provenance.

    ``known_cause`` (inherited) holds the ground-truth root cause of the
    planted defect; ``failing_seed`` is a production scheduler seed whose
    run is known to fail with that cause; ``failing_digest`` pins that
    run's complete observable behaviour.
    """

    corpus_seed: int = -1
    bug_class: str = ""
    failing_seed: int = -1
    failing_digest: str = ""
    source: str = ""

    def provenance(self) -> Dict[str, Any]:
        """JSON-able generation metadata (shipped in corpus artifacts)."""
        return {
            "seed": self.corpus_seed,
            "name": self.name,
            "bug_class": self.bug_class,
            "failing_seed": self.failing_seed,
            "failing_digest": self.failing_digest,
            "ground_truth": {"kind": self.known_cause.kind,
                             "site": self.known_cause.site},
        }


@dataclass
class _Draw:
    """One parameter draw: everything needed to assemble a candidate."""

    source: str
    switch_prob: float
    description: str
    inputs: Dict[str, List[Any]] = None
    io_spec: Optional[IOSpec] = None
    input_space: Optional[InputSpace] = None
    expected_kind: Any = None
    expected_site: Optional[str] = None


def _spin(var: str, count: int, indent: str = "        ") -> str:
    """A benign busy loop - pads schedules and varies program counters."""
    if count <= 0:
        return ""
    return (f"{indent}var {var} = {count};\n"
            f"{indent}while ({var} > 0) {{ {var} = {var} - 1; }}\n")


# -- per-class templates ------------------------------------------------------


def _draw_data_race(rng: random.Random) -> _Draw:
    iters = rng.randint(3, 7)
    workers = rng.choice((2, 2, 2, 3))
    gname = rng.choice(("acc", "counter", "hits", "total"))
    pad = rng.randint(0, 2)
    window = "        yield;\n" if rng.random() < 0.8 else _spin("w", 2)
    total = workers * iters
    spawns = "".join(f"    var t{i} = spawn worker({iters});\n"
                     for i in range(1, workers + 1))
    joins = "".join(f"    join(t{i});\n" for i in range(1, workers + 1))
    source = f"""// corpus: data-race (lost update on '{gname}')
global {gname} = 0;

fn worker(iters) {{
    while (iters > 0) {{
        // BUG: unlocked read-modify-write of the shared counter.
        var tmp = {gname};
{window}{_spin("p", pad)}        {gname} = tmp + 1;
        iters = iters - 1;
    }}
}}

fn main() {{
{spawns}{joins}    output("stdout", {gname});
    assert({gname} == {total}, "lost update");
}}
"""
    return _Draw(source=source,
                 switch_prob=rng.choice((0.05, 0.1, 0.2)),
                 description=f"{workers} workers lose updates to "
                             f"'{gname}' ({iters} iters each)",
                 expected_kind="data-race",
                 expected_site=f"('g', '{gname}')")


def _draw_atomicity(rng: random.Random) -> _Draw:
    gname = rng.choice(("balance", "budget", "credit"))
    withdraw = rng.randint(5, 9)
    deposit = withdraw - 1
    start = withdraw + rng.randint(0, 4)
    ops = rng.randint(4, 8)
    source = f"""// corpus: atomicity violation (check-then-act on '{gname}')
global {gname} = {start};
global oops = 0;
mutex guard;

fn teller(ops) {{
    while (ops > 0) {{
        // BUG: the check and the deduction are not atomic - two tellers
        // can both pass the check against the same stale value.
        var cur = {gname};
        if (cur >= {withdraw}) {{
            yield;
            var fresh = {gname};
            var newbal = fresh - {withdraw};
            {gname} = newbal;
            if (newbal < 0) {{
                lock(guard);
                oops = oops + 1;
                unlock(guard);
            }}
        }}
        var after = {gname};
        {gname} = after + {deposit};
        ops = ops - 1;
    }}
}}

fn main() {{
    var t1 = spawn teller({ops});
    var t2 = spawn teller({ops});
    join(t1);
    join(t2);
    output("stdout", {gname});
    output("stdout", oops);
    assert(oops == 0, "went negative");
}}
"""
    return _Draw(source=source,
                 switch_prob=rng.choice((0.25, 0.35, 0.45)),
                 description=f"check-then-act window drives '{gname}' "
                             f"negative ({ops} ops/teller)",
                 expected_kind="data-race",
                 expected_site=f"('g', '{gname}')")


def _draw_deadlock(rng: random.Random) -> _Draw:
    rounds_a = rng.randint(2, 5)
    rounds_b = rng.randint(2, 5)
    amount_a = rng.randint(2, 6)
    amount_b = rng.randint(2, 6)
    start = rng.choice((50, 80, 100))
    source = f"""// corpus: deadlock (opposite lock orders)
global res_a = {start};
global res_b = {start};
mutex lock_a;
mutex lock_b;

fn mover_ab(rounds) {{
    while (rounds > 0) {{
        // Locks taken in A-then-B order...
        lock(lock_a);
        lock(lock_b);
        res_a = res_a - {amount_a};
        res_b = res_b + {amount_a};
        unlock(lock_b);
        unlock(lock_a);
        rounds = rounds - 1;
    }}
}}

fn mover_ba(rounds) {{
    while (rounds > 0) {{
        // ...and here in B-then-A order: the classic cycle.
        lock(lock_b);
        lock(lock_a);
        res_b = res_b - {amount_b};
        res_a = res_a + {amount_b};
        unlock(lock_a);
        unlock(lock_b);
        rounds = rounds - 1;
    }}
}}

fn main() {{
    var t1 = spawn mover_ab({rounds_a});
    var t2 = spawn mover_ba({rounds_b});
    join(t1);
    join(t2);
    output("stdout", res_a);
    output("stdout", res_b);
}}
"""
    return _Draw(source=source,
                 switch_prob=rng.choice((0.2, 0.3, 0.4)),
                 description=f"lock-order cycle between movers "
                             f"({rounds_a}x{rounds_b} rounds)",
                 expected_kind="lock-cycle",
                 expected_site=None)  # site = where the cycle bit, per run


def _draw_order_violation(rng: random.Random) -> _Draw:
    value = rng.randint(2, 99)
    prod_spin = rng.randint(1, 4)
    main_spin = rng.randint(0, 2)
    gname = rng.choice(("config", "payload", "result"))
    source = f"""// corpus: order violation (read before init of '{gname}')
global {gname} = 0;
global ready = 0;

fn producer() {{
{_spin("warm", prod_spin, indent="    ")}    {gname} = {value};
    ready = 1;
}}

fn main() {{
    var t = spawn producer();
    // BUG: no wait on 'ready' - the read below can beat the write.
{_spin("w", main_spin, indent="    ")}    var seen = {gname};
    output("stdout", seen);
    assert(seen == {value}, "uninitialized read");
    join(t);
}}
"""
    return _Draw(source=source,
                 switch_prob=rng.choice((0.15, 0.25, 0.35)),
                 description=f"main reads '{gname}' before the producer "
                             f"initializes it",
                 expected_kind="data-race",
                 expected_site=f"('g', '{gname}')")


def _draw_input_crash(rng: random.Random) -> _Draw:
    if rng.random() < 0.5:
        # Divide by an unvalidated input.
        numerator = rng.randint(1, 3)
        filler = rng.randint(0, 3)
        hi = 3
        source = f"""// corpus: input-dependent crash (unvalidated divisor)
fn main() {{
    var n = input("req");
    var d = input("req");
    var acc = 0;
    var i = n;
    while (i > 0) {{
        acc = acc + d;
        i = i - 1;
    }}
{_spin("f", filler, indent="    ")}    // BUG: no zero check on the divisor.
    output("ans", acc / d);
}}
"""
        return _Draw(source=source,
                     switch_prob=0.0,
                     description="request with a zero divisor crashes the "
                                 "quotient path",
                     inputs={"req": [numerator, 0]},
                     input_space=InputSpace.grid(
                         {"req": (2, Interval(0, hi))}),
                     expected_kind="missing-zero-check",
                     expected_site=None)
    # Index an array with an unvalidated input.
    size = rng.randint(3, 5)
    filler = rng.randint(0, 2)
    source = f"""// corpus: input-dependent crash (unvalidated index)
array slots[{size}];

fn main() {{
    var i = input("req");
{_spin("f", filler, indent="    ")}    // BUG: no bounds check on the index.
    slots[i] = 7;
    output("ok", 1);
}}
"""
    return _Draw(source=source,
                 switch_prob=0.0,
                 description=f"request indexes one past a {size}-slot array",
                 inputs={"req": [size]},
                 input_space=InputSpace.grid({"req": (1, Interval(0, size))}),
                 expected_kind="missing-bounds-check",
                 expected_site=None)


def _draw_lost_output(rng: random.Random) -> _Draw:
    count = rng.randint(2, 4)
    total = 2 * count
    window = "        yield;\n" if rng.random() < 0.7 else _spin("z", 2)
    clause = "unique-slots"

    def unique_slots(outputs, inputs, _total=total) -> bool:
        claimed = outputs.get("work", [])
        if len(claimed) < _total:
            return True  # incomplete run: not this clause's business
        return len(set(claimed)) == len(claimed)

    source = f"""// corpus: lost output (racy slot claim overwrites an item)
global tail = 0;
mutex qm;

fn worker(count) {{
    while (count > 0) {{
        // BUG: the slot index is read outside the lock - two workers can
        // claim the same slot, and one produced item is lost.
        var slot = tail;
{window}        lock(qm);
        tail = slot + 1;
        unlock(qm);
        output("work", slot);
        count = count - 1;
    }}
}}

fn main() {{
    var t1 = spawn worker({count});
    var t2 = spawn worker({count});
    join(t1);
    join(t2);
    output("stats", tail);
}}
"""
    spec = IOSpec().require(clause, unique_slots,
                            "every produced item must land in its own slot")
    return _Draw(source=source,
                 switch_prob=rng.choice((0.1, 0.2, 0.3)),
                 description=f"racy slot claims lose produced items "
                             f"({count} per worker)",
                 io_spec=spec,
                 expected_kind="data-race",
                 expected_site="('g', 'tail')")


_TEMPLATES: Dict[str, Callable[[random.Random], _Draw]] = {
    "data-race": _draw_data_race,
    "atomicity": _draw_atomicity,
    "deadlock": _draw_deadlock,
    "order-violation": _draw_order_violation,
    "input-crash": _draw_input_crash,
    "lost-output": _draw_lost_output,
}


def _kind_matches(expected, kind: str) -> bool:
    if isinstance(expected, tuple):
        return kind in expected
    return kind == expected


# Per-process memo: generation is a pure function of the seed but pays
# draw validation runs, so the matrix's record and replay halves (and
# repeated bench sweeps) share one instance.  Cached cases are shared -
# treat them as immutable; every consumer copies ``inputs`` at use.
_CASE_CACHE: Dict[int, GeneratedCase] = {}


def generate_case(seed: int) -> GeneratedCase:
    """Generate the corpus case for one seed (pure function of the seed)."""
    case = _CASE_CACHE.get(seed)
    if case is None:
        case = _build_case(seed)
        _CASE_CACHE[seed] = case
    return case


def _build_case(seed: int) -> GeneratedCase:
    """Draw template parameters from ``random.Random(seed)`` until a
    draw's planted bug demonstrably fires: some scheduler seed in
    ``FAILING_SEED_RANGE`` produces a failing run whose trace diagnosis
    matches the planted class.  That diagnosis becomes the case's
    ground-truth cause, and the run's trace fingerprint its
    ``failing_digest``.
    """
    bug_class = BUG_CLASSES[seed % len(BUG_CLASSES)]
    rng = random.Random(seed)
    diagnoser = Diagnoser()
    last_error = "no draws attempted"
    for __ in range(MAX_PARAM_DRAWS):
        draw = _TEMPLATES[bug_class](rng)
        program = compile_source(draw.source)
        name = f"corpus_{bug_class.replace('-', '_')}_{seed:04d}"
        case = GeneratedCase(
            name=name,
            program=program,
            inputs={k: list(v) for k, v in (draw.inputs or {}).items()},
            io_spec=draw.io_spec or IOSpec(),
            input_space=(draw.input_space
                         or InputSpace.fixed(draw.inputs or {})),
            control_plane={"main"},
            switch_prob=draw.switch_prob,
            description=draw.description,
            corpus_seed=seed,
            bug_class=bug_class,
            source=draw.source,
        )

        def planted_bug_fired(machine) -> bool:
            cause = diagnoser.diagnose(machine.trace, machine.failure)
            if cause is None or not _kind_matches(draw.expected_kind,
                                                  cause.kind):
                return False
            if (draw.expected_site is not None
                    and cause.site != draw.expected_site):
                return False
            # The accepted run is the case's pinned failing run.
            case.known_cause = cause
            case.failing_digest = machine.trace.fingerprint()
            return True

        failing_seed = find_failing_seed(case, FAILING_SEED_RANGE,
                                         accept=planted_bug_fired)
        if failing_seed is None:
            last_error = (f"draw for class {bug_class!r} never fired on "
                          f"scheduler seeds {FAILING_SEED_RANGE!r}")
            continue
        case.failing_seed = failing_seed
        return case
    raise RuntimeError(
        f"corpus seed {seed}: {last_error} after {MAX_PARAM_DRAWS} draws")


def generate_corpus(seeds: Iterable[int]) -> List[GeneratedCase]:
    """Generate the corpus for a seed range, in seed order."""
    return [generate_case(seed) for seed in sorted(set(seeds))]
