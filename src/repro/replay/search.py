"""Budgeted execution search: the inference engine behind relaxed replay.

Ultra-relaxed determinism models record little and *infer* the rest after
the failure.  In this substrate, inference is an explicit search over the
unrecorded non-determinism: candidate input assignments (an
:class:`InputSpace`) crossed with candidate schedules (seeds for the
production scheduler), executed under the same program and accepted by a
model-specific predicate (e.g. "outputs match the log" for output
determinism, "failure signature matches the core dump" for failure
determinism).

Every explored execution's cycles are charged to the inference budget -
this is the paper's "prohibitively large post-factum analysis times"
failure mode made measurable.

Checkpointed, trace-free candidate search
-----------------------------------------
Three optimizations make the search budget go further without changing
which candidate is accepted (enumeration order is preserved):

* **Trace-free candidates.**  After the first, candidate runs execute
  in the machine's ``counting`` trace mode: no per-step
  :class:`StepRecord` is allocated; only step/cycle counts, the failure
  signature, the output log, and branch paths survive.  An accepted
  trace-free candidate is re-run once with full tracing ("record less,
  infer more", applied to the inference engine itself).  The first
  candidate runs with full tracing, so a replay accepted on its first
  try is the run itself, with no re-run.  A search that dedupes on a
  diagnosis (root-cause enumeration) runs its candidates in the sparse
  ``events`` mode instead: a diagnosis reads only the steps with
  shared-memory, sync or I/O effects, so each candidate keeps exactly
  those and is diagnosed as it ran, with no re-run.
* **Prefix sharing.**  Candidates with the same schedule seed are a tree
  over input assignments: two candidates behave identically until the
  first differing input value is consumed.  The search checkpoints the
  machine at input-consumption points (:meth:`Machine.snapshot`) and
  resumes the next candidate by *forking* the deepest shared checkpoint
  instead of replaying from step 0.  A checkpoint is used only by the
  next assignment under its seed, and only if that assignment agrees
  with every value consumed before it (:class:`_Witness`), so a
  candidate snapshots while the next assignment agrees with all it has
  consumed; no fork is lost.
* **Early abort.**  An ``early_abort`` hook sees every executed I/O step
  and may kill the candidate immediately; :func:`divergent_output_abort`
  stops output-determinism candidates at the first output value that can
  no longer lead to log equality, instead of running them to
  ``max_steps``.

The budget's cycle ceiling is enforced *inside* each candidate run (the
remaining allowance is passed to the machine as ``max_native_cycles``),
so a single candidate can no longer overshoot ``max_cycles`` by an
entire ``max_steps`` execution.

ODR and RCSE replays search through this same loop: a ``build`` hook
makes their candidate machines (see :class:`ExecutionSearch`), and a
candidate whose scheduler raises
:class:`~repro.errors.ReplayDivergenceError` is rejected and charged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.errors import ReplayDivergenceError
from repro.util.intervals import Interval
from repro.vm.environment import Environment
from repro.vm.failures import IOSpec
from repro.vm.machine import EarlyAbort, Machine
from repro.vm.program import Program
from repro.vm.scheduler import RandomScheduler
from repro.vm.thread import ThreadStatus
from repro.vm.trace import StepRecord


@dataclass
class SearchBudget:
    """Bounds on the inference search (``max_cycles=None``: no ceiling)."""

    max_attempts: int = 2000
    max_cycles: Optional[int] = 50_000_000

    def allows(self, attempts: int, cycles: int) -> bool:
        return attempts < self.max_attempts and (
            self.max_cycles is None or cycles < self.max_cycles)

    def remaining_cycles(self, cycles: int) -> Optional[int]:
        if self.max_cycles is None:
            return None
        return max(self.max_cycles - cycles, 0)


def divergent_output_abort(recorded_outputs: Dict[str, List[Any]]
                           ) -> EarlyAbort:
    """Early-abort hook for exact-output acceptors.

    Outputs only ever append, so the moment a run's output log stops
    being a prefix of the recorded log - wrong value, extra value, or an
    unrecorded channel - final equality is impossible and the candidate
    can be killed at that very ``output`` step.  Syscall-driven outputs
    (e.g. ``net_send``) are left to the final check; the hook only aborts
    when divergence is certain.
    """
    recorded = {channel: list(values)
                for channel, values in recorded_outputs.items()}

    def abort(machine: Machine, record: StepRecord) -> bool:
        io = record.io
        if io[0] != "output":
            return False
        produced = machine.env.outputs[io[1]]
        want = recorded.get(io[1])
        count = len(produced)
        return (want is None or count > len(want)
                or want[count - 1] != produced[-1])

    return abort


class InputSpace:
    """Enumerable candidate input assignments for inference.

    An input space captures what a debugging engineer legitimately knows
    about the program's input format (channels, how many values, domains)
    without knowing the concrete values of the failed run.
    """

    def __init__(self, generator: Callable[[], Iterator[Dict[str, List[Any]]]],
                 description: str = ""):
        self._generator = generator
        self.description = description

    def candidates(self) -> Iterator[Dict[str, List[Any]]]:
        return self._generator()

    @staticmethod
    def fixed(inputs: Dict[str, List[Any]]) -> "InputSpace":
        """A single known assignment (inputs were recorded)."""
        def gen():
            yield {k: list(v) for k, v in inputs.items()}
        return InputSpace(gen, "fixed")

    @staticmethod
    def grid(shape: Dict[str, Tuple[int, Interval]]) -> "InputSpace":
        """Exhaustive grid: ``channel -> (count, domain interval)``.

        Enumerates every combination of values for every channel slot in
        lexicographic order.  Exponential, as real input inference is;
        meant for small domains (and for demonstrating the blow-up).
        Lexicographic order is also what makes checkpoint reuse
        effective: consecutive candidates share long value prefixes.
        """
        channels = sorted(shape.items())

        def gen():
            slots = []
            for channel, (count, domain) in channels:
                slots.extend((channel, list(domain)) for _ in range(count))
            domains = [values for _, values in slots]
            for combo in itertools.product(*domains):
                candidate: Dict[str, List[Any]] = {}
                for (channel, _), value in zip(slots, combo):
                    candidate.setdefault(channel, []).append(value)
                yield candidate
        total = 1
        for __, (count, domain) in channels:
            total *= max(len(domain), 1) ** count
        return InputSpace(gen, f"grid({total} candidates)")

    @staticmethod
    def choices(options: Sequence[Dict[str, List[Any]]]) -> "InputSpace":
        """An explicit list of candidate assignments."""
        def gen():
            for option in options:
                yield {k: list(v) for k, v in option.items()}
        return InputSpace(gen, f"choices({len(options)})")


@dataclass
class SearchOutcome:
    """Result of one inference search.

    ``inference_cycles`` counts the cycles *charged to exploration*: every
    rejected/aborted/truncated candidate, plus - in a search with a
    ``dedupe_key`` - the accepted candidates themselves.  The returned
    ``machine``'s own execution (the replay the caller gets to keep) is
    excluded, and the full-trace materialization of an accepted
    trace-free candidate is never charged; the budget's cycle ceiling
    therefore genuinely bounds ``inference_cycles``.
    """

    machine: Optional[Machine]
    attempts: int = 0
    inference_cycles: int = 0
    found: bool = False
    # Every distinct accepted machine in a search with a dedupe_key.
    all_accepted: List[Machine] = field(default_factory=list)
    # Exploration charge refunded for the accepted execution; callers
    # that end up reporting a *different* execution as their replay
    # (e.g. synthesis minimization) must re-charge this to inference.
    refunded_cycles: int = 0
    # Diagnostics for the checkpoint/prune machinery.
    aborted_candidates: int = 0       # killed by the early-abort hook
    capped_candidates: int = 0        # truncated by the cycle ceiling
    diverged_candidates: int = 0      # scheduler raised ReplayDivergenceError
    forked_candidates: int = 0        # resumed from a prefix checkpoint
    saved_cycles: int = 0             # prefix cycles not re-executed
    materialized_runs: int = 0        # full-trace re-runs of accepted runs


class _Checkpoint:
    """A frozen machine snapshot taken right after one input consumption.

    ``tid``/``dst`` identify the consuming thread and its destination
    register, which is everything (besides the consumed-input log entry)
    through which the consumed value has influenced machine state at the
    snapshot instant - the basis for retargeting (below).
    """

    __slots__ = ("machine", "tid", "channel", "dst")

    def __init__(self, machine: Machine, tid: int, channel: str, dst: str):
        self.machine = machine
        self.tid = tid
        self.channel = channel
        self.dst = dst


def _agrees(inputs: Dict[str, List[Any]], cursors: Dict[str, int],
            channel: str, value: Any) -> bool:
    """Whether ``value`` is the next value ``inputs`` holds on
    ``channel`` past ``cursors``; if so, the cursor moves past it."""
    cursor = cursors.get(channel, 0)
    values = inputs.get(channel)
    if values is None or cursor >= len(values) or values[cursor] != value:
        return False
    cursors[channel] = cursor + 1
    return True


def _agreement(consumed: Sequence[Tuple[str, Any]],
               inputs: Dict[str, List[Any]],
               limit: int) -> Tuple[int, Dict[str, int]]:
    """How many leading values of ``consumed`` (at most ``limit``)
    ``inputs`` reproduces, and its per-channel cursors past them."""
    cursors: Dict[str, int] = {}
    agreed = 0
    for channel, value in consumed:
        if agreed >= limit or not _agrees(inputs, cursors, channel, value):
            break
        agreed += 1
    return agreed, cursors


class _Witness:
    """The input assignment after a running candidate's, while it agrees
    with every value the candidate has consumed.

    Only that assignment can use a checkpoint the candidate takes: it
    runs next under the same seed, and its run keeps the seed's chain
    only up to the checkpoint it forks, so every deeper one is dropped
    before a later assignment plans.  It forks the checkpoint taken at a
    consumption, or a deeper one, only if it agrees with every value
    consumed before that consumption.  So the candidate snapshots while
    :attr:`inputs` is set: it is None from the first value the
    assignment does not reproduce on, and when the space holds no next
    assignment.
    """

    __slots__ = ("inputs", "_cursors")

    def __init__(self, inputs: Optional[Dict[str, List[Any]]],
                 consumed: Sequence[Tuple[str, Any]], count: int):
        self.inputs = inputs
        self._cursors: Dict[str, int] = {}
        if inputs is not None:
            agreed, self._cursors = _agreement(consumed, inputs, count)
            if agreed < count:
                self.inputs = None

    def consumed(self, channel: str, value: Any) -> None:
        """Follow the candidate past one more consumed value."""
        if self.inputs is not None \
                and not _agrees(self.inputs, self._cursors, channel, value):
            self.inputs = None


class _SeedCheckpoints:
    """Per-schedule-seed checkpoint chain from the previous candidate.

    ``consumed`` is the flattened ``(channel, value)`` consumption
    sequence of the run the checkpoints describe; ``checkpoints[k]`` was
    snapshotted right after the ``k+1``-th consumption (the list may be
    shorter than ``consumed`` when the checkpoint cap was hit, or from
    the first consumption that the next assignment cannot fork: see
    :class:`_Witness`).

    Two resumption flavours:

    * **Strict prefix**: the candidate reproduces the first ``k``
      consumed values verbatim - fork ``checkpoints[k-1]``, swap in the
      remaining pending inputs, run.
    * **Retarget** (trace-free candidates only): the candidate diverges
      *at* consumption ``k``.  At that snapshot instant the consumed
      value has influenced nothing but the destination register and the
      consumed-input log (the input step's schedule position and every
      RNG stream are value-independent), so the fork rewrites those two
      cells and continues - sharing the entire prefix up to and
      including the divergent input step.  Full- and events-trace
      candidates cannot retarget: their trace already holds the old
      value's input step record.
    """

    __slots__ = ("consumed", "checkpoints")

    def __init__(self):
        self.consumed: List[Tuple[str, Any]] = []
        self.checkpoints: List[_Checkpoint] = []

    def plan(self, inputs: Dict[str, List[Any]],
             allow_retarget: bool) -> Tuple[int, bool]:
        """Choose the deepest usable checkpoint for candidate ``inputs``.

        Returns ``(fork_len, retarget)``: fork ``checkpoints[fork_len-1]``
        (0 = run from scratch); with ``retarget`` the forked state's last
        consumption is rewritten to the candidate's value.
        """
        strict, cursors = _agreement(self.consumed, inputs,
                                     len(self.checkpoints))
        fork_len, retarget = strict, False
        if (allow_retarget and strict < len(self.consumed)
                and strict < len(self.checkpoints)):
            channel, __ = self.consumed[strict]
            cursor = cursors.get(channel, 0)
            values = inputs.get(channel)
            if values is not None and cursor < len(values):
                fork_len, retarget = strict + 1, True
        while fork_len > 0 \
                and not self._availability_compatible(inputs, fork_len):
            fork_len -= 1
            retarget = False
        return fork_len, retarget

    def _availability_compatible(self, inputs: Dict[str, List[Any]],
                                 fork_len: int) -> bool:
        """Would the candidate have reached this checkpoint identically?

        Input-*blocking* is an availability observation, not a value: a
        thread that blocked because a channel ran dry executed (and was
        scheduled) differently than it would under a candidate with more
        values on that channel.  A checkpoint holding a thread in
        ``BLOCKED_INPUT`` is therefore only resumable for candidates
        that have that channel equally exhausted at this point.
        """
        machine = self.checkpoints[fork_len - 1].machine
        blocked = [thread.blocked_on for thread in machine.threads.values()
                   if thread.status is ThreadStatus.BLOCKED_INPUT]
        if not blocked:
            return True
        counts: Dict[str, int] = {}
        for channel, __ in self.consumed[:fork_len]:
            counts[channel] = counts.get(channel, 0) + 1
        for channel in blocked:
            values = inputs.get(channel)
            if values is not None and len(values) > counts.get(channel, 0):
                return False
        return True

    def value_at(self, inputs: Dict[str, List[Any]], position: int) -> Any:
        """The candidate's value for consumption ``position`` (0-based)."""
        channel = self.consumed[position][0]
        cursor = 0
        for other, __ in self.consumed[:position]:
            if other == channel:
                cursor += 1
        return inputs[channel][cursor]

    def remaining_inputs(self, inputs: Dict[str, List[Any]],
                         prefix_len: int) -> Dict[str, List[Any]]:
        """Candidate inputs minus the ``prefix_len`` consumed values."""
        cursors: Dict[str, int] = {}
        for channel, __ in self.consumed[:prefix_len]:
            cursors[channel] = cursors.get(channel, 0) + 1
        return {channel: list(values[cursors.get(channel, 0):])
                for channel, values in inputs.items()}

    def rebase(self, prefix_len: int,
               consumed: List[Tuple[str, Any]],
               checkpoints: List[_Checkpoint]) -> None:
        """Keep the shared prefix, replace the tail with the new run's."""
        self.consumed = self.consumed[:prefix_len] + consumed
        self.checkpoints = self.checkpoints[:prefix_len] + checkpoints


# Makes one unrun candidate machine from ``(inputs, seed, trace_mode)``.
CandidateBuilder = Callable[[Dict[str, List[Any]], int, str], Machine]

# A default candidate's environment is seeded ``ENV_SEED_BASE + seed``.
ENV_SEED_BASE = 10_000
# Checkpoints one candidate's run may add to its seed's chain.
MAX_CHECKPOINTS = 32


class ExecutionSearch:
    """Searches (inputs x schedules) for an execution accepted by a predicate.

    A candidate defaults to the program under an :class:`Environment`
    seeded ``ENV_SEED_BASE + seed`` and a :class:`RandomScheduler`
    seeded ``seed``.  ``build(inputs, seed, trace_mode)`` replaces that
    default: it returns the unrun machine with its own environment,
    scheduler, limits, feeds and interceptor (the search still sets the
    cycle ceiling and the early-abort hook).  A fork drops a machine's
    observers and shares its interceptor; that is safe because the
    search forks only across input assignments, so over the one fixed
    assignment the ODR and RCSE replayers search, every candidate is
    built and run from scratch.
    """

    def __init__(self,
                 program: Program,
                 input_space: InputSpace,
                 schedule_seeds: Iterable[int] = range(16),
                 io_spec: Optional[IOSpec] = None,
                 net_drop_rate: float = 0.0,
                 switch_prob: float = 0.25,
                 max_steps: int = 500_000,
                 build: Optional[CandidateBuilder] = None,
                 prefix_sharing: bool = True,
                 candidate_trace_mode: str = "counting"):
        self.program = program
        self.input_space = input_space
        self.schedule_seeds = list(schedule_seeds)
        self.io_spec = io_spec
        self.net_drop_rate = net_drop_rate
        self.switch_prob = switch_prob
        self.max_steps = max_steps
        self.prefix_sharing = prefix_sharing
        self.candidate_trace_mode = candidate_trace_mode
        # None means the default machine, built in ``_spawn_candidate``:
        # a default stored here as a bound method or a lambda over
        # ``self`` would hold the search in a reference cycle.
        self._build = build

    def _spawn_candidate(self, inputs: Dict[str, List[Any]], seed: int,
                         trace_mode: str) -> Machine:
        if self._build is not None:
            return self._build(inputs, seed, trace_mode)
        env = Environment(inputs=inputs, seed=ENV_SEED_BASE + seed,
                          net_drop_rate=self.net_drop_rate)
        scheduler = RandomScheduler(seed=seed, switch_prob=self.switch_prob)
        return Machine(self.program, env=env, scheduler=scheduler,
                       io_spec=self.io_spec, max_steps=self.max_steps,
                       trace_mode=trace_mode)

    def run_candidate(self, inputs: Dict[str, List[Any]], seed: int,
                      trace_mode: str = "full") -> Machine:
        """Execute one candidate from scratch (also the materialization
        path: re-running an accepted trace-free candidate with full
        tracing reproduces it exactly)."""
        return self._spawn_candidate(inputs, seed, trace_mode).run()

    def _run_pooled(self, inputs: Dict[str, List[Any]], seed: int,
                    pools: Dict[int, _SeedCheckpoints],
                    remaining_cycles: Optional[int],
                    early_abort: Optional[EarlyAbort],
                    trace_mode: str,
                    take_checkpoints: bool,
                    following: Optional[Dict[str, List[Any]]],
                    outcome: SearchOutcome
                    ) -> Tuple[Optional[Machine], int]:
        """Run one candidate, forking the deepest shared checkpoint.

        ``take_checkpoints`` gates snapshot collection: a pool is only
        ever read by a *later, different* input assignment under the same
        seed, so the search enables it once a second input candidate is
        known to exist (single-assignment spaces pay nothing).  Even
        then the candidate snapshots a consumption only while
        ``following`` - the next assignment, None at the end of the
        space - agrees with every value consumed before it (see
        :class:`_Witness`).

        Returns ``(machine, executed_cycles)`` where ``executed_cycles``
        excludes the checkpointed prefix the candidate did not re-run.
        ``machine`` is None when the candidate's scheduler raised
        :class:`ReplayDivergenceError`: the recorded order admits no
        runnable thread, so the run can never be accepted.
        """
        pool = pools.get(seed)
        if pool is None:
            pool = pools[seed] = _SeedCheckpoints()
        if self.prefix_sharing:
            # Retargeting rewrites the last consumed value in the forked
            # state, which is only legal when no step record holds it.
            fork_len, retarget = pool.plan(
                inputs, allow_retarget=(trace_mode == "counting"))
        else:
            fork_len, retarget = 0, False
        if fork_len:
            checkpoint = pool.checkpoints[fork_len - 1]
            machine = checkpoint.machine.fork()
            if retarget:
                value = pool.value_at(inputs, fork_len - 1)
                thread = machine.threads[checkpoint.tid]
                thread.frames[-1].registers[checkpoint.dst] = value
                machine.env.inputs_consumed[checkpoint.channel][-1] = value
                if take_checkpoints:
                    # Keep the pool describing the *current* timeline:
                    # future candidates matching this value must fork a
                    # state that actually contains it.
                    pool.checkpoints[fork_len - 1] = _Checkpoint(
                        machine.snapshot(), checkpoint.tid,
                        checkpoint.channel, checkpoint.dst)
                    pool.consumed[fork_len - 1] = (checkpoint.channel, value)
            machine.env.replace_pending_inputs(
                pool.remaining_inputs(inputs, fork_len))
            base_cycles = machine.meter.native_cycles
            outcome.forked_candidates += 1
            outcome.saved_cycles += base_cycles
        else:
            machine = self._spawn_candidate(inputs, seed, trace_mode)
            base_cycles = 0
        if remaining_cycles is not None:
            machine.max_native_cycles = base_cycles + remaining_cycles
        machine.early_abort = early_abort

        new_consumed: List[Tuple[str, Any]] = []
        new_checkpoints: List[_Checkpoint] = []
        if take_checkpoints:
            checkpoint_room = MAX_CHECKPOINTS - fork_len
            program = self.program
            witness = _Witness(following, pool.consumed, fork_len)

            def checkpoint_inputs(m: Machine, record: StepRecord) -> None:
                io = record.io
                if io is None or io[0] != "input":
                    return
                new_consumed.append((io[1], io[2]))
                if witness.inputs is None \
                        or len(new_checkpoints) >= checkpoint_room:
                    return
                instr = program.function(record.function).body[record.pc]
                new_checkpoints.append(_Checkpoint(
                    m.snapshot(), record.tid, io[1], instr.args[0].name))
                witness.consumed(io[1], io[2])

            machine.add_observer(checkpoint_inputs, sync_or_io=True)
        try:
            machine.run()
            diverged = False
        except ReplayDivergenceError:
            diverged = True
        if take_checkpoints:
            pool.rebase(fork_len, new_consumed, new_checkpoints)
        executed = machine.meter.native_cycles - base_cycles
        return (None if diverged else machine), executed

    def search(self,
               accept: Callable[[Machine], bool],
               budget: Optional[SearchBudget] = None,
               dedupe_key: Optional[Callable[[Machine], Any]] = None,
               early_abort: Optional[EarlyAbort] = None
               ) -> SearchOutcome:
        """Explore candidates until one is accepted or the budget dies.

        The first candidate runs with full tracing, the rest trace-free
        (``counting`` mode); an accepted trace-free candidate is re-run
        once with full tracing, so callers always receive machines with
        complete traces.  ``early_abort`` may kill a candidate at any
        executed I/O step - the hook must only fire on runs ``accept``
        would reject.  A candidate whose scheduler raises
        :class:`ReplayDivergenceError` is rejected unjudged, and charged
        like any other.

        With a ``dedupe_key`` the search keeps going after acceptance
        and gathers one accepted execution per distinct key until the
        budget is exhausted.  That is root-cause enumeration: the key is
        a diagnosis.  Its candidates, the first included, run in the
        ``events`` trace mode, and the accepted machines it returns keep
        those sparse traces - effect steps only, no schedule or branch
        paths (:mod:`repro.vm.trace`) - which is all a diagnosis reads.
        """
        budget = budget or SearchBudget()
        outcome = SearchOutcome(machine=None)
        seen_keys = set()
        # The explored machines all share one program, so the interpreter's
        # decode-once dispatch compiles each function body a single time
        # for the entire search; per-candidate cost is pure execution -
        # minus the checkpointed prefixes the pools let candidates skip.
        pools: Dict[int, _SeedCheckpoints] = {}
        schedule_seeds = self.schedule_seeds
        allows = budget.allows
        # A dedupe key is a root-cause diagnosis, which reads only effect
        # steps: an events trace is enough, and most candidates are
        # accepted, so tracing those steps as the candidate runs beats a
        # counting pass plus a full-trace re-run of each.
        if dedupe_key is not None:
            trace_mode = "events"
        else:
            trace_mode = self.candidate_trace_mode
        # A trace-free search runs its first candidate with full tracing:
        # a replay accepted on its first try then needs no re-run.  The
        # first candidate is never a checkpoint source (collection starts
        # with the second input assignment), so its mode shapes no fork.
        first_mode = "full" if trace_mode == "counting" else trace_mode
        assignments = self.input_space.candidates()
        upcoming = next(assignments, None)
        for input_index in itertools.count():
            inputs, upcoming = upcoming, next(assignments, None)
            if inputs is None:
                break
            # Checkpoints pay off only across *different* input
            # assignments, so collection starts with the second one;
            # single-assignment spaces never pay for snapshots.
            take_checkpoints = self.prefix_sharing and input_index > 0
            for seed in schedule_seeds:
                if not allows(outcome.attempts, outcome.inference_cycles):
                    return outcome
                machine, executed = self._run_pooled(
                    inputs, seed, pools,
                    budget.remaining_cycles(outcome.inference_cycles),
                    early_abort,
                    trace_mode if outcome.attempts else first_mode,
                    take_checkpoints, upcoming, outcome)
                outcome.attempts += 1
                outcome.inference_cycles += executed
                if machine is None:
                    outcome.diverged_candidates += 1
                    continue
                if machine.aborted:
                    outcome.aborted_candidates += 1
                    continue
                if machine.hit_cycle_limit:
                    # Truncated by the budget ceiling: an incomplete run
                    # cannot be judged; the next allows() ends the search.
                    outcome.capped_candidates += 1
                    continue
                if not accept(machine):
                    continue
                if dedupe_key is None:
                    if machine.trace_mode == "counting":
                        # The materialization re-run reproduces the
                        # accepted execution for the caller; it is
                        # replay, not inference, and is not charged to
                        # the budget.
                        machine = self.run_candidate(inputs, seed)
                        outcome.materialized_runs += 1
                    # The winning candidate's own execution is the
                    # caller's replay; refund its exploration charge.
                    outcome.inference_cycles -= executed
                    outcome.refunded_cycles = executed
                    outcome.machine = machine
                    outcome.found = True
                    return outcome
                key = dedupe_key(machine)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                outcome.all_accepted.append(machine)
                if outcome.machine is None:
                    outcome.machine = machine
                    outcome.found = True
        return outcome
