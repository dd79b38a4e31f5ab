"""The MiniVM interpreter.

:class:`Machine` executes a :class:`~repro.vm.program.Program` under a
scheduler and an environment, producing a :class:`~repro.vm.trace.Trace`.
Execution is deterministic given (program, environment seed+inputs,
scheduler decisions) - the property every recorder and replayer builds on.

Observers (recorders, race detectors, invariant monitors, data-rate
profilers) subscribe via :meth:`Machine.add_observer` and receive each
:class:`~repro.vm.trace.StepRecord` as it is produced; an observer that
reads only synchronization or I/O steps (a replay's thread-id mapper, a
search's input checkpoints) subscribes to those steps alone.  Replayers
can additionally install *interceptors* that override the values
returned by shared-memory loads or I/O operations - the mechanism behind
value-deterministic replay.

Decode-once dispatch
--------------------
:func:`code_table` compiles a whole program once per cost table:
operands are pre-classified as ``Const``/``Reg`` (a constant is captured
by value, a register by name), jump labels are resolved to integer
targets, global locations are pre-built, and binary opcodes are bound to
their evaluation functions.  Each function becomes a list of
``(op, handler, cost)`` entries, one per pc, plus a trailing entry at
``pc == len(body)``: falling off a function's end is an implicit
``ret``, a real step like an explicit one.  The table is cached on the
:class:`~repro.vm.program.Program`, so the thousands of machines a
replay search spawns share one decode, and every frame carries its
function's list.  A step is then ``frame.code[frame.pc]`` and one
``handler(machine, thread, frame, record)`` call - no cache check, no
cost lookup, no end-of-body test, no opcode string comparisons.  The
commonest operand shapes - a binary op on (register, constant) or
(register, register), ``mov`` from a register, ``jz``/``jnz`` on a
register - read ``frame.registers`` directly rather than through
operand getters, and a comparison of those shapes calls its
``operator`` function (a C call) rather than a Python lambda.

Run loop
--------
:meth:`Machine.run` and :meth:`Machine.advance` share one loop, which
holds the one step body of every trace mode.  Per step it checks the
stop conditions, settles which thread runs, runs that thread's next
instruction, keeps what the mode keeps, and notifies.  While the thread
that ran the last step may run again, the scheduler's keep rule
(fetched once per entry; see :mod:`repro.vm.scheduler`) lets the loop
draw the keep itself and call the rule's switch only when the draw says
switch.  Every other decision - the first after entry, the one after a
blocked or finished thread, and the one at a sync op under a gated rule
- calls ``pick(machine, runnable)`` with the machine's runnable list.
Both make the same draws, so no decision moves.

Pure runs
---------
Register-only ops (:data:`_PURE_OPS`: the binary ops but ``div`` and
``mod``, ``const``, ``mov``, ``not``, ``neg``, ``jmp``, ``jz``, ``jnz``,
``nop``, ``yield``) touch only their frame's registers, its pc and
``record.branch_taken``: none blocks, fails, halts, synchronizes, does
I/O or touches shared memory, and none reads ``machine.steps`` or the
meter.  When nothing reads every step - the mode is ``counting`` or
``events``, the scheduler offers a keep rule and no per-step
``notify``, and no every-step observer is subscribed - the loop runs a
decided pure op and the thread's following pure ops back to back.
Between two of them it checks the limits, then the next op, then draws
the keep rule; a drawn switch ends the run and is made by the next
decision, with no second draw.  The limits come before the draw, so a
paused machine never holds a drawn switch, and the counters are written
back when the run ends.  No step, cycle, draw or decision moves; every
other op, and every run in ``full`` mode, takes the per-step body.

Lifetime
--------
No reference cycle runs through a machine or its program, so a dropped
machine and its trace are freed at once by reference counting, not by
the cyclic collector - a replay search drops thousands.  The machine
stores no bound method of itself; what the run loop needs (the scratch
record, the keep rule) lives in its locals for one entry; its
environment holds it weakly; and what is installed on it - observers,
interceptors, the early-abort hook - must not hold it either
(``record_run`` detaches its recorder once the log is finalized).  The
code table holds no reference back to its program, and the ``call``
handler reads the callee's code off the machine rather than capturing
it.

Checkpoint / fork
-----------------
:meth:`Machine.snapshot` captures a frozen mid-run copy of the whole
execution state - threads/frames/registers, shared memory, lock owners,
environment cursors and RNG stream position, scheduler state, the meter,
and the trace watermark.  :meth:`Machine.fork` returns a *runnable* copy;
a fork continues byte-for-byte identically to the original (the golden
fingerprint tests pin this).  Replay search uses checkpoints to resume
candidate executions at the last shared input-consumption point instead
of re-executing the common prefix.

Trace modes
-----------
Every mode runs the identical execution through the same step body
(and, in ``counting`` and ``events``, the same pure runs), which reads
the mode as two flags; the modes differ only in what the
:class:`~repro.vm.trace.Trace` keeps.

``full``      a fresh :class:`~repro.vm.trace.StepRecord` for every
              step, and the schedule.  Recorders, replays and every
              trace query need this.
``counting``  no step records: one scratch record is reused for
              dispatch/observers, and only counts, the failure
              signature, the output log and per-thread branch paths
              survive.  Inference-search candidates run this way; the
              one accepted execution is re-run once with full tracing.
``events``    counting's execution, plus a real record (with its global
              ``index``) copied out of the scratch one for each step
              that reads or writes shared memory, synchronizes, or does
              I/O - the steps a root-cause diagnosis reads.  No schedule
              and no branch paths.  The trace is marked ``sparse``;
              root-cause enumeration runs its candidates this way.

``max_native_cycles`` bounds a run by metered cycles (search budgets
enforce their ceiling *inside* the candidate run) and the
``early_abort`` hook lets searches kill a candidate at its first
divergent I/O event.
"""

from __future__ import annotations

import operator
from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MachineError
from repro.vm.cost import CostModel, OverheadMeter
from repro.vm.environment import Environment
from repro.vm.failures import CoreDump, FailureKind, FailureReport, IOSpec
from repro.vm.instructions import (BINARY_FUNCS, BINARY_OPS, Const, Instr,
                                   Reg)
from repro.vm.memory import (OutOfBoundsAccess, SharedMemory, array_loc,
                             global_loc)
from repro.vm.program import Function, Program
from repro.vm.scheduler import RoundRobinScheduler, Scheduler, notifier
from repro.vm.thread import Frame, ThreadState, ThreadStatus
from repro.vm.trace import _NO_EFFECTS, StepRecord, Trace

# Sentinel returned by interceptors that decline to override a value.
INTERCEPT_MISS = object()

LoadInterceptor = Callable[[int, tuple, Callable[[], int]], Any]
IoInterceptor = Callable[[int, str, str, Callable[[], Any]], Any]
# Early-abort hook: called after every executed I/O step; returning True
# stops the run (the caller promises it would reject the run anyway).
EarlyAbort = Callable[["Machine", StepRecord], bool]
# A step-stream subscriber, called after an executed step.
Observer = Callable[["Machine", StepRecord], None]
# One decoded instruction: its opcode, its handler
# ``(machine, thread, frame, record) -> bool`` and its cost in cycles.
CodeEntry = Tuple[str, Callable[..., bool], int]

# Backwards-compatible alias (symbolic execution resolves binary opcodes
# through the interpreter module).
_BINARY_FUNCS = BINARY_FUNCS

_BLOCKED = object()

# "No cycle ceiling" sentinel: an int far above any metered run, so the
# run loop's ceiling test is a single integer comparison (no None check).
_NO_CYCLE_CAP = 1 << 62
# The step target ``run()`` hands the run loop: never reached.
_NO_STEP_TARGET = 1 << 62

_RUNNABLE = ThreadStatus.RUNNABLE

# The trace modes (see "Trace modes" above).
_TRACE_MODES = frozenset(("full", "counting", "events"))

# Register-only opcodes (see "Pure runs" above): each touches only its
# frame's registers, its pc and ``record.branch_taken``.
_PURE_OPS = frozenset((BINARY_OPS - {"div", "mod"})
                      | {"const", "mov", "not", "neg", "jmp", "jz", "jnz",
                         "nop", "yield"})


class _UndefinedRegister(Exception):
    """Internal: a register was read before being written (host error)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def _undefined_register(tid: int, frame: Frame,
                        undef: _UndefinedRegister) -> MachineError:
    """The host error for an undefined register read by ``tid``."""
    return MachineError(f"thread {tid}: read of undefined register "
                        f"%{undef.name} in {frame.function.name}")


def _name(arg) -> str:
    """Normalise a channel/identifier operand (bare str or Const(str))."""
    if isinstance(arg, Const):
        return str(arg.value)
    return str(arg)


def _getter(operand):
    """Compile one source operand into a ``frame -> value`` accessor."""
    if isinstance(operand, Const):
        value = operand.value

        def get_const(frame, _value=value):
            return _value
        return get_const
    if isinstance(operand, Reg):
        name = operand.name

        def get_reg(frame, _name=name):
            try:
                return frame.registers[_name]
            except KeyError:
                raise _UndefinedRegister(_name) from None
        return get_reg
    raise MachineError(f"bad operand {operand!r}")


# The six comparisons, for the register-direct handlers: each is a C
# call with no Python frame, whose bool the handler stores as the int
# 0/1 that ``BINARY_FUNCS`` returns.
_COMPARISONS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
                "le": operator.le, "gt": operator.gt, "ge": operator.ge}


# -- instruction compilers ---------------------------------------------------
#
# Each compiler runs once per instruction at decode time and returns a
# handler ``(machine, thread, frame, record) -> bool``; False means the
# thread blocked or failed and no step was executed.  Handlers advance
# ``frame.pc`` themselves so control flow needs no post-dispatch fixup.

def _compile_binary(fn: Function, instr: Instr, program: Program):
    op = instr.op
    dst = instr.args[0].name
    source_a, source_b = instr.args[1], instr.args[2]
    get_a = _getter(source_a)
    get_b = _getter(source_b)
    if op == "div" or op == "mod":
        modulo = op == "mod"

        def run_divmod(machine, thread, frame, record):
            a = get_a(frame)
            b = get_b(frame)
            if b == 0:
                machine._guest_failure(thread, FailureKind.DIV_BY_ZERO,
                                       f"{op} by zero")
                return False
            frame.registers[dst] = (a % b) if modulo else (a // b)
            frame.pc += 1
            return True
        return run_divmod
    func = BINARY_FUNCS[op]
    # The commonest shapes read their registers directly, ``a`` before
    # ``b`` as the getters do, with ``func`` outside the ``try``; a
    # comparison there calls its ``_COMPARISONS`` function instead.
    compare = _COMPARISONS.get(op)
    if isinstance(source_a, Reg) and isinstance(source_b, Const):
        name_a = source_a.name
        value_b = source_b.value
        if compare is not None:
            def run_compare_reg_const(machine, thread, frame, record):
                registers = frame.registers
                try:
                    a = registers[name_a]
                except KeyError:
                    raise _UndefinedRegister(name_a) from None
                registers[dst] = 1 if compare(a, value_b) else 0
                frame.pc += 1
                return True
            return run_compare_reg_const

        def run_binary_reg_const(machine, thread, frame, record):
            registers = frame.registers
            try:
                a = registers[name_a]
            except KeyError:
                raise _UndefinedRegister(name_a) from None
            registers[dst] = func(a, value_b)
            frame.pc += 1
            return True
        return run_binary_reg_const
    if isinstance(source_a, Reg) and isinstance(source_b, Reg):
        name_a = source_a.name
        name_b = source_b.name
        if compare is not None:
            def run_compare_reg_reg(machine, thread, frame, record):
                registers = frame.registers
                try:
                    a = registers[name_a]
                    b = registers[name_b]
                except KeyError:
                    raise _UndefinedRegister(
                        name_b if name_a in registers else name_a) from None
                registers[dst] = 1 if compare(a, b) else 0
                frame.pc += 1
                return True
            return run_compare_reg_reg

        def run_binary_reg_reg(machine, thread, frame, record):
            registers = frame.registers
            try:
                a = registers[name_a]
                b = registers[name_b]
            except KeyError:
                raise _UndefinedRegister(
                    name_b if name_a in registers else name_a) from None
            registers[dst] = func(a, b)
            frame.pc += 1
            return True
        return run_binary_reg_reg

    def run_binary(machine, thread, frame, record):
        frame.registers[dst] = func(get_a(frame), get_b(frame))
        frame.pc += 1
        return True
    return run_binary


def _compile_mov(fn, instr, program):
    dst = instr.args[0].name
    source = instr.args[1]
    if isinstance(source, Const):
        value = source.value

        def run_const(machine, thread, frame, record):
            frame.registers[dst] = value
            frame.pc += 1
            return True
        return run_const
    if isinstance(source, Reg):
        name = source.name

        def run_mov_reg(machine, thread, frame, record):
            registers = frame.registers
            try:
                registers[dst] = registers[name]
            except KeyError:
                raise _UndefinedRegister(name) from None
            frame.pc += 1
            return True
        return run_mov_reg
    get = _getter(source)

    def run_mov(machine, thread, frame, record):
        frame.registers[dst] = get(frame)
        frame.pc += 1
        return True
    return run_mov


def _compile_not(fn, instr, program):
    dst = instr.args[0].name
    get = _getter(instr.args[1])

    def run_not(machine, thread, frame, record):
        frame.registers[dst] = int(not bool(get(frame)))
        frame.pc += 1
        return True
    return run_not


def _compile_neg(fn, instr, program):
    dst = instr.args[0].name
    get = _getter(instr.args[1])

    def run_neg(machine, thread, frame, record):
        frame.registers[dst] = -get(frame)
        frame.pc += 1
        return True
    return run_neg


def _compile_jmp(fn, instr, program):
    target = fn.target(instr.args[0])

    def run_jmp(machine, thread, frame, record):
        frame.pc = target
        return True
    return run_jmp


def _compile_jz(fn, instr, program):
    source = instr.args[0]
    target = fn.target(instr.args[1])
    if isinstance(source, Reg):
        name = source.name

        def run_jz_reg(machine, thread, frame, record):
            try:
                value = frame.registers[name]
            except KeyError:
                raise _UndefinedRegister(name) from None
            take = value == 0
            record.branch_taken = take
            if take:
                frame.pc = target
            else:
                frame.pc += 1
            return True
        return run_jz_reg
    get = _getter(source)

    def run_jz(machine, thread, frame, record):
        take = get(frame) == 0
        record.branch_taken = take
        if take:
            frame.pc = target
        else:
            frame.pc += 1
        return True
    return run_jz


def _compile_jnz(fn, instr, program):
    source = instr.args[0]
    target = fn.target(instr.args[1])
    if isinstance(source, Reg):
        name = source.name

        def run_jnz_reg(machine, thread, frame, record):
            try:
                value = frame.registers[name]
            except KeyError:
                raise _UndefinedRegister(name) from None
            take = value != 0
            record.branch_taken = take
            if take:
                frame.pc = target
            else:
                frame.pc += 1
            return True
        return run_jnz_reg
    get = _getter(source)

    def run_jnz(machine, thread, frame, record):
        take = get(frame) != 0
        record.branch_taken = take
        if take:
            frame.pc = target
        else:
            frame.pc += 1
        return True
    return run_jnz


def _compile_load(fn, instr, program):
    dst = instr.args[0].name
    name = instr.args[1]
    loc = global_loc(name)

    def run_load(machine, thread, frame, record):
        memory = machine.memory
        if machine.load_interceptor is None:
            value = memory.read_global(name)
        else:
            value = machine._read_shared(
                thread, loc, lambda: memory.read_global(name))
        record.reads = [(loc, value)]
        frame.registers[dst] = value
        frame.pc += 1
        return True
    return run_load


def _compile_store(fn, instr, program):
    name = instr.args[0]
    loc = global_loc(name)
    get = _getter(instr.args[1])

    def run_store(machine, thread, frame, record):
        value = get(frame)
        machine.memory.write_global(name, value)
        record.writes = [(loc, value)]
        frame.pc += 1
        return True
    return run_store


def _compile_aload(fn, instr, program):
    dst = instr.args[0].name
    name = instr.args[1]
    get_index = _getter(instr.args[2])

    def run_aload(machine, thread, frame, record):
        index = get_index(frame)
        loc = array_loc(name, index)
        memory = machine.memory
        if machine.load_interceptor is None:
            value = memory.read_array(name, index)
        else:
            value = machine._read_shared(
                thread, loc, lambda: memory.read_array(name, index))
        record.reads = [(loc, value)]
        frame.registers[dst] = value
        frame.pc += 1
        return True
    return run_aload


def _compile_astore(fn, instr, program):
    name = instr.args[0]
    get_index = _getter(instr.args[1])
    get_value = _getter(instr.args[2])

    def run_astore(machine, thread, frame, record):
        index = get_index(frame)
        value = get_value(frame)
        machine.memory.write_array(name, index, value)
        record.writes = [(array_loc(name, index), value)]
        frame.pc += 1
        return True
    return run_astore


def _compile_alen(fn, instr, program):
    dst = instr.args[0].name
    name = instr.args[1]

    def run_alen(machine, thread, frame, record):
        frame.registers[dst] = machine.memory.array_length(name)
        frame.pc += 1
        return True
    return run_alen


def _compile_lock(fn, instr, program):
    mutex = instr.args[0]

    def run_lock(machine, thread, frame, record):
        if machine.lock_owners[mutex] is None:
            machine.lock_owners[mutex] = thread.tid
            record.sync = ("lock", mutex)
            frame.pc += 1
            return True
        machine._block_thread(thread, ThreadStatus.BLOCKED_LOCK, mutex)
        return False
    return run_lock


def _compile_unlock(fn, instr, program):
    mutex = instr.args[0]

    def run_unlock(machine, thread, frame, record):
        if machine.lock_owners.get(mutex) != thread.tid:
            machine._guest_failure(
                thread, FailureKind.EXPLICIT,
                f"unlock of mutex {mutex!r} not held by thread")
            return False
        machine.lock_owners[mutex] = None
        record.sync = ("unlock", mutex)
        for other in machine.threads.values():
            if (other.status == ThreadStatus.BLOCKED_LOCK
                    and other.blocked_on == mutex):
                machine._unblock_thread(other)
        frame.pc += 1
        return True
    return run_unlock


def _compile_spawn(fn, instr, program):
    dst = instr.args[0].name
    fname = instr.args[1]
    getters = [_getter(a) for a in instr.args[2:]]

    def run_spawn(machine, thread, frame, record):
        call_args = [get(frame) for get in getters]
        new_tid = machine._spawn_thread(fname, call_args)
        frame.registers[dst] = new_tid
        record.sync = ("spawn", new_tid)
        frame.pc += 1
        return True
    return run_spawn


def _compile_join(fn, instr, program):
    get = _getter(instr.args[0])

    def run_join(machine, thread, frame, record):
        target = get(frame)
        other = machine.threads.get(target)
        if other is None:
            machine._guest_failure(thread, FailureKind.EXPLICIT,
                                   f"join of unknown thread {target}")
            return False
        if other.is_live:
            machine._block_thread(thread, ThreadStatus.BLOCKED_JOIN, target)
            return False
        record.sync = ("join", target)
        frame.pc += 1
        return True
    return run_join


def _compile_input(fn, instr, program):
    dst = instr.args[0].name
    channel = _name(instr.args[1])

    def run_input(machine, thread, frame, record):
        ran_actual = [False]

        def consume():
            ran_actual[0] = True
            return machine._consume_input(thread, channel)

        if machine.io_interceptor is not None:
            value = machine.io_interceptor(thread.tid, "input", channel,
                                           consume)
            if value is INTERCEPT_MISS:
                value = consume()
            elif not ran_actual[0]:
                # The interceptor supplied the value: the replayed run
                # still *consumed* an input, so account for it - I/O
                # specifications relate outputs to inputs.
                machine.env.inputs_consumed.setdefault(
                    channel, []).append(value)
        else:
            value = consume()
        if value is _BLOCKED:
            return False
        record.io = ("input", channel, value)
        frame.registers[dst] = value
        frame.pc += 1
        return True
    return run_input


def _compile_output(fn, instr, program):
    channel = _name(instr.args[0])
    get = _getter(instr.args[1])

    def run_output(machine, thread, frame, record):
        value = get(frame)
        machine.env.write_output(channel, value)
        record.io = ("output", channel, value)
        frame.pc += 1
        return True
    return run_output


def _compile_syscall(fn, instr, program):
    dst = instr.args[0].name
    name = _name(instr.args[1])
    getters = [_getter(a) for a in instr.args[2:]]

    def run_syscall(machine, thread, frame, record):
        call_args = [get(frame) for get in getters]
        result = machine._intercepted_io(
            thread.tid, "syscall", name,
            lambda: machine.env.syscall(name, call_args))
        record.io = ("syscall", name, (tuple(call_args), result))
        frame.registers[dst] = result
        frame.pc += 1
        return True
    return run_syscall


def _compile_assert(fn, instr, program):
    get_cond = _getter(instr.args[0])
    get_message = _getter(instr.args[1])

    def run_assert(machine, thread, frame, record):
        if not get_cond(frame):
            machine._guest_failure(thread, FailureKind.ASSERTION,
                                   str(get_message(frame)))
            return False
        frame.pc += 1
        return True
    return run_assert


def _compile_fail(fn, instr, program):
    get = _getter(instr.args[0])

    def run_fail(machine, thread, frame, record):
        machine._guest_failure(thread, FailureKind.EXPLICIT,
                               str(get(frame)))
        return False
    return run_fail


def _compile_call(fn, instr, program):
    dst = instr.args[0].name
    fname = instr.args[1]
    getters = [_getter(a) for a in instr.args[2:]]
    function = program.function(fname)
    params = function.params
    expected = len(params)
    if len(getters) != expected:
        # Arity is a decode-time constant; a mismatched call raises only
        # when executed (same laziness as the pre-decoded interpreter),
        # and well-formed calls pay no per-call check.
        supplied = len(getters)

        def run_bad_call(machine, thread, frame, record):
            raise MachineError(
                f"call {fname}: expected {expected} args, got {supplied}")
        return run_bad_call

    def run_call(machine, thread, frame, record):
        call_args = [get(frame) for get in getters]
        frame.pc += 1  # return address
        # The callee's code is read off the machine, not captured: a
        # captured list would hold this handler, a cycle for any
        # recursive function.
        thread.frames.append(
            Frame(function, machine._code[fname], 0,
                  dict(zip(params, call_args)), dst))
        return True
    return run_call


def _run_ret(machine, thread, frame, record):
    machine._do_return(thread, 0)
    return True


def _compile_ret(fn, instr, program):
    if instr.args:
        get = _getter(instr.args[0])

        def run_ret_value(machine, thread, frame, record):
            machine._do_return(thread, get(frame))
            return True
        return run_ret_value
    return _run_ret


def _compile_halt(fn, instr, program):
    def run_halt(machine, thread, frame, record):
        machine.halted = True
        frame.pc += 1
        return True
    return run_halt


def _compile_nop(fn, instr, program):
    def run_nop(machine, thread, frame, record):
        frame.pc += 1
        return True
    return run_nop


_COMPILERS: Dict[str, Callable] = {
    **{op: _compile_binary for op in BINARY_OPS},
    "const": _compile_mov,
    "mov": _compile_mov,
    "not": _compile_not,
    "neg": _compile_neg,
    "jmp": _compile_jmp,
    "jz": _compile_jz,
    "jnz": _compile_jnz,
    "load": _compile_load,
    "store": _compile_store,
    "aload": _compile_aload,
    "astore": _compile_astore,
    "alen": _compile_alen,
    "lock": _compile_lock,
    "unlock": _compile_unlock,
    "spawn": _compile_spawn,
    "join": _compile_join,
    "yield": _compile_nop,
    "input": _compile_input,
    "output": _compile_output,
    "syscall": _compile_syscall,
    "assert": _compile_assert,
    "fail": _compile_fail,
    "call": _compile_call,
    "ret": _compile_ret,
    "halt": _compile_halt,
    "nop": _compile_nop,
}


def code_table(program: Program,
               cost_model: CostModel) -> Dict[str, List[CodeEntry]]:
    """Each function's decoded code under ``cost_model``: one
    ``(op, handler, cost)`` entry per pc, plus a trailing entry at
    ``pc == len(body)`` - falling off a function's end is an implicit
    ``ret`` with no value, a real step like an explicit one.

    Built once per program and cost table, and cached on the program
    (keyed by the table's contents), so every machine running the
    program shares it; callers must treat it as read-only.
    """
    key = tuple(sorted(cost_model.instruction_costs.items()))
    table = program.code_tables.get(key)
    if table is not None:
        return table
    cost = cost_model.instruction_cost
    table = {}
    for name, fn in program.functions.items():
        code = []
        for instr in fn.body:
            compiler = _COMPILERS.get(instr.op)
            if compiler is None:  # pragma: no cover - validation rejects these
                raise MachineError(f"unimplemented opcode {instr.op!r}")
            code.append((instr.op, compiler(fn, instr, program),
                         cost(instr.op)))
        code.append(("ret", _run_ret, cost("ret")))
        table[name] = code
    program.code_tables[key] = table
    return table


class Machine:
    """One MiniVM execution in progress."""

    def __init__(self,
                 program: Program,
                 env: Optional[Environment] = None,
                 scheduler: Optional[Scheduler] = None,
                 cost_model: Optional[CostModel] = None,
                 io_spec: Optional[IOSpec] = None,
                 max_steps: int = 2_000_000,
                 entry_args: Sequence[Any] = (),
                 trace_mode: str = "full",
                 max_native_cycles: Optional[int] = None):
        if trace_mode not in _TRACE_MODES:
            raise MachineError(f"unknown trace_mode {trace_mode!r}")
        self.program = program
        self.env = env or Environment()
        self.env.attach(self)
        self.scheduler = scheduler or RoundRobinScheduler()
        self.cost_model = cost_model or CostModel()
        self.io_spec = io_spec
        self.max_steps = max_steps

        self.memory = SharedMemory(program.globals, program.arrays)
        self.threads: Dict[int, ThreadState] = {}
        self.lock_owners: Dict[str, Optional[int]] = {
            m: None for m in program.mutexes}
        self.meter = OverheadMeter()
        self.trace = Trace()
        self.failure: Optional[FailureReport] = None
        self.halted = False
        self.hit_step_limit = False
        self.hit_cycle_limit = False
        self.aborted = False
        self.steps = 0

        self.trace_mode = trace_mode
        self.trace.sparse = trace_mode == "events"
        # Absolute ceiling on metered native cycles (None = unlimited).
        self.max_native_cycles = max_native_cycles

        self._observers: List[Observer] = []
        self._sync_io_observers: List[Observer] = []
        self.load_interceptor: Optional[LoadInterceptor] = None
        self.io_interceptor: Optional[IoInterceptor] = None
        self.early_abort: Optional[EarlyAbort] = None

        # Incrementally maintained scheduling state: the sorted runnable
        # tid list (what ``scheduler.pick`` receives, read-only) and the
        # live-thread count replace per-step scans.  ``runnable_version``
        # moves whenever the list is edited, so a scheduler can tell
        # that the runnable set it last vetted is still the same.
        self._runnable: List[int] = []
        self.runnable_version = 0
        self._live_count = 0

        # Each function's decoded code under this cost model, shared by
        # every machine running the program; frames carry their entry.
        self._code = code_table(program, self.cost_model)

        self._next_tid = 0
        self._spawn_thread(program.entry, list(entry_args))

    # -- cycle ceiling ----------------------------------------------------
    #
    # Stored internally as an always-int sentinel so the per-iteration
    # ceiling test in ``_run_loop`` is one integer comparison.

    @property
    def max_native_cycles(self) -> Optional[int]:
        cap = self._cycle_ceiling
        return None if cap >= _NO_CYCLE_CAP else cap

    @max_native_cycles.setter
    def max_native_cycles(self, value: Optional[int]) -> None:
        self._cycle_ceiling = _NO_CYCLE_CAP if value is None else value

    # -- public surface ---------------------------------------------------

    def add_observer(self, observer: Observer,
                     sync_or_io: bool = False) -> None:
        """Subscribe to the step stream: ``observer`` is called after
        each executed step or, with ``sync_or_io``, only after the steps
        that synchronize or do I/O (``sync`` or ``io`` set).  On such a
        step the every-step observers run first, each kind in the order
        it subscribed."""
        if sync_or_io:
            self._sync_io_observers.append(observer)
        else:
            self._observers.append(observer)

    def live_tids(self) -> List[int]:
        return sorted(t.tid for t in self.threads.values() if t.is_live)

    def run(self) -> "Machine":
        """Run to completion, failure, deadlock, or a limit/abort."""
        self._run_loop(_NO_STEP_TARGET)
        self._finalize()
        return self

    def advance(self, max_new_steps: int) -> "Machine":
        """Execute at most ``max_new_steps`` more steps, then pause.

        Unlike :meth:`run` this does not finalize the run: the machine
        can be snapshotted/forked here and continued later with ``run()``.
        """
        self._run_loop(self.steps + max_new_steps)
        return self

    def snapshot(self) -> "Machine":
        """A frozen checkpoint of the current execution state.

        The returned machine is a complete mid-run copy - threads,
        frames, registers, shared memory, lock owners, environment
        (pending/consumed inputs, outputs, RNG stream position),
        scheduler state, meter, and trace watermark.  Hold it as a
        checkpoint and :meth:`fork` it (possibly repeatedly) to resume
        from this point; running the snapshot itself consumes it.

        Observers are *not* carried over (they reference the parent run);
        interceptors and the early-abort hook are shared by reference.
        Schedulers must implement ``clone()`` for exact state transfer
        (all library schedulers do; the base class falls back to a deep
        copy).
        """
        return self._clone()

    def fork(self) -> "Machine":
        """A runnable copy that continues deterministically from here.

        Forked at step 0 (or anywhere else), the copy's remaining
        execution is byte-for-byte identical to the original's - same
        steps, schedule, failure, outputs, and metered cycles - which the
        golden-trace fingerprint tests pin.
        """
        return self._clone()

    def _clone(self) -> "Machine":
        twin = Machine.__new__(Machine)
        twin.program = self.program
        twin.env = self.env.fork()
        twin.env.attach(twin)
        twin.scheduler = self.scheduler.clone()
        twin.cost_model = self.cost_model
        twin.io_spec = self.io_spec
        twin.max_steps = self.max_steps
        twin.memory = self.memory.clone()
        twin.threads = {tid: thread.clone()
                        for tid, thread in self.threads.items()}
        twin.lock_owners = dict(self.lock_owners)
        twin.meter = self.meter.clone()
        twin.trace = self.trace.fork()
        twin.failure = self.failure
        twin.halted = self.halted
        twin.hit_step_limit = self.hit_step_limit
        twin.hit_cycle_limit = self.hit_cycle_limit
        twin.aborted = self.aborted
        twin.steps = self.steps
        twin.trace_mode = self.trace_mode
        twin._cycle_ceiling = self._cycle_ceiling
        twin._observers = []
        twin._sync_io_observers = []
        twin.load_interceptor = self.load_interceptor
        twin.io_interceptor = self.io_interceptor
        twin.early_abort = self.early_abort
        twin._runnable = list(self._runnable)
        twin.runnable_version = self.runnable_version
        twin._live_count = self._live_count
        twin._code = self._code
        twin._next_tid = self._next_tid
        return twin

    def core_dump(self) -> CoreDump:
        """What a failure-deterministic recorder ships to the developer.

        Like a real core dump, this includes per-thread exit state (under
        ``final_memory["threads"]``, keyed by integer tid): where each
        thread was and what it was blocked on when the process died -
        the information a developer reads off the thread stacks of a
        crash dump, and what makes deadlocks diagnosable from the dump
        alone.
        """
        if self.failure is None:
            raise MachineError("no failure to dump")
        final_memory = self.memory.snapshot()
        final_memory["threads"] = {
            tid: {
                "site": (f"{t.frames[-1].function.name}@{t.frames[-1].pc}"
                         if t.frames else None),
                "status": t.status.value,
                "blocked_on": t.blocked_on,
            }
            for tid, t in self.threads.items()
        }
        return CoreDump(
            failure=self.failure,
            final_memory=final_memory,
            outputs={k: list(v) for k, v in self.env.outputs.items()},
        )

    # -- run loop internals -------------------------------------------------

    def _run_loop(self, target: int) -> None:
        """Step until ``target`` steps, completion, failure, deadlock, a
        limit, or an abort - the one loop behind :meth:`run` and
        :meth:`advance`, and the one step body of every trace mode.

        Per step: the stop checks; the decision - settled here with the
        scheduler's keep rule while the thread that ran the last step
        may run again, else one ``scheduler.pick(self, runnable)`` - and
        the validity check of any thread the scheduler names; the
        instruction; the mode's trace; then notification.  A decided
        pure op starts a pure run instead (see "Pure runs" above).  The
        objects, limits and mode flags bound to locals here stay fixed
        for the whole entry.
        """
        threads = self.threads
        runnable = self._runnable
        scheduler = self.scheduler
        pick = scheduler.pick
        rule = scheduler.keep_rule(self)
        draw, switch_prob, sync_gated, switch = rule or (None,) * 4
        notify = notifier(scheduler)
        notify_sync = notifier(scheduler, "notify_sync")
        observers = self._observers
        sync_io_observers = self._sync_io_observers
        trace = self.trace
        full = self.trace_mode == "full"
        events = self.trace_mode == "events"
        counting = not (full or events)
        kept = trace.steps
        schedule = trace.schedule
        record_branch = trace.record_branch
        # Counting and events reuse one scratch record for every step of
        # the entry; it is valid only during the calls it is passed to.
        scratch = None if full else StepRecord(0, 0, "", 0, "", 0)
        meter = self.meter
        max_steps = self.max_steps
        ceiling = self._cycle_ceiling
        # Pure runs need a mode that keeps no pure step, a keep rule to
        # draw, and nothing that reads every step.
        pure_runs = (not full and draw is not None and notify is None
                     and not observers)
        pure_ops = _PURE_OPS
        run_steps = min(target, max_steps)
        # The thread that ran the last step, while the keep rule may
        # settle the next decision; None sends it to ``pick``.
        last = None
        # Set when a pure run drew a switch: the next decision is
        # ``switch(runnable)``, with no second draw.
        switching = False
        while True:
            steps = self.steps
            if steps >= target or self.halted \
                    or self.failure is not None:
                # ``halted`` is also set by the early-abort hook: an
                # aborted run stops immediately (``aborted`` tells which).
                return
            if steps >= max_steps:
                self.hit_step_limit = True
                return
            if not runnable:
                # Every thread finished, or the live ones are blocked.
                if self._live_count:
                    if meter.native_cycles >= ceiling:
                        self.hit_cycle_limit = True
                    else:
                        self._report_deadlock()
                return
            if meter.native_cycles >= ceiling:
                # Checked after the completion conditions so a run that
                # *finishes* exactly at the ceiling is not marked truncated.
                self.hit_cycle_limit = True
                return
            thread = None
            if last is not None and last.status is _RUNNABLE:
                frame = last.frames[-1]
                if switching:
                    # A pure run drew this switch after its last step.
                    switching = False
                    tid = switch(runnable)
                elif not sync_gated \
                        or frame.function.sync_ops[frame.pc] is None:
                    if draw() >= switch_prob:
                        thread = last
                        tid = thread.tid
                    else:
                        tid = switch(runnable)
                else:
                    tid = pick(self, runnable)
            else:
                tid = pick(self, runnable)
            if thread is None:
                thread = threads.get(tid)
                if thread is None or thread.status is not _RUNNABLE:
                    raise MachineError(
                        f"scheduler picked non-runnable thread {tid}")
                frame = thread.frames[-1]
            pc = frame.pc
            op, handler, cost = frame.code[pc]
            if pure_runs and op in pure_ops:
                # A pure run (see "Pure runs" above).  No pure op can
                # halt, fail, block or change the runnable list, so only
                # the limits, the next op and the draw end it - the
                # limits first, so no pause follows a drawn switch.
                code = frame.code
                cycles = meter.native_cycles
                record = scratch
                try:
                    while True:
                        record.branch_taken = None
                        handler(self, thread, frame, record)
                        steps += 1
                        cycles += cost
                        if counting and record.branch_taken is not None:
                            record_branch(tid, record.branch_taken)
                        if steps >= run_steps or cycles >= ceiling:
                            break
                        op, handler, cost = code[frame.pc]
                        if op not in pure_ops:
                            break
                        if draw() < switch_prob:
                            switching = True
                            break
                except _UndefinedRegister as undef:
                    raise _undefined_register(tid, frame, undef) from None
                finally:
                    self.steps = steps
                    meter.native_cycles = cycles
                last = thread
                continue
            if full:
                record = StepRecord(steps, tid, frame.function.name, pc, op,
                                    cost)
            else:
                record = scratch
                record.index = steps
                record.tid = tid
                record.function = frame.function.name
                record.pc = pc
                record.op = op
                record.cost = cost
                record.reads = _NO_EFFECTS
                record.writes = _NO_EFFECTS
                record.sync = None
                record.io = None
                record.branch_taken = None
            try:
                executed = handler(self, thread, frame, record)
            except OutOfBoundsAccess as oob:
                self._guest_failure(thread, FailureKind.OUT_OF_BOUNDS,
                                    str(oob))
                executed = False
            except _UndefinedRegister as undef:
                raise _undefined_register(tid, frame, undef) from None
            if not executed:
                # The thread blocked or failed; no step happened.
                last = None
                continue
            sync = record.sync
            io = record.io
            if full:
                kept.append(record)
                schedule.append(tid)
                trace.total_steps += 1
            elif events:
                # Keep a real record, with its global index, of each step
                # a diagnosis reads; handlers assign fresh effect lists,
                # so it can share them with the scratch one.
                if (record.reads or record.writes or sync is not None
                        or io is not None):
                    record = StepRecord(steps, tid, record.function, pc, op,
                                        cost, record.reads, record.writes,
                                        sync, io)
                    kept.append(record)
            elif record.branch_taken is not None:
                record_branch(tid, record.branch_taken)
            self.steps = steps + 1
            meter.native_cycles += cost
            if notify is not None:
                notify(record)
            if sync is not None and notify_sync is not None:
                notify_sync(record)
            for observer in observers:
                observer(self, record)
            if sync is not None or io is not None:
                for observer in sync_io_observers:
                    observer(self, record)
                if io is not None:
                    self._check_abort(record)
            if draw is not None:
                last = thread

    def _finalize(self) -> None:
        if (self.failure is None and self.io_spec is not None
                and not self.aborted):
            # Aborted runs are rejected by construction; judging partial
            # outputs against the spec would fabricate failures.
            self.failure = self.io_spec.check(self.env.outputs,
                                              self.env.inputs_consumed)
        self.trace.outputs = {k: list(v) for k, v in self.env.outputs.items()}
        self.trace.inputs_consumed = {
            k: list(v) for k, v in self.env.inputs_consumed.items()}
        self.trace.failure = self.failure
        self.trace.native_cycles = self.meter.native_cycles
        if self.trace_mode != "full":
            self.trace.total_steps = self.steps

    def _report_deadlock(self) -> None:
        blocked = [t for t in self.threads.values() if t.is_live]
        if not blocked:
            return
        victim = blocked[0]
        site = (f"{victim.frame.function.name}@{victim.frame.pc}"
                if victim.frames else "<finished>")
        detail = ", ".join(
            f"t{t.tid}:{t.status.value}({t.blocked_on})" for t in blocked)
        self.failure = FailureReport(
            kind=FailureKind.DEADLOCK, location=site, detail=detail,
            tid=victim.tid, step_index=self.steps)

    # -- thread scheduling state -------------------------------------------

    def _spawn_thread(self, fname: str, args: List[Any]) -> int:
        tid = self._next_tid
        self._next_tid += 1
        function = self.program.function(fname)
        self.threads[tid] = ThreadState(tid, function, self._code[fname],
                                        args)
        # Tids are assigned in ascending order, so append keeps the
        # runnable list sorted.
        self._runnable.append(tid)
        self.runnable_version += 1
        self._live_count += 1
        return tid

    def _block_thread(self, thread: ThreadState, status: ThreadStatus,
                      on: Any) -> None:
        # Tolerate re-blocking an already blocked thread (an io
        # interceptor may run its consume fallback and then still return
        # INTERCEPT_MISS, blocking the same thread twice).
        if thread.is_runnable:
            self._runnable.remove(thread.tid)
            self.runnable_version += 1
        thread.block(status, on)

    def _unblock_thread(self, thread: ThreadState) -> None:
        thread.unblock()
        insort(self._runnable, thread.tid)
        self.runnable_version += 1

    def _finish_thread(self, thread: ThreadState, value: Any) -> None:
        thread.return_value = value
        thread.status = ThreadStatus.DONE
        self._runnable.remove(thread.tid)
        self.runnable_version += 1
        self._live_count -= 1
        for other in self.threads.values():
            if (other.status == ThreadStatus.BLOCKED_JOIN
                    and other.blocked_on == thread.tid):
                self._unblock_thread(other)

    def _guest_failure(self, thread: ThreadState, kind: FailureKind,
                       detail: str) -> None:
        site = f"{thread.frame.function.name}@{thread.frame.pc}"
        thread.status = ThreadStatus.FAILED
        self._runnable.remove(thread.tid)
        self.runnable_version += 1
        self._live_count -= 1
        self.failure = FailureReport(kind=kind, location=site, detail=detail,
                                     tid=thread.tid, step_index=self.steps)

    # -- instruction execution ----------------------------------------------

    def _check_abort(self, record: StepRecord) -> None:
        early_abort = self.early_abort
        if early_abort is not None and early_abort(self, record):
            # Halting is how the run loop stops immediately; ``aborted``
            # distinguishes a killed candidate from a real ``halt``.
            self.aborted = True
            self.halted = True

    def _consume_input(self, thread: ThreadState, channel: str):
        if not self.env.has_input(channel):
            self._block_thread(thread, ThreadStatus.BLOCKED_INPUT, channel)
            return _BLOCKED
        return self.env.read_input(channel)

    def _read_shared(self, thread: ThreadState, loc, actual: Callable[[], int]):
        if self.load_interceptor is not None:
            value = self.load_interceptor(thread.tid, loc, actual)
            if value is not INTERCEPT_MISS:
                return value
        return actual()

    def _intercepted_io(self, tid: int, kind: str, name: str,
                        actual: Callable[[], Any]):
        if self.io_interceptor is not None:
            value = self.io_interceptor(tid, kind, name, actual)
            if value is not INTERCEPT_MISS:
                return value
        return actual()

    def _do_return(self, thread: ThreadState, value: Any) -> None:
        finished = thread.frames.pop()
        if thread.frames:
            dst = finished.return_register
            if dst is not None:
                thread.frames[-1].registers[dst] = value
        else:
            self._finish_thread(thread, value)


def run_program(program: Program,
                inputs: Optional[Dict[str, List[Any]]] = None,
                seed: int = 0,
                scheduler: Optional[Scheduler] = None,
                io_spec: Optional[IOSpec] = None,
                net_drop_rate: float = 0.0,
                max_steps: int = 2_000_000,
                observers: Sequence[Callable] = (),
                trace_mode: str = "full") -> Machine:
    """Convenience wrapper: build an environment + machine and run it."""
    env = Environment(inputs=inputs, seed=seed, net_drop_rate=net_drop_rate)
    machine = Machine(program, env=env, scheduler=scheduler,
                      io_spec=io_spec, max_steps=max_steps,
                      trace_mode=trace_mode)
    for observer in observers:
        machine.add_observer(observer)
    return machine.run()
