"""MiniVM program representation and validation.

A :class:`Program` is a set of named :class:`Function` bodies plus
declarations of the shared state they touch: global scalar variables,
fixed-size shared arrays, and named mutexes.  Programs are validated
eagerly at construction so the interpreter can assume well-formedness.

:class:`ProgramBuilder` offers a fluent API for constructing programs in
tests and in the corpus; most larger guests are written in MiniLang and
compiled (:mod:`repro.vm.compiler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ProgramError
from repro.vm.instructions import Const, Instr, OPCODES, Reg, SYNC_OPS


@dataclass
class Function:
    """A named function: parameter names plus an instruction body."""

    name: str
    params: Tuple[str, ...]
    body: List[Instr]
    labels: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.labels = {}
        for pc, instr in enumerate(self.body):
            if instr.label:
                if instr.label in self.labels:
                    raise ProgramError(
                        f"{self.name}: duplicate label {instr.label!r}")
                self.labels[instr.label] = pc
        # The sync opcode at each pc, or None, plus a trailing None for
        # the implicit ``ret`` at ``pc == len(body)``: the constraining
        # schedulers read a runnable thread's next sync op with one index
        # on every step instead of decoding its instruction.
        self.sync_ops: List[Optional[str]] = [
            instr.op if instr.op in SYNC_OPS else None
            for instr in self.body]
        self.sync_ops.append(None)

    def target(self, label: str) -> int:
        """Resolve a label to its program counter."""
        if label not in self.labels:
            raise ProgramError(f"{self.name}: unknown label {label!r}")
        return self.labels[label]


class Program:
    """A validated MiniVM program.

    Parameters
    ----------
    functions:
        The function bodies; must include an entry function (``main`` by
        default).
    globals_:
        Mapping of global scalar name to initial value.
    arrays:
        Mapping of shared array name to its size (zero-initialised).
    mutexes:
        Names of the declared mutexes.
    """

    def __init__(self,
                 functions: Sequence[Function],
                 globals_: Optional[Dict[str, int]] = None,
                 arrays: Optional[Dict[str, int]] = None,
                 mutexes: Optional[Sequence[str]] = None,
                 entry: str = "main"):
        self.functions: Dict[str, Function] = {}
        for fn in functions:
            if fn.name in self.functions:
                raise ProgramError(f"duplicate function {fn.name!r}")
            self.functions[fn.name] = fn
        self.globals = dict(globals_ or {})
        self.arrays = dict(arrays or {})
        self.mutexes = set(mutexes or [])
        self.entry = entry
        # Each function's decoded code under a cost table, keyed by the
        # table's contents and filled by :func:`repro.vm.machine.code_table`:
        # every machine running this program under that table shares it.
        self.code_tables: Dict[Tuple, Dict[str, list]] = {}
        # The structural SHA-256 :func:`repro.record.attest.guest_fingerprint`
        # computes, kept here by its first call: a program is not edited
        # after validation (the code tables rely on that too), so every
        # later attestation check reuses it.
        self.fingerprint_cache: Optional[str] = None
        self._validate()

    def function(self, name: str) -> Function:
        if name not in self.functions:
            raise ProgramError(f"unknown function {name!r}")
        return self.functions[name]

    def instruction_count(self) -> int:
        """Total static instruction count across all functions."""
        return sum(len(fn.body) for fn in self.functions.values())

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        if self.entry not in self.functions:
            raise ProgramError(f"missing entry function {self.entry!r}")
        for fn in self.functions.values():
            for pc, instr in enumerate(fn.body):
                self._validate_instr(fn, pc, instr)

    def _validate_instr(self, fn: Function, pc: int, instr: Instr) -> None:
        where = f"{fn.name}@{pc}"
        if instr.op not in OPCODES:
            raise ProgramError(f"{where}: unknown opcode {instr.op!r}")
        signature = OPCODES[instr.op].split()
        args = list(instr.args)
        if "*" in signature:
            fixed = signature.index("*")
            if len(args) < fixed:
                raise ProgramError(f"{where}: too few operands")
            tail = args[fixed:]
            args, signature = args[:fixed], signature[:fixed]
            for extra in tail:
                if not isinstance(extra, (Const, Reg)):
                    raise ProgramError(
                        f"{where}: variadic operand must be Reg/Const")
        elif instr.op == "ret":
            if len(args) > 1:
                raise ProgramError(f"{where}: ret takes at most one operand")
            if args and not isinstance(args[0], (Const, Reg)):
                raise ProgramError(f"{where}: ret operand must be Reg/Const")
            return
        elif len(args) != len(signature):
            raise ProgramError(
                f"{where}: {instr.op} expects {len(signature)} operands, "
                f"got {len(args)}")
        for kind, arg in zip(signature, args):
            self._validate_operand(where, fn, instr, kind, arg)

    def _validate_operand(self, where: str, fn: Function, instr: Instr,
                          kind: str, arg) -> None:
        if kind == "d":
            if not isinstance(arg, Reg):
                raise ProgramError(f"{where}: destination must be a register")
        elif kind == "s":
            if not isinstance(arg, (Reg, Const)):
                raise ProgramError(f"{where}: source must be Reg/Const")
        elif kind == "g":
            if arg not in self.globals:
                raise ProgramError(f"{where}: undeclared global {arg!r}")
        elif kind == "a":
            if arg not in self.arrays:
                raise ProgramError(f"{where}: undeclared array {arg!r}")
        elif kind == "m":
            if arg not in self.mutexes:
                raise ProgramError(f"{where}: undeclared mutex {arg!r}")
        elif kind == "f":
            if arg not in self.functions:
                raise ProgramError(f"{where}: unknown function {arg!r}")
        elif kind == "l":
            fn.target(arg)  # raises on unknown label
        elif kind in ("c", "i"):
            # Channels and syscall names may be written as bare identifiers
            # or quoted string constants; both normalise to str at runtime.
            if isinstance(arg, Const) and isinstance(arg.value, str):
                return
            if not isinstance(arg, str):
                what = "channel" if kind == "c" else "identifier"
                raise ProgramError(f"{where}: {what} must be a string")


class ProgramBuilder:
    """Fluent builder for MiniVM programs.

    Example
    -------
    >>> b = ProgramBuilder()
    >>> b.declare_global("counter", 0)
    >>> f = b.function("main")
    >>> f.emit("load", Reg("t"), "counter")
    >>> f.emit("add", Reg("t"), Reg("t"), Const(1))
    >>> f.emit("store", "counter", Reg("t"))
    >>> f.emit("halt")
    >>> program = b.build()
    """

    def __init__(self, entry: str = "main"):
        self._entry = entry
        self._globals: Dict[str, int] = {}
        self._arrays: Dict[str, int] = {}
        self._mutexes: List[str] = []
        self._functions: List["FunctionBuilder"] = []

    def declare_global(self, name: str, initial: int = 0) -> "ProgramBuilder":
        self._globals[name] = initial
        return self

    def declare_array(self, name: str, size: int) -> "ProgramBuilder":
        self._arrays[name] = size
        return self

    def declare_mutex(self, name: str) -> "ProgramBuilder":
        self._mutexes.append(name)
        return self

    def function(self, name: str, params: Sequence[str] = ()) -> "FunctionBuilder":
        fb = FunctionBuilder(name, tuple(params))
        self._functions.append(fb)
        return fb

    def build(self) -> Program:
        return Program(
            [fb.finish() for fb in self._functions],
            globals_=self._globals,
            arrays=self._arrays,
            mutexes=self._mutexes,
            entry=self._entry,
        )


class FunctionBuilder:
    """Accumulates instructions for one function; see ProgramBuilder."""

    def __init__(self, name: str, params: Tuple[str, ...]):
        self.name = name
        self.params = params
        self._body: List[Instr] = []
        self._pending_label: str = ""

    def label(self, name: str) -> "FunctionBuilder":
        """Attach a label to the next emitted instruction."""
        self._pending_label = name
        return self

    def emit(self, op: str, *args) -> "FunctionBuilder":
        self._body.append(Instr(op, tuple(args), label=self._pending_label))
        self._pending_label = ""
        return self

    def finish(self) -> Function:
        if self._pending_label:
            self.emit("nop")
        return Function(self.name, self.params, self._body)
