"""MiniVM instruction set.

Instructions are three-address register machine operations.  Operands are
either :class:`Const` (immediate int/str) or :class:`Reg` (thread-local
register).  Shared state - globals and arrays - is touched only through
explicit ``load``/``store``/``aload``/``astore`` instructions, which makes
every potentially racing access visible to tracers and recorders.

The opcode table (:data:`OPCODES`) is the single source of truth for arity
and operand kinds; the assembler, the validator, and the interpreter all
consult it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Tuple, Union


@dataclass(frozen=True)
class Const:
    """An immediate operand (int for arithmetic, str for messages)."""

    value: Union[int, str]

    def __repr__(self) -> str:
        return f"#{self.value!r}"


@dataclass(frozen=True)
class Reg:
    """A thread-local register operand, addressed by name."""

    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"


Operand = Union[Const, Reg]

# Binary arithmetic/comparison/logic opcodes share one evaluation path.
BINARY_OPS = {
    "add", "sub", "mul", "div", "mod",
    "eq", "ne", "lt", "le", "gt", "ge",
    "and", "or", "xor",
    "min", "max",
}

# Semantics of the non-trapping binary opcodes (div/mod live in the
# interpreter because they can raise a guest failure).  The decode-once
# dispatcher resolves each instruction's function from this table at
# program-load time, so the per-step path never looks an opcode up again.
BINARY_FUNCS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "and": lambda a, b: int(bool(a) and bool(b)),
    "or": lambda a, b: int(bool(a) or bool(b)),
    "xor": lambda a, b: int(bool(a) != bool(b)),
    "min": min,
    "max": max,
}

# opcode -> human-readable operand signature (used by the validator and
# assembler; the interpreter dispatches on the opcode name).
#   d=dest register, s=source operand, g=global name, a=array name,
#   f=function name, l=label, c=channel name, m=mutex name, i=identifier,
#   *=variadic source operands
OPCODES = {
    # data movement / arithmetic
    "const": "d s",
    "mov": "d s",
    **{op: "d s s" for op in BINARY_OPS},
    "not": "d s",
    "neg": "d s",
    # control flow
    "jmp": "l",
    "jz": "s l",       # jump when operand == 0
    "jnz": "s l",      # jump when operand != 0
    "call": "d f *",
    "ret": "",         # optional single source operand
    "halt": "",
    "nop": "",
    # shared memory
    "load": "d g",
    "store": "g s",
    "aload": "d a s",
    "astore": "a s s",
    "alen": "d a",
    # synchronization / threads
    "lock": "m",
    "unlock": "m",
    "spawn": "d f *",
    "join": "s",
    "yield": "",
    # I/O and environment
    "input": "d c",
    "output": "c s",
    "syscall": "d i *",
    # failure
    "assert": "s s",   # condition, message
    "fail": "s",       # message
}


@dataclass(frozen=True)
class Instr:
    """One MiniVM instruction: an opcode plus a tuple of operands.

    Operand kinds depend on the opcode - registers/constants are wrapped in
    :class:`Reg`/:class:`Const`; global, array, mutex, channel, function and
    label references are bare strings.  ``label`` is an optional jump target
    attached to this instruction.
    """

    op: str
    args: Tuple = field(default_factory=tuple)
    label: str = ""

    def __repr__(self) -> str:
        rendered = " ".join(repr(a) if isinstance(a, (Const, Reg)) else str(a)
                            for a in self.args)
        prefix = f"{self.label}: " if self.label else ""
        return f"{prefix}{self.op} {rendered}".strip()


# Opcodes that create inter-thread ordering.
SYNC_OPS = frozenset(("lock", "unlock", "spawn", "join"))


def is_sync(instr: Instr) -> bool:
    """True for instructions that create inter-thread ordering."""
    return instr.op in SYNC_OPS
