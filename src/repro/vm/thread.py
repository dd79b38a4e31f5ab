"""Thread state for MiniVM: call frames, registers, and blocking status.

Both :class:`Frame` and :class:`ThreadState` are slotted: frames are
allocated on every call and their attributes are read on every executed
step, so the dict-per-instance cost of regular classes shows up directly
in interpreter throughput.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional

from repro.errors import MachineError
from repro.vm.program import Function


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_LOCK = "blocked-lock"
    BLOCKED_JOIN = "blocked-join"
    BLOCKED_INPUT = "blocked-input"
    DONE = "done"
    FAILED = "failed"


class Frame:
    """One call frame: the executing function, its pc and registers, and
    the function's decoded code - one ``(op, handler, cost)`` entry per
    pc plus a trailing implicit ``ret`` (:func:`repro.vm.machine.code_table`),
    so a step reads its instruction with one index."""

    __slots__ = ("function", "code", "pc", "registers", "return_register")

    def __init__(self,
                 function: Function,
                 code: list,
                 pc: int = 0,
                 registers: Optional[Dict[str, Any]] = None,
                 return_register: Optional[str] = None):
        self.function = function
        self.code = code
        self.pc = pc
        self.registers = registers if registers is not None else {}
        # Register in the *caller's* frame receiving this call's return value.
        self.return_register = return_register

    def clone(self) -> "Frame":
        """A copy for machine snapshot/fork: the function and its code are
        shared (neither is edited), registers are copied by value."""
        return Frame(self.function, self.code, self.pc,
                     dict(self.registers), self.return_register)

    def __repr__(self) -> str:
        return (f"Frame({self.function.name}@{self.pc}, "
                f"regs={self.registers!r})")


class ThreadState:
    """A MiniVM thread: a stack of frames plus scheduling status."""

    __slots__ = ("tid", "frames", "status", "blocked_on", "return_value")

    def __init__(self, tid: int, function: Function, code: list,
                 args: List[Any]):
        if len(args) != len(function.params):
            raise MachineError(
                f"thread {tid}: {function.name} expects "
                f"{len(function.params)} args, got {len(args)}")
        registers = dict(zip(function.params, args))
        self.tid = tid
        self.frames: List[Frame] = [Frame(function, code, 0, registers)]
        self.status = ThreadStatus.RUNNABLE
        self.blocked_on: Any = None      # mutex name / tid / channel
        self.return_value: Any = 0       # value of the thread's top function

    @property
    def frame(self) -> Frame:
        if not self.frames:
            raise MachineError(f"thread {self.tid} has no frames")
        return self.frames[-1]

    @property
    def is_runnable(self) -> bool:
        return self.status == ThreadStatus.RUNNABLE

    @property
    def is_live(self) -> bool:
        return self.status not in (ThreadStatus.DONE, ThreadStatus.FAILED)

    def block(self, status: ThreadStatus, on: Any) -> None:
        self.status = status
        self.blocked_on = on

    def unblock(self) -> None:
        self.status = ThreadStatus.RUNNABLE
        self.blocked_on = None

    def clone(self) -> "ThreadState":
        """A mid-run copy of this thread (machine snapshot/fork)."""
        twin = ThreadState.__new__(ThreadState)
        twin.tid = self.tid
        twin.frames = [frame.clone() for frame in self.frames]
        twin.status = self.status
        twin.blocked_on = self.blocked_on
        twin.return_value = self.return_value
        return twin

    def __repr__(self) -> str:
        where = (f"{self.frame.function.name}@{self.frame.pc}"
                 if self.frames else "<no frame>")
        return f"Thread({self.tid}, {self.status.value}, {where})"
