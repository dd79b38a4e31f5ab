"""The environment: every source of input non-determinism except scheduling.

An :class:`Environment` supplies input-channel values and syscall results
to a running machine and accumulates its outputs.  Replayers reconstruct
executions by rebuilding an environment from a recording (or from inferred
values) and re-running the program under a controlled scheduler.

Built-in syscalls
-----------------
``random limit``
    Uniform integer in ``[0, limit)`` from the environment's seeded RNG -
    a recordable non-deterministic event.
``time``
    Current simulated cycle count (deterministic given the schedule).
``net_send channel value``
    Simulated network send; returns 1 on success, 0 when dropped.  Drop
    decisions come from the seeded RNG and the configured drop rate, which
    is how the message-drop case study injects congestion.

Custom syscalls can be registered for app-specific behaviour.

An environment is attached to the machine that runs it and holds that
machine only weakly, so a dropped machine, its environment and its trace
are freed at once by reference counting rather than by the cyclic
collector.  The ``time`` syscall is the one reader of
:attr:`Environment.machine`.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Optional

from repro.errors import MachineError
from repro.util.rng import DeterministicRng

SyscallHandler = Callable[["Environment", list], Any]


class Environment:
    """Inputs, outputs, and syscall behaviour for one execution."""

    def __init__(self,
                 inputs: Optional[Dict[str, List[Any]]] = None,
                 seed: int = 0,
                 net_drop_rate: float = 0.0):
        # Remaining (unconsumed) input values per channel.
        self._pending_inputs: Dict[str, List[Any]] = {
            channel: list(values) for channel, values in (inputs or {}).items()
        }
        self.inputs_consumed: Dict[str, List[Any]] = {}
        self.outputs: Dict[str, List[Any]] = {}
        self.seed = seed
        self.net_drop_rate = net_drop_rate
        self.rng = DeterministicRng(seed, "env")
        self._syscalls: Dict[str, SyscallHandler] = {
            "random": _sys_random,
            "time": _sys_time,
            "net_send": _sys_net_send,
            "has_input": _sys_has_input,
        }
        # A weak reference to the owning machine, set by Machine on
        # attach: the machine holds its environment, so a strong
        # back-reference would make every machine a reference cycle.
        self._machine: Optional[weakref.ref] = None

    # -- wiring ----------------------------------------------------------

    def attach(self, machine) -> None:
        """Called by the machine that owns this environment."""
        self._machine = weakref.ref(machine)

    @property
    def machine(self):
        machine = self._machine() if self._machine is not None else None
        if machine is None:
            raise MachineError("environment not attached to a machine")
        return machine

    def register_syscall(self, name: str, handler: SyscallHandler) -> None:
        """Install or override a syscall handler."""
        self._syscalls[name] = handler

    # -- inputs / outputs --------------------------------------------------

    def has_input(self, channel: str) -> bool:
        return bool(self._pending_inputs.get(channel))

    def read_input(self, channel: str) -> Any:
        """Consume the next input value on ``channel``."""
        pending = self._pending_inputs.get(channel)
        if not pending:
            raise MachineError(f"no pending input on channel {channel!r}")
        value = pending.pop(0)
        self.inputs_consumed.setdefault(channel, []).append(value)
        return value

    def write_output(self, channel: str, value: Any) -> None:
        self.outputs.setdefault(channel, []).append(value)

    def syscall(self, name: str, args: list) -> Any:
        if name not in self._syscalls:
            raise MachineError(f"unknown syscall {name!r}")
        return self._syscalls[name](self, args)

    def replace_pending_inputs(self, inputs: Dict[str, List[Any]]) -> None:
        """Replace the unconsumed queues for the given channels only.

        Used by checkpoint-resumed executions: a machine forked at an
        input-consumption point keeps the consumed prefix but swaps in a
        different candidate's remaining values.  Channels not named in
        ``inputs`` (e.g. supplied by a custom environment factory outside
        the candidate assignment) keep their checkpointed queues.
        """
        for channel, values in inputs.items():
            self._pending_inputs[channel] = list(values)

    def fork(self) -> "Environment":
        """A mid-run copy for machine snapshot/fork.

        Pending/consumed inputs and outputs are copied by value and the
        RNG continues from the same stream position (a stream nothing has
        drawn from yet stays unseeded, and costs no copy), so a forked
        machine sees exactly the environment behaviour the original
        would have.
        Subclass identity and extra attributes are preserved (attributes
        beyond the base state are copied by reference - subclasses with
        mutable private state should override and extend this).  Syscall
        handlers are shared by reference; handlers closing over external
        mutable state are the caller's responsibility.
        """
        twin = type(self).__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._pending_inputs = {
            channel: list(values)
            for channel, values in self._pending_inputs.items()}
        twin.inputs_consumed = {
            channel: list(values)
            for channel, values in self.inputs_consumed.items()}
        twin.outputs = {channel: list(values)
                        for channel, values in self.outputs.items()}
        twin.rng = self.rng.clone()
        twin._syscalls = dict(self._syscalls)
        twin._machine = None
        return twin

    def clone_inputs(self) -> Dict[str, List[Any]]:
        """All inputs originally supplied (consumed + pending), per channel."""
        combined: Dict[str, List[Any]] = {}
        for channel, values in self.inputs_consumed.items():
            combined.setdefault(channel, []).extend(values)
        for channel, values in self._pending_inputs.items():
            combined.setdefault(channel, []).extend(values)
        return combined


def _sys_random(env: Environment, args: list) -> int:
    limit = args[0] if args else 2
    if limit <= 0:
        raise MachineError("random syscall needs a positive limit")
    return env.rng.randint(0, limit - 1)


def _sys_time(env: Environment, args: list) -> int:
    return env.machine.meter.native_cycles


def _sys_has_input(env: Environment, args: list) -> int:
    if not args:
        raise MachineError("has_input expects a channel name")
    return int(env.has_input(str(args[0])))


def _sys_net_send(env: Environment, args: list) -> int:
    if len(args) < 2:
        raise MachineError("net_send expects (channel, value)")
    channel, value = args[0], args[1]
    if env.net_drop_rate > 0 and env.rng.chance(env.net_drop_rate):
        return 0  # dropped by the (simulated) congested network
    env.write_output(str(channel), value)
    return 1
