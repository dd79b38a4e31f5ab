"""Symbolic execution over MiniVM programs (sequential subset).

The smarter half of ODR-style inference: instead of brute-forcing the
input grid, execute the program with symbolic inputs, collect path
constraints at every branch, and solve ``outputs == recorded outputs``
per path.  Supports the sequential fragment of MiniVM (no threads or
locks), affine arithmetic, arrays indexed by concrete or solved-symbolic
values, and the failure instructions.

Used by the §2-a adder experiment and the inference-scaling ablation to
contrast enumeration cost against constraint solving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import SolverError
from repro.replay.solver import (Affine, Constraint, ConstraintSystem,
                                 SymVar)
from repro.util.intervals import Interval
from repro.vm.instructions import BINARY_FUNCS, Const, Instr, Reg
from repro.vm.program import Program

SymValue = Union[int, str, Affine]

_ARITH = {"add", "sub", "mul"}
_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_UNSUPPORTED = {"lock", "unlock", "spawn", "join", "syscall", "yield"}

# Steps after which a path counts as runaway and is dropped, and the
# most in-bounds values one symbolic array index forks into.
MAX_STEPS_PER_PATH = 20_000
MAX_INDEX_FORKS = 64


@dataclass(frozen=True)
class SymBool:
    """A deferred comparison: ``expr relop 0``, truth decided at a branch."""

    constraint: Constraint


@dataclass
class PathResult:
    """One fully explored symbolic path."""

    constraints: List[Constraint]
    outputs: Dict[str, List[SymValue]]
    failure_site: Optional[str] = None        # fn@pc of assert/fail, if hit
    failure_detail: str = ""
    halted: bool = True

    def system(self, domains: Dict[SymVar, Interval]) -> ConstraintSystem:
        system = ConstraintSystem(list(self.constraints))
        for var, domain in domains.items():
            system.set_domain(var, domain)
        return system


@dataclass
class _PathState:
    """Interpreter state for one in-progress symbolic path."""

    function: str
    pc: int
    registers: Dict[str, SymValue] = field(default_factory=dict)
    # (caller function, return pc, destination register, saved registers)
    call_stack: List[Tuple[str, int, Optional[str], Dict[str, SymValue]]] = (
        field(default_factory=list))
    constraints: List[Constraint] = field(default_factory=list)
    outputs: Dict[str, List[SymValue]] = field(default_factory=dict)
    input_cursor: int = 0
    steps: int = 0
    # Per-path shared state: globals and arrays may hold symbolic values.
    globals_: Dict[str, SymValue] = field(default_factory=dict)
    arrays: Dict[str, List[SymValue]] = field(default_factory=dict)


class SymbolicExecutor:
    """Explores the path space of a sequential MiniVM program."""

    def __init__(self, program: Program,
                 input_domain: Interval = Interval(0, 64),
                 max_paths: int = 256):
        self.program = program
        self.input_domain = input_domain
        self.max_paths = max_paths
        self.input_vars: List[SymVar] = []
        self.paths_explored = 0

    # -- public API ---------------------------------------------------------

    def explore(self) -> List[PathResult]:
        """Explore paths depth-first; return every completed path."""
        self.input_vars = []
        self.paths_explored = 0
        results: List[PathResult] = []
        entry = self.program.function(self.program.entry)
        if entry.params:
            raise SolverError("symbolic entry function takes no parameters")
        initial = _PathState(function=entry.name, pc=0)
        initial.globals_ = dict(self.program.globals)
        initial.arrays = {name: [0] * size
                          for name, size in self.program.arrays.items()}
        stack = [initial]
        while stack and self.paths_explored < self.max_paths:
            state = stack.pop()
            if isinstance(state, _FinishedState):
                results.append(state.result)
                self.paths_explored += 1
                continue
            outcome = self._run_path(state, stack)
            if outcome is not None:
                results.append(outcome)
                self.paths_explored += 1
        return results

    def domains(self) -> Dict[SymVar, Interval]:
        return {var: self.input_domain for var in self.input_vars}

    def infer_inputs_for_outputs(
            self, target_outputs: Dict[str, List[int]],
            channel: str = "in") -> Optional[Dict[str, List[int]]]:
        """Solve for concrete inputs reproducing ``target_outputs``.

        Returns the first satisfying input assignment across explored
        paths (ODR output-only inference via constraint solving).
        """
        for path in self.explore():
            system = self._match_outputs(path, target_outputs)
            if system is None:
                continue
            solution = system.solve()
            if solution is not None:
                values = [solution[var] for var in self.input_vars
                          if var in solution]
                return {channel: values}
        return None

    def _match_outputs(self, path: PathResult,
                       target: Dict[str, List[int]]
                       ) -> Optional[ConstraintSystem]:
        """Build path constraints + output-equality constraints."""
        if set(path.outputs) != set(target):
            return None
        system = path.system(self.domains())
        for chan, values in target.items():
            symbolic = path.outputs[chan]
            if len(symbolic) != len(values):
                return None
            for sym, concrete in zip(symbolic, values):
                if isinstance(sym, str):
                    if sym != concrete:
                        return None
                    continue
                diff = Affine.of(sym).sub(Affine.of(int(concrete)))
                system.add(Constraint(diff, "=="))
        return system

    # -- path interpreter ----------------------------------------------------

    def _run_path(self, state: _PathState,
                  stack: List[_PathState]) -> Optional[PathResult]:
        while True:
            if state.steps > MAX_STEPS_PER_PATH:
                return None  # runaway path: drop it
            function = self.program.function(state.function)
            if state.pc >= len(function.body):
                if not self._return(state, 0):
                    return self._finish(state)
                continue
            instr = function.body[state.pc]
            state.steps += 1
            finished = self._execute(state, instr, stack)
            if finished is _DROPPED:
                return None  # the path was replaced by its forks
            if finished is not None:
                return finished

    def _finish(self, state: _PathState,
                failure_site: Optional[str] = None,
                detail: str = "") -> PathResult:
        return PathResult(constraints=list(state.constraints),
                          outputs={k: list(v)
                                   for k, v in state.outputs.items()},
                          failure_site=failure_site,
                          failure_detail=detail)

    def _value(self, state: _PathState, operand) -> SymValue:
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Reg):
            if operand.name not in state.registers:
                raise SolverError(f"undefined register %{operand.name}")
            return state.registers[operand.name]
        raise SolverError(f"bad operand {operand!r}")

    def _execute(self, state: _PathState, instr: Instr,
                 stack: List[_PathState]) -> Optional[PathResult]:
        op, args = instr.op, instr.args
        site = f"{state.function}@{state.pc}"
        if op in _UNSUPPORTED:
            raise SolverError(
                f"{site}: {op} is outside the sequential symbolic subset")

        if op in ("const", "mov"):
            state.registers[args[0].name] = self._value(state, args[1])
        elif op in _ARITH:
            a = Affine.of(self._as_int(state, args[1]))
            b = Affine.of(self._as_int(state, args[2]))
            if op == "add":
                result = a.add(b)
            elif op == "sub":
                result = a.sub(b)
            else:
                result = a.mul(b)
            state.registers[args[0].name] = self._simplify(result)
        elif op in ("div", "mod"):
            a = self._as_int(state, args[1])
            b = self._as_int(state, args[2])
            if isinstance(a, Affine) or isinstance(b, Affine):
                raise SolverError(f"{site}: symbolic {op} unsupported")
            if b == 0:
                return self._finish(state, site, f"{op} by zero")
            state.registers[args[0].name] = (
                a // b if op == "div" else a % b)
        elif op in _CMP:
            left = self._as_int(state, args[1])
            right = self._as_int(state, args[2])
            if isinstance(left, int) and isinstance(right, int):
                # Concrete comparison: no constraint, no later fork.
                state.registers[args[0].name] = BINARY_FUNCS[op](left, right)
            else:
                diff = Affine.of(left).sub(Affine.of(right))
                state.registers[args[0].name] = SymBool(
                    Constraint(self._simplify_affine(diff), _CMP[op]))
        elif op in ("and", "or", "xor", "not", "neg", "min", "max"):
            return self._exec_logic(state, instr, site)
        elif op == "load":
            state.registers[args[0].name] = state.globals_[args[1]]
        elif op == "store":
            state.globals_[args[0]] = self._value(state, args[1])
        elif op == "alen":
            state.registers[args[0].name] = len(state.arrays[args[1]])
        elif op in ("aload", "astore"):
            return self._exec_array(state, instr, site, stack)
        elif op == "jmp":
            function = self.program.function(state.function)
            state.pc = function.target(args[0])
            return None
        elif op in ("jz", "jnz"):
            self._branch(state, instr, stack)
            return None
        elif op == "input":
            var = SymVar(f"in{len(self.input_vars)}")
            self.input_vars.append(var)
            state.registers[args[0].name] = Affine({var: 1})
            state.input_cursor += 1
        elif op == "output":
            channel = args[0].value if isinstance(args[0], Const) else args[0]
            state.outputs.setdefault(str(channel), []).append(
                self._value(state, args[1]))
        elif op == "assert":
            condition = self._value(state, args[0])
            message = str(self._value(state, args[1]))
            return self._exec_assert(state, condition, message, site, stack)
        elif op == "fail":
            return self._finish(state, site,
                                str(self._value(state, args[0])))
        elif op == "call":
            function = self.program.function(args[1])
            values = [self._value(state, a) for a in args[2:]]
            state.call_stack.append(
                (state.function, state.pc + 1, args[0].name,
                 state.registers))
            state.function = function.name
            state.pc = 0
            state.registers = dict(zip(function.params, values))
            return None
        elif op == "ret":
            value = self._value(state, args[0]) if args else 0
            if not self._return(state, value):
                return self._finish(state)
            return None
        elif op in ("halt", "nop"):
            if op == "halt":
                return self._finish(state)
        else:  # pragma: no cover
            raise SolverError(f"{site}: unhandled opcode {op}")
        state.pc += 1
        return None

    def _exec_array(self, state: _PathState, instr: Instr, site: str,
                    stack: List[_PathState]):
        """Array access with possibly symbolic index: concretize by
        forking one path per feasible index value (select/store theory
        by enumeration, adequate for the small arrays of the corpus)."""
        op, args = instr.op, instr.args
        array_name = args[1] if op == "aload" else args[0]
        index_operand = args[2] if op == "aload" else args[1]
        cells = state.arrays[array_name]
        index = self._as_int(state, index_operand)

        if isinstance(index, int):
            if not 0 <= index < len(cells):
                return self._finish(
                    state, site,
                    f"index {index} out of bounds for "
                    f"{array_name}[{len(cells)}]")
            self._array_effect(state, instr, cells, index)
            state.pc += 1
            return None

        # Symbolic index: one fork per in-bounds value whose interval is
        # feasible; a residual out-of-bounds fork captures the crash path.
        domains = self.domains()
        feasible = index.bounds(domains).intersect(
            Interval(0, len(cells) - 1))
        forks = 0
        for value in feasible:
            if forks >= MAX_INDEX_FORKS:
                break
            fork = self._fork(state)
            fork.constraints.append(
                Constraint(index.sub(Affine.of(value)), "=="))
            self._array_effect(fork, instr, fork.arrays[array_name], value)
            fork.pc += 1
            stack.append(fork)
            forks += 1
        # Out-of-bounds worlds (index beyond either end): crash paths.
        high = self._fork(state)
        high.constraints.append(
            Constraint(Affine.of(len(cells) - 1).sub(index), "<"))
        stack.append(_FinishedState(self._finish(
            high, site, f"index out of bounds for {array_name}")))
        low = self._fork(state)
        low.constraints.append(Constraint(index, "<"))
        stack.append(_FinishedState(self._finish(
            low, site, f"index out of bounds for {array_name}")))
        # The current path is fully replaced by its forks.
        return _DROPPED

    @staticmethod
    def _array_effect(state: _PathState, instr: Instr,
                      cells: List[SymValue], index: int) -> None:
        if instr.op == "aload":
            state.registers[instr.args[0].name] = cells[index]
        else:
            value_operand = instr.args[2]
            cells[index] = (value_operand.value
                            if isinstance(value_operand, Const)
                            else state.registers[value_operand.name])

    def _exec_logic(self, state: _PathState, instr: Instr,
                    site: str) -> None:
        op, args = instr.op, instr.args
        values = [self._value(state, a) for a in args[1:]]
        if any(isinstance(v, (Affine, SymBool)) for v in values):
            raise SolverError(f"{site}: symbolic {op} unsupported")
        if op == "not":
            result = int(not bool(values[0]))
        elif op == "neg":
            result = -values[0]
        else:
            result = BINARY_FUNCS[op](*values)
        state.registers[args[0].name] = result
        state.pc += 1
        return None

    def _exec_assert(self, state: _PathState, condition, message: str,
                     site: str, stack: List[_PathState]):
        if isinstance(condition, SymBool):
            # Fork: the failing world (constraint negated) and the passing
            # world continue separately.
            failing = self._fork(state)
            failing.constraints.append(condition.constraint.negate())
            result = self._finish(failing, site, message)
            state.constraints.append(condition.constraint)
            state.pc += 1
            # The failing world is a complete path; report it lazily by
            # pushing a sentinel state that immediately finishes.
            stack.append(_FinishedState(result))
            return None
        if isinstance(condition, Affine):
            raise SolverError(f"{site}: assert on raw affine value")
        if not condition:
            return self._finish(state, site, message)
        state.pc += 1
        return None

    def _branch(self, state: _PathState, instr: Instr,
                stack: List[_PathState]) -> None:
        function = self.program.function(state.function)
        target = function.target(instr.args[1])
        condition = self._value(state, instr.args[0])
        taken_when_zero = instr.op == "jz"
        if isinstance(condition, SymBool):
            base = condition.constraint
            # jz: jump when condition false; jnz: jump when condition true.
            jump_constraint = base.negate() if taken_when_zero else base
            stay_constraint = base if taken_when_zero else base.negate()
            other = self._fork(state)
            other.constraints.append(jump_constraint)
            other.pc = target
            stack.append(other)
            state.constraints.append(stay_constraint)
            state.pc += 1
            return
        if isinstance(condition, Affine):
            diff = condition
            jump_rel = "==" if taken_when_zero else "!="
            stay_rel = "!=" if taken_when_zero else "=="
            other = self._fork(state)
            other.constraints.append(Constraint(diff, jump_rel))
            other.pc = target
            stack.append(other)
            state.constraints.append(Constraint(diff, stay_rel))
            state.pc += 1
            return
        # Concrete condition.
        is_zero = (condition == 0)
        jump = is_zero if taken_when_zero else not is_zero
        state.pc = target if jump else state.pc + 1

    def _fork(self, state: _PathState) -> _PathState:
        return _PathState(
            function=state.function,
            pc=state.pc,
            registers=dict(state.registers),
            call_stack=[(fn, pc, dst, dict(regs))
                        for fn, pc, dst, regs in state.call_stack],
            constraints=list(state.constraints),
            outputs={k: list(v) for k, v in state.outputs.items()},
            input_cursor=state.input_cursor,
            steps=state.steps,
            globals_=dict(state.globals_),
            arrays={name: list(cells)
                    for name, cells in state.arrays.items()},
        )

    def _return(self, state: _PathState, value: SymValue) -> bool:
        """Pop a call frame; False when the path's main function returned."""
        if not state.call_stack:
            return False
        function, pc, dst, saved_registers = state.call_stack.pop()
        state.function = function
        state.pc = pc
        state.registers = saved_registers
        if dst is not None:
            state.registers[dst] = value
        return True

    def _as_int(self, state: _PathState, operand) -> Union[int, Affine]:
        value = self._value(state, operand)
        if isinstance(value, SymBool):
            raise SolverError("comparison result used as integer")
        if isinstance(value, str):
            raise SolverError("string used in arithmetic")
        return value

    @staticmethod
    def _simplify(expr: Affine) -> SymValue:
        if expr.is_constant:
            return expr.const
        return expr

    @staticmethod
    def _simplify_affine(expr: Affine) -> Affine:
        return expr


class _FinishedState(_PathState):
    """Sentinel path state that immediately yields a prepared result."""

    def __init__(self, result: PathResult):
        super().__init__(function="<done>", pc=0)
        self.result = result


# Sentinel: the executing path was replaced by forks and emits nothing.
_DROPPED = object()
