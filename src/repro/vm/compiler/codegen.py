"""MiniLang code generator: AST -> MiniVM instructions.

Name resolution is lexical and flat: identifiers declared ``global``/
``array``/``mutex`` at module level are shared state; everything else
(parameters and ``var`` declarations) is a thread-local register.
Temporaries use a ``.t`` prefix and labels a ``.L`` prefix, neither of
which can collide with user identifiers.

Short-circuit ``&&``/``||`` compile to branches, so the right operand is
evaluated only when needed - corpus programs rely on this to guard
array accesses.
"""

from __future__ import annotations

from typing import List, Optional, Set, Union

from repro.errors import CompileError
from repro.vm.compiler import ast_nodes as ast
from repro.vm.instructions import Const, Instr, Reg
from repro.vm.program import Function, Program

_CMP_OPS = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le",
            ">": "gt", ">=": "ge"}
_ARITH_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod"}

Value = Union[Reg, Const]


class CodeGenerator:
    """Generates a validated :class:`Program` from a parsed module."""

    def __init__(self, module: ast.Module):
        self.module = module
        self.global_names: Set[str] = {name for name, _ in module.globals_}
        self.array_names: Set[str] = {name for name, _ in module.arrays}
        self.mutex_names: Set[str] = set(module.mutexes)
        self.function_names: Set[str] = {fn.name for fn in module.functions}

    def generate(self) -> Program:
        functions = [self._gen_function(fn) for fn in self.module.functions]
        return Program(
            functions,
            globals_=dict(self.module.globals_),
            arrays=dict(self.module.arrays),
            mutexes=sorted(self.mutex_names),
        )

    def _gen_function(self, fn: ast.FunctionDef) -> Function:
        state = _FunctionState(self, fn)
        for stmt in fn.body:
            state.gen_statement(stmt)
        # Implicit `ret 0` so falling off the end is well-defined.
        state.emit("ret", Const(0))
        return Function(fn.name, tuple(fn.params), state.body)


class _FunctionState:
    """Per-function codegen state: instruction list, temps, labels, scope."""

    def __init__(self, gen: CodeGenerator, fn: ast.FunctionDef):
        self.gen = gen
        self.fn = fn
        self.body: List[Instr] = []
        self.locals: Set[str] = set(fn.params)
        self._temp_count = 0
        self._label_count = 0
        self._pending_label: str = ""

    # -- emission helpers ---------------------------------------------------

    def emit(self, op: str, *args) -> None:
        self.body.append(Instr(op, tuple(args), label=self._pending_label))
        self._pending_label = ""

    def place_label(self, label: str) -> None:
        if self._pending_label:
            self.emit("nop")
        self._pending_label = label

    def new_temp(self) -> Reg:
        self._temp_count += 1
        return Reg(f".t{self._temp_count}")

    def new_label(self, hint: str) -> str:
        self._label_count += 1
        return f".L{self._label_count}_{hint}"

    def error(self, node: ast.Node, message: str) -> CompileError:
        return CompileError(f"{self.fn.name}: {message}", node.line)

    # -- statements ------------------------------------------------------------

    def gen_statement(self, stmt) -> None:
        method = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if method is None:
            raise self.error(stmt, f"cannot compile {type(stmt).__name__}")
        method(stmt)

    def _stmt_VarDecl(self, stmt: ast.VarDecl) -> None:
        if stmt.name in self.gen.global_names:
            raise self.error(stmt, f"var {stmt.name!r} shadows a global")
        value = self.gen_expression(stmt.value)
        self.locals.add(stmt.name)
        self.emit("mov", Reg(stmt.name), value)

    def _stmt_Assign(self, stmt: ast.Assign) -> None:
        value = self.gen_expression(stmt.value)
        if stmt.name in self.gen.global_names:
            self.emit("store", stmt.name, value)
        elif stmt.name in self.locals:
            self.emit("mov", Reg(stmt.name), value)
        else:
            raise self.error(
                stmt, f"assignment to undeclared name {stmt.name!r} "
                      "(use 'var' for locals)")

    def _stmt_StoreIndex(self, stmt: ast.StoreIndex) -> None:
        if stmt.array not in self.gen.array_names:
            raise self.error(stmt, f"{stmt.array!r} is not an array")
        index = self.gen_expression(stmt.index)
        value = self.gen_expression(stmt.value)
        self.emit("astore", stmt.array, index, value)

    def _stmt_If(self, stmt: ast.If) -> None:
        condition = self.gen_expression(stmt.condition)
        else_label = self.new_label("else")
        end_label = self.new_label("endif")
        self.emit("jz", condition, else_label if stmt.else_body else end_label)
        for inner in stmt.then_body:
            self.gen_statement(inner)
        if stmt.else_body:
            self.emit("jmp", end_label)
            self.place_label(else_label)
            for inner in stmt.else_body:
                self.gen_statement(inner)
        self.place_label(end_label)
        self.emit("nop")

    def _stmt_While(self, stmt: ast.While) -> None:
        head_label = self.new_label("while")
        end_label = self.new_label("endwhile")
        self.place_label(head_label)
        condition = self.gen_expression(stmt.condition)
        self.emit("jz", condition, end_label)
        for inner in stmt.body:
            self.gen_statement(inner)
        self.emit("jmp", head_label)
        self.place_label(end_label)
        self.emit("nop")

    def _stmt_LockStmt(self, stmt: ast.LockStmt) -> None:
        if stmt.mutex not in self.gen.mutex_names:
            raise self.error(stmt, f"{stmt.mutex!r} is not a mutex")
        self.emit("lock" if stmt.acquire else "unlock", stmt.mutex)

    def _stmt_JoinStmt(self, stmt: ast.JoinStmt) -> None:
        self.emit("join", self.gen_expression(stmt.thread))

    def _stmt_OutputStmt(self, stmt: ast.OutputStmt) -> None:
        self.emit("output", stmt.channel, self.gen_expression(stmt.value))

    def _stmt_AssertStmt(self, stmt: ast.AssertStmt) -> None:
        condition = self.gen_expression(stmt.condition)
        self.emit("assert", condition, Const(stmt.message))

    def _stmt_FailStmt(self, stmt: ast.FailStmt) -> None:
        self.emit("fail", Const(stmt.message))

    def _stmt_ReturnStmt(self, stmt: ast.ReturnStmt) -> None:
        if stmt.value is None:
            self.emit("ret", Const(0))
        else:
            self.emit("ret", self.gen_expression(stmt.value))

    def _stmt_HaltStmt(self, stmt: ast.HaltStmt) -> None:
        self.emit("halt")

    def _stmt_YieldStmt(self, stmt: ast.YieldStmt) -> None:
        self.emit("yield")

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self.gen_expression(stmt.expr)

    # -- expressions -------------------------------------------------------------

    def gen_expression(self, expr) -> Value:
        method = getattr(self, f"_expr_{type(expr).__name__}", None)
        if method is None:
            raise self.error(expr, f"cannot compile {type(expr).__name__}")
        return method(expr)

    def _expr_IntLit(self, expr: ast.IntLit) -> Value:
        return Const(expr.value)

    def _expr_StrLit(self, expr: ast.StrLit) -> Value:
        return Const(expr.value)

    def _expr_Name(self, expr: ast.Name) -> Value:
        if expr.ident in self.gen.global_names:
            dst = self.new_temp()
            self.emit("load", dst, expr.ident)
            return dst
        if expr.ident in self.locals:
            return Reg(expr.ident)
        raise self.error(expr, f"undefined name {expr.ident!r}")

    def _expr_Index(self, expr: ast.Index) -> Value:
        if expr.array not in self.gen.array_names:
            raise self.error(expr, f"{expr.array!r} is not an array")
        index = self.gen_expression(expr.index)
        dst = self.new_temp()
        self.emit("aload", dst, expr.array, index)
        return dst

    def _expr_Unary(self, expr: ast.Unary) -> Value:
        operand = self.gen_expression(expr.operand)
        dst = self.new_temp()
        self.emit("not" if expr.op == "!" else "neg", dst, operand)
        return dst

    def _expr_Binary(self, expr: ast.Binary) -> Value:
        if expr.op in ("&&", "||"):
            return self._short_circuit(expr)
        op = _ARITH_OPS.get(expr.op) or _CMP_OPS.get(expr.op)
        if op is None:
            raise self.error(expr, f"unknown operator {expr.op!r}")
        left = self.gen_expression(expr.left)
        right = self.gen_expression(expr.right)
        dst = self.new_temp()
        self.emit(op, dst, left, right)
        return dst

    def _short_circuit(self, expr: ast.Binary) -> Value:
        dst = self.new_temp()
        skip_label = self.new_label("sc")
        end_label = self.new_label("scend")
        left = self.gen_expression(expr.left)
        jump = "jz" if expr.op == "&&" else "jnz"
        self.emit(jump, left, skip_label)
        right = self.gen_expression(expr.right)
        self.emit("ne", dst, right, Const(0))
        self.emit("jmp", end_label)
        self.place_label(skip_label)
        self.emit("const", dst, Const(0 if expr.op == "&&" else 1))
        self.place_label(end_label)
        self.emit("nop")
        return dst

    def _expr_Call(self, expr: ast.Call) -> Value:
        if expr.function not in self.gen.function_names:
            raise self.error(expr, f"unknown function {expr.function!r}")
        args = [self.gen_expression(a) for a in expr.args]
        dst = self.new_temp()
        self.emit("call", dst, expr.function, *args)
        return dst

    def _expr_Spawn(self, expr: ast.Spawn) -> Value:
        if expr.function not in self.gen.function_names:
            raise self.error(expr, f"unknown function {expr.function!r}")
        args = [self.gen_expression(a) for a in expr.args]
        dst = self.new_temp()
        self.emit("spawn", dst, expr.function, *args)
        return dst

    def _expr_Input(self, expr: ast.Input) -> Value:
        dst = self.new_temp()
        self.emit("input", dst, expr.channel)
        return dst

    def _expr_Syscall(self, expr: ast.Syscall) -> Value:
        args = [self.gen_expression(a) for a in expr.args]
        dst = self.new_temp()
        self.emit("syscall", dst, expr.name, *args)
        return dst
