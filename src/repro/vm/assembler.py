"""Text assembler for MiniVM.

The assembly format is line-oriented:

.. code-block:: text

    # declarations
    global counter = 0
    array buf 16
    mutex m

    fn main():
        const %n, 3
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
        halt

Registers are written ``%name``; integer and quoted-string literals are
constants; bare identifiers name globals, arrays, mutexes, functions,
labels, or channels depending on the opcode's signature.  Commas between
operands are optional.  ``#`` starts a comment.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import AssemblerError
from repro.vm.instructions import Const, Instr, OPCODES, Reg
from repro.vm.program import Program, ProgramBuilder

_GLOBAL_RE = re.compile(r"^global\s+(\w+)(?:\s*=\s*(-?\d+))?$")
_ARRAY_RE = re.compile(r"^array\s+(\w+)\s+(\d+)$")
_MUTEX_RE = re.compile(r"^mutex\s+(\w+)$")
_FN_RE = re.compile(r"^fn\s+(\w+)\s*\(([^)]*)\)\s*:$")
_LABEL_RE = re.compile(r"^(\w+):$")
_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')


def _strip(line: str) -> str:
    """Remove comments and surrounding whitespace."""
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i].strip()
    return line.strip()


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas/whitespace, respecting strings."""
    operands: List[str] = []
    current: List[str] = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
            current.append(ch)
        elif ch in ", \t" and not in_string:
            if current:
                operands.append("".join(current))
                current = []
        else:
            current.append(ch)
    if in_string:
        raise AssemblerError(f"unterminated string in {text!r}")
    if current:
        operands.append("".join(current))
    return operands


def _parse_operand(token: str):
    if token.startswith("%"):
        if len(token) == 1:
            raise AssemblerError("empty register name")
        return Reg(token[1:])
    string = _STRING_RE.match(token)
    if string:
        return Const(string.group(1).replace('\\"', '"'))
    try:
        return Const(int(token, 0))
    except ValueError:
        return token  # bare identifier: global/array/mutex/fn/label/channel


def assemble(source: str) -> Program:
    """Assemble MiniVM assembly text into a validated :class:`Program`."""
    builder = ProgramBuilder()
    current_fn = None
    pending_label: Optional[str] = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue

        def err(message: str) -> AssemblerError:
            return AssemblerError(f"line {lineno}: {message}")

        match = _GLOBAL_RE.match(line)
        if match:
            builder.declare_global(match.group(1),
                                   int(match.group(2) or 0))
            continue
        match = _ARRAY_RE.match(line)
        if match:
            builder.declare_array(match.group(1), int(match.group(2)))
            continue
        match = _MUTEX_RE.match(line)
        if match:
            builder.declare_mutex(match.group(1))
            continue
        match = _FN_RE.match(line)
        if match:
            if pending_label:
                raise err(f"label {pending_label!r} dangles before fn")
            params = [p.strip() for p in match.group(2).split(",")
                      if p.strip()]
            current_fn = builder.function(match.group(1), params)
            continue
        match = _LABEL_RE.match(line)
        if match and match.group(1) not in OPCODES:
            if current_fn is None:
                raise err("label outside a function")
            if pending_label:
                raise err("two consecutive labels; add a nop")
            pending_label = match.group(1)
            continue

        # Instruction line: "op operands..." (label prefix "lbl: op ..."
        # is also accepted).
        if current_fn is None:
            raise err(f"instruction outside a function: {line!r}")
        label_prefix, line = _split_label_prefix(line)
        if label_prefix:
            if pending_label:
                raise err("two labels attached to one instruction")
            pending_label = label_prefix
        parts = line.split(None, 1)
        op = parts[0]
        if op not in OPCODES:
            raise err(f"unknown opcode {op!r}")
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [_parse_operand(tok)
                    for tok in _split_operands(operand_text)]
        if pending_label:
            current_fn.label(pending_label)
            pending_label = None
        current_fn.emit(op, *operands)

    if pending_label:
        raise AssemblerError(f"label {pending_label!r} at end of input")
    try:
        return builder.build()
    except Exception as exc:
        raise AssemblerError(f"assembly failed validation: {exc}") from exc


def _split_label_prefix(line: str) -> Tuple[Optional[str], str]:
    """Split ``"lbl: op ..."`` into ``("lbl", "op ...")`` when present."""
    match = re.match(r"^(\w+):\s+(\S.*)$", line)
    if match and match.group(1) not in OPCODES:
        return match.group(1), match.group(2)
    return None, line
