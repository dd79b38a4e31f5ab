"""Assembler and MiniLang compiler."""

import pytest

from repro.errors import AssemblerError, CompileError
from repro.vm import assemble, run_program
from repro.vm.compiler import compile_source
from repro.vm.compiler.lexer import Lexer, TokenKind


# -- assembler ---------------------------------------------------------------

def test_assemble_declarations():
    p = assemble("""
    global g = 5
    array a 3
    mutex m
    fn main():
        halt
    """)
    assert p.globals == {"g": 5}
    assert p.arrays == {"a": 3}
    assert "m" in p.mutexes


def test_assemble_label_prefix_form():
    m = run_program(assemble("""
    fn main():
        const %n, 2
    top: sub %n, %n, 1
        jnz %n, top
        output "o", %n
        halt
    """))
    assert m.env.outputs["o"] == [0]


def test_assemble_string_operand_with_comma():
    m = run_program(assemble('''
    fn main():
        output "o", "hello, world"
        halt
    '''))
    assert m.env.outputs["o"] == ["hello, world"]


def test_assemble_comment_handling():
    m = run_program(assemble("""
    # full line comment
    fn main():
        const %x, 1   # trailing comment
        output "o", %x
        halt
    """))
    assert m.env.outputs["o"] == [1]


def test_assemble_unknown_opcode():
    with pytest.raises(AssemblerError):
        assemble("""
        fn main():
            frobnicate %x
        """)


def test_assemble_dangling_label():
    with pytest.raises(AssemblerError):
        assemble("""
        fn main():
            halt
        orphan:
        """)


def test_assemble_instruction_outside_function():
    with pytest.raises(AssemblerError):
        assemble("nop")


def test_lexer_tokens():
    tokens = Lexer('fn x() { var y = 12; // c\n }').tokenize()
    kinds = [t.kind for t in tokens]
    assert TokenKind.KEYWORD in kinds and TokenKind.INT in kinds
    assert kinds[-1] == TokenKind.EOF


def test_lexer_block_comment_and_strings():
    tokens = Lexer('/* multi\nline */ output("a b", 1);').tokenize()
    strings = [t for t in tokens if t.kind == TokenKind.STRING]
    assert strings[0].value == "a b"


def test_lexer_unterminated_string():
    with pytest.raises(CompileError):
        Lexer('"oops').tokenize()


def test_lexer_bad_character():
    with pytest.raises(CompileError):
        Lexer("fn main() { @ }").tokenize()


# -- compiler ---------------------------------------------------------------------

def run_src(src, **kw):
    return run_program(compile_source(src), **kw)


def test_compile_precedence():
    m = run_src("""
    fn main() {
        output("o", 2 + 3 * 4);
        output("o", (2 + 3) * 4);
        output("o", 10 - 2 - 3);
        output("o", 1 + 2 == 3);
    }
    """)
    assert m.env.outputs["o"] == [14, 20, 5, 1]


def test_compile_unary():
    m = run_src("""
    fn main() {
        output("o", -5 + 8);
        output("o", !0);
        output("o", !7);
    }
    """)
    assert m.env.outputs["o"] == [3, 1, 0]


def test_compile_short_circuit_guards_oob():
    m = run_src("""
    array buf[2];
    fn main() {
        var i = 5;
        if (i < 2 && buf[i] == 0) { output("o", 1); }
        else { output("o", 0); }
    }
    """)
    assert m.failure is None
    assert m.env.outputs["o"] == [0]


def test_compile_else_if_chain():
    m = run_src("""
    fn classify(x) {
        if (x < 0) { return 0 - 1; }
        else if (x == 0) { return 0; }
        else { return 1; }
    }
    fn main() {
        output("o", classify(0 - 5));
        output("o", classify(0));
        output("o", classify(9));
    }
    """)
    assert m.env.outputs["o"] == [-1, 0, 1]


def test_compile_while_with_globals():
    m = run_src("""
    global total = 0;
    fn main() {
        var i = 1;
        while (i <= 5) {
            total = total + i;
            i = i + 1;
        }
        output("o", total);
    }
    """)
    assert m.env.outputs["o"] == [15]


def test_compile_undeclared_assignment_rejected():
    with pytest.raises(CompileError):
        compile_source("fn main() { x = 3; }")


def test_compile_shadowing_global_rejected():
    with pytest.raises(CompileError):
        compile_source("""
        global g = 0;
        fn main() { var g = 1; }
        """)


def test_compile_unknown_function_rejected():
    with pytest.raises(CompileError):
        compile_source("fn main() { nope(); }")


def test_compile_unknown_mutex_rejected():
    with pytest.raises(CompileError):
        compile_source("fn main() { lock(m); }")


def test_compile_spawn_join_threads():
    m = run_src("""
    global done = 0;
    fn child() { done = 1; }
    fn main() {
        var t = spawn child();
        join(t);
        output("o", done);
    }
    """)
    assert m.env.outputs["o"] == [1]


def test_compile_recursion_depth():
    m = run_src("""
    fn sum(n) {
        if (n == 0) { return 0; }
        return n + sum(n - 1);
    }
    fn main() { output("o", sum(30)); }
    """)
    assert m.env.outputs["o"] == [465]


def test_compile_input_syscall_assert():
    m = run_src("""
    fn main() {
        var a = input("i");
        assert(a > 0, "positive");
        var r = syscall("random", 3);
        output("o", a + r * 0);
    }
    """, inputs={"i": [7]}, seed=1)
    assert m.env.outputs["o"] == [7]
