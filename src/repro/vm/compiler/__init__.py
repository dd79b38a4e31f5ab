"""MiniLang: a small imperative language compiled to MiniVM bytecode.

MiniLang exists so the guest-program corpus (:mod:`repro.apps`) can be
written as readable source instead of hand-rolled instruction lists.  The
language has globals, fixed-size shared arrays, mutexes, functions,
threads (``spawn``/``join``), channel I/O, and the usual expressions and
control flow:

.. code-block:: c

    global counter = 0;
    mutex m;

    fn worker(iters) {
        while (iters > 0) {
            lock(m);
            counter = counter + 1;
            unlock(m);
            iters = iters - 1;
        }
    }

    fn main() {
        var t1 = spawn worker(100);
        var t2 = spawn worker(100);
        join(t1);
        join(t2);
        output("stdout", counter);
    }

Use :func:`compile_source` to obtain a validated
:class:`~repro.vm.program.Program`.
"""

from repro.vm.compiler.lexer import Lexer, Token, TokenKind
from repro.vm.compiler.parser import Parser
from repro.vm.compiler.codegen import CodeGenerator


def compile_source(source: str):
    """Compile MiniLang source text into a MiniVM :class:`Program`."""
    tokens = Lexer(source).tokenize()
    module = Parser(tokens).parse_module()
    return CodeGenerator(module).generate()


__all__ = ["compile_source", "Lexer", "Parser", "CodeGenerator",
           "Token", "TokenKind"]
