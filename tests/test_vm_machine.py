"""MiniVM interpreter semantics."""

import pytest

from repro.errors import MachineError, ProgramError
from repro.vm import (Environment, FailureKind, IOSpec, Machine,
                      RandomScheduler, assemble, run_program)


def run_asm(src, **kw):
    return run_program(assemble(src), **kw)


def test_arithmetic_and_output():
    m = run_asm("""
    fn main():
        const %a, 7
        const %b, 3
        add %s, %a, %b
        mul %p, %a, %b
        sub %d, %a, %b
        div %q, %a, %b
        mod %r, %a, %b
        output "o", %s
        output "o", %p
        output "o", %d
        output "o", %q
        output "o", %r
        halt
    """)
    assert m.env.outputs["o"] == [10, 21, 4, 2, 1]
    assert m.failure is None


def test_comparisons():
    m = run_asm("""
    fn main():
        const %a, 5
        lt %x, %a, 9
        ge %y, %a, 5
        ne %z, %a, 5
        output "o", %x
        output "o", %y
        output "o", %z
        halt
    """)
    assert m.env.outputs["o"] == [1, 1, 0]


def test_branches_and_loop():
    m = run_asm("""
    fn main():
        const %n, 4
        const %acc, 0
    loop:
        jz %n, done
        add %acc, %acc, %n
        sub %n, %n, 1
        jmp loop
    done:
        output "o", %acc
        halt
    """)
    assert m.env.outputs["o"] == [10]


def test_call_and_return_value():
    m = run_asm("""
    fn double(x):
        add %r, %x, %x
        ret %r

    fn main():
        call %y, double, 21
        output "o", %y
        halt
    """)
    assert m.env.outputs["o"] == [42]


def test_fall_off_function_end_returns_zero():
    m = run_asm("""
    fn noop():
        nop

    fn main():
        call %y, noop
        output "o", %y
        halt
    """)
    assert m.env.outputs["o"] == [0]


def test_implicit_ret_is_a_recorded_step():
    """Falling off a function's end must be observable like explicit ret,
    in every trace mode: a step, charged, seen by observers."""
    from repro.vm import assemble
    program = assemble("""
    fn noop():
        nop

    fn main():
        call %y, noop
        output "o", %y
        halt
    """)
    for trace_mode in ("full", "counting", "events"):
        observed = []
        machine = Machine(program, trace_mode=trace_mode)
        machine.add_observer(
            lambda m, step: observed.append(
                (step.function, step.pc, step.op, step.cost)))
        machine.run()
        # call, nop, the implicit ret, output, halt.
        assert machine.steps == 5, trace_mode
        assert machine.meter.native_cycles == 4 + 1 + 2 + 12 + 1, trace_mode
        # Observed at the virtual pc one past the function body.
        assert observed == [("main", 0, "call", 4), ("noop", 0, "nop", 1),
                            ("noop", 1, "ret", 2), ("main", 1, "output", 12),
                            ("main", 2, "halt", 1)], \
            f"{trace_mode}: observers must see the implicit return"
        assert machine.env.outputs["o"] == [0], trace_mode
    rets = [s for s in Machine(program).run().trace.steps if s.op == "ret"]
    assert [(s.function, s.pc) for s in rets] == [("noop", 1)]


def test_implicit_and_explicit_ret_are_consistent():
    """Both return paths produce identical step streams and meter costs."""
    implicit = run_asm("""
    fn w():
        nop
    fn main():
        spawn %t, w
        join %t
        halt
    """)
    explicit = run_asm("""
    fn w():
        nop
        ret
    fn main():
        spawn %t, w
        join %t
        halt
    """)
    assert implicit.steps == explicit.steps
    assert ([ (s.tid, s.op, s.pc) for s in implicit.trace.steps]
            == [(s.tid, s.op, s.pc) for s in explicit.trace.steps])
    assert implicit.meter.native_cycles == explicit.meter.native_cycles


def test_decode_cache_shared_between_machines():
    """A program is decoded once per cost table: machines on one program
    share one code table, each function's code ends with the implicit
    ``ret``, and a machine with other costs gets its own table."""
    from repro.vm import CostModel, assemble
    from repro.vm.machine import code_table
    program = assemble("""
    fn helper():
        nop
    fn main():
        call %r, helper
        const %a, 1
        output "o", %a
        halt
    """)
    first, second = Machine(program), Machine(program)
    main_code = first.threads[0].frames[-1].code
    assert second.threads[0].frames[-1].code is main_code, \
        "the second machine must reuse the decoded code"
    table = code_table(program, CostModel())
    assert table["main"] is main_code
    assert list(program.code_tables.values()) == [table]
    assert [(op, cost) for op, __, cost in main_code] == \
        [("call", 4), ("const", 1), ("output", 12), ("halt", 1), ("ret", 2)]
    assert [(op, cost) for op, __, cost in table["helper"]] == \
        [("nop", 1), ("ret", 2)], \
        "the code must end with the implicit ret at pc == len(body)"
    for machine in (first, second):
        assert machine.run().env.outputs["o"] == [1]
        assert machine.meter.native_cycles == 4 + 1 + 2 + 1 + 12 + 1

    costly = Machine(program, cost_model=CostModel({"output": 50, "ret": 7}))
    costly_code = costly.threads[0].frames[-1].code
    assert costly_code is not main_code
    assert [cost for __, __, cost in costly_code] == [4, 1, 50, 1, 7]
    assert costly.run().meter.native_cycles == 4 + 1 + 7 + 1 + 50 + 1
    assert len(program.code_tables) == 2
    assert Machine(program).threads[0].frames[-1].code is main_code


def test_division_by_zero_failure():
    m = run_asm("""
    fn main():
        const %a, 1
        const %b, 0
        div %c, %a, %b
        halt
    """)
    assert m.failure is not None
    assert m.failure.kind == FailureKind.DIV_BY_ZERO


def test_array_out_of_bounds_failure():
    m = run_asm("""
    array buf 4
    fn main():
        const %i, 9
        astore buf, %i, 1
        halt
    """)
    assert m.failure.kind == FailureKind.OUT_OF_BOUNDS
    assert "buf" in m.failure.detail


def test_assert_failure_carries_message():
    m = run_asm("""
    fn main():
        const %c, 0
        assert %c, "boom"
        halt
    """)
    assert m.failure.kind == FailureKind.ASSERTION
    assert m.failure.detail == "boom"


def test_explicit_fail():
    m = run_asm("""
    fn main():
        fail "gave up"
    """)
    assert m.failure.kind == FailureKind.EXPLICIT


def test_unlock_without_lock_is_failure():
    m = run_asm("""
    mutex m
    fn main():
        unlock m
        halt
    """)
    assert m.failure.kind == FailureKind.EXPLICIT
    assert "unlock" in m.failure.detail


def test_self_deadlock_detected():
    m = run_asm("""
    mutex m
    fn main():
        lock m
        lock m
        halt
    """)
    assert m.failure.kind == FailureKind.DEADLOCK


def test_blocked_input_deadlocks():
    m = run_asm("""
    fn main():
        input %x, "nothing"
        halt
    """)
    assert m.failure.kind == FailureKind.DEADLOCK


def test_spawn_join_and_return_values():
    m = run_asm("""
    fn work(n):
        add %r, %n, 1
        ret %r

    fn main():
        spawn %t, work, 10
        join %t
        output "o", %t
        halt
    """)
    # Spawn result is the child's tid (1: main is 0).
    assert m.env.outputs["o"] == [1]
    assert m.threads[1].return_value == 11


def test_io_spec_violation_reported_after_run():
    spec = IOSpec().require(
        "out-is-42", lambda outputs, inputs: outputs.get("o") == [42],
        "must print 42")
    m = run_asm("""
    fn main():
        output "o", 41
        halt
    """, io_spec=spec)
    assert m.failure.kind == FailureKind.SPEC_VIOLATION
    assert m.failure.location == "out-is-42"


def test_inputs_consumed_visible_to_spec():
    spec = IOSpec().require(
        "echo", lambda outputs, inputs: outputs.get("o") == inputs.get("i"),
        "echo inputs")
    m = run_asm("""
    fn main():
        input %a, "i"
        output "o", %a
        halt
    """, inputs={"i": [5]}, io_spec=spec)
    assert m.failure is None


def test_step_limit():
    m = run_asm("""
    fn main():
    loop:
        jmp loop
    """, max_steps=100)
    assert m.hit_step_limit
    assert m.steps == 100


def test_syscall_random_is_seeded():
    src = """
    fn main():
        syscall %r, "random", 1000
        output "o", %r
        halt
    """
    a = run_asm(src, seed=5).env.outputs["o"]
    b = run_asm(src, seed=5).env.outputs["o"]
    c = run_asm(src, seed=6).env.outputs["o"]
    assert a == b
    assert a != c


def test_syscall_has_input():
    m = run_asm("""
    fn main():
        syscall %h, "has_input", "i"
        output "o", %h
        input %x, "i"
        syscall %h2, "has_input", "i"
        output "o", %h2
        halt
    """, inputs={"i": [1]})
    assert m.env.outputs["o"] == [1, 0]


def test_undefined_register_is_host_error():
    program = assemble("""
    fn main():
        output "o", %nope
        halt
    """)
    with pytest.raises(MachineError):
        Machine(program).run()


def test_core_dump_requires_failure():
    m = run_asm("""
    fn main():
        halt
    """)
    with pytest.raises(MachineError):
        m.core_dump()


def test_core_dump_contents():
    m = run_asm("""
    global g = 0
    fn main():
        const %v, 9
        store g, %v
        fail "done"
    """)
    dump = m.core_dump()
    assert dump.failure.kind == FailureKind.EXPLICIT
    assert dump.final_memory["globals"]["g"] == 9


def test_program_validation_rejects_unknown_global():
    with pytest.raises(ProgramError):
        assemble("""
        fn main():
            load %x, nope
            halt
        """)
