"""Tests for the NFIL layer: builder, validator, interpreter, tracer."""

import pytest

from repro.nfil import (
    ExternResult,
    FunctionBuilder,
    Interpreter,
    Memory,
    Module,
    StepLimitExceeded,
    ValidationError,
    validate_function,
    validate_module,
)
from repro.nfil.builder import BuilderError
from repro.nfil.instructions import BinOp, Reg
from repro.nfil.interpreter import ExternHandler, InterpreterError


def _max_module():
    b = FunctionBuilder("umax", params=("a", "b"))
    cond = b.ult(b.param("a"), b.param("b"))
    b.br(cond, "lt", "ge")
    b.block("lt")
    b.ret(b.param("b"))
    b.block("ge")
    b.ret(b.param("a"))
    module = Module("t")
    module.add_function(b.build())
    return module


def test_builder_produces_valid_function():
    module = _max_module()
    validate_module(module)
    assert module.get_function("umax").instruction_count() == 4


def test_builder_rejects_append_after_terminator():
    b = FunctionBuilder("f")
    b.ret(0)
    with pytest.raises(BuilderError):
        b.const(1)


def test_validator_rejects_missing_terminator():
    b = FunctionBuilder("f")
    b.const(1)
    with pytest.raises(ValidationError):
        b.build()


def test_validator_rejects_use_before_def_across_branches():
    # %v is defined on only one side of a diamond; the join uses it.
    b = FunctionBuilder("f", params=("c",))
    b.br(b.param("c"), "yes", "no")
    b.block("yes")
    b.const(1, name="v")
    b.jmp("join")
    b.block("no")
    b.jmp("join")
    b.block("join")
    b.ret(b.binop("add", b.param("c"), b.param("c")))
    fn = b.build(validate=False)
    fn.blocks["join"].instructions.insert(0, BinOp("add", "w", Reg("v"), Reg("c")))
    with pytest.raises(ValidationError, match="used before definition"):
        validate_function(fn)


def test_validator_rejects_unknown_branch_target():
    b = FunctionBuilder("f")
    b.jmp("nowhere")
    with pytest.raises(ValidationError, match="unknown block"):
        b.build()


def test_validator_checks_extern_arity_and_void():
    module = Module("m")
    module.declare_extern("ext_void", 1, returns_value=False)
    b = FunctionBuilder("f", params=("x",))
    b.call("ext_void", b.param("x"), b.param("x"), void=True)
    b.ret()
    module.add_function(b.build())
    with pytest.raises(ValidationError, match="expects 1 args"):
        validate_module(module)


def test_interpreter_runs_branches_and_counts():
    module = _max_module()
    interp = Interpreter(module)
    result, trace = interp.run("umax", [3, 9])
    assert result == 9
    result2, trace2 = interp.run("umax", [9, 3])
    assert result2 == 9
    # cmp, br, ret on either path
    assert trace.instructions == trace2.instructions == 3


def test_interpreter_memory_and_trace_accesses():
    b = FunctionBuilder("swap16", params=("addr",))
    lo = b.load(b.param("addr"), size=1)
    hi = b.load(b.add(b.param("addr"), 1), size=1)
    b.store(b.param("addr"), hi, size=1)
    b.store(b.add(b.param("addr"), 1), lo, size=1)
    b.ret()
    module = Module("m")
    module.add_function(b.build())

    memory = Memory()
    memory.write_bytes(0x100, bytes([0xAA, 0xBB]))
    result, trace = Interpreter(module).run("swap16", [0x100], memory=memory)
    assert result is None
    assert memory.read_bytes(0x100, 2) == bytes([0xBB, 0xAA])
    assert trace.mem_reads == 2
    assert trace.mem_writes == 2
    assert trace.memory_accesses == 4
    kinds = [access.kind for access in trace.accesses]
    assert kinds == ["load", "load", "store", "store"]


def test_interpreter_little_endian_loads():
    b = FunctionBuilder("read32", params=("addr",))
    b.ret(b.load(b.param("addr"), size=4))
    module = Module("m")
    module.add_function(b.build())
    memory = Memory()
    memory.store(0x10, 0xDDCCBBAA, 4)
    result, _ = Interpreter(module).run("read32", [0x10], memory=memory)
    assert result == 0xDDCCBBAA
    assert memory.read_bytes(0x10, 4) == bytes([0xAA, 0xBB, 0xCC, 0xDD])


def test_interpreter_internal_calls():
    module = Module("m")
    inner = FunctionBuilder("twice", params=("x",))
    inner.ret(inner.add(inner.param("x"), inner.param("x")))
    module.add_function(inner.build())
    outer = FunctionBuilder("f", params=("x",))
    doubled = outer.call("twice", outer.param("x"))
    outer.ret(outer.add(doubled, 1))
    module.add_function(outer.build())
    validate_module(module)
    result, trace = Interpreter(module).run("f", [20])
    assert result == 41
    # call, (add, ret in callee), add, ret in caller
    assert trace.instructions == 5


def test_interpreter_extern_dispatch_and_costs():
    module = Module("m")
    module.declare_extern("magic", 2, returns_value=True)
    b = FunctionBuilder("f", params=("x",))
    value = b.call("magic", b.param("x"), 10)
    b.ret(value)
    module.add_function(b.build())

    handler = ExternHandler()
    handler.register(
        "magic",
        lambda args, memory: ExternResult(
            args[0] + args[1], instructions=7, memory_accesses=2, pcvs={"k": 3}
        ),
    )
    result, trace = Interpreter(module, handler=handler).run("f", [32])
    assert result == 42
    assert len(trace.extern_calls) == 1
    call = trace.extern_calls[0]
    assert call.index == 0 and call.args == (32, 10) and call.result == 42
    assert trace.total_instructions() == trace.instructions + 7
    assert trace.total_memory_accesses() == 2
    assert trace.pcv_bindings() == {"k": 3}


def test_interpreter_missing_extern_handler_raises():
    module = Module("m")
    module.declare_extern("nope", 0)
    b = FunctionBuilder("f")
    b.call("nope", void=True)
    b.ret()
    module.add_function(b.build())
    with pytest.raises(InterpreterError, match="no handler"):
        Interpreter(module).run("f", [])


def test_interpreter_step_limit():
    b = FunctionBuilder("spin")
    b.jmp("loop")
    b.block("loop")
    b.jmp("loop")
    module = Module("m")
    module.add_function(b.build())
    with pytest.raises(StepLimitExceeded):
        Interpreter(module, max_steps=100).run("spin", [])


def test_trace_pcv_binding_merge_modes():
    from repro.nfil.tracer import ExecutionTrace

    trace = ExecutionTrace()
    trace.record_extern("a", (), 1, pcvs={"t": 2})
    trace.record_extern("b", (), None, pcvs={"t": 5, "e": 1})
    assert trace.pcv_bindings() == {"t": 5, "e": 1}
    assert trace.pcv_bindings(merge="sum") == {"t": 7, "e": 1}
    with pytest.raises(ValueError):
        trace.pcv_bindings(merge="median")
