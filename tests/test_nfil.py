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
from repro.nfil.instructions import (
    BinOp,
    Br,
    Call,
    Cmp,
    ConstInstr,
    Imm,
    Jmp,
    Load,
    Reg,
    Ret,
    Select,
    Store,
)
from repro.nfil.interpreter import ExternHandler, InterpreterError
from repro.nfil.program import BasicBlock, Function, Param
from repro.nfil.tracer import ExecutionTrace, MemAccess


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
    trace = ExecutionTrace()
    trace.record_extern("a", (), 1, pcvs={"t": 2})
    trace.record_extern("b", (), None, pcvs={"t": 5, "e": 1})
    assert trace.pcv_bindings() == {"t": 5, "e": 1}
    assert trace.pcv_bindings(merge="sum") == {"t": 7, "e": 1}
    with pytest.raises(ValueError):
        trace.pcv_bindings(merge="median")


# --------------------------------------------------------------------------- #
# Interpreter conformance: the literal semantics every NFIL program relies on.
# --------------------------------------------------------------------------- #
MASK = (1 << 64) - 1
TOP = 1 << 63


def _fn(name, params, blocks):
    """A Function from ``{label: [instructions]}``, unvalidated on purpose."""
    return Function(
        name=name,
        params=[Param(p) for p in params],
        blocks={label: BasicBlock(label, list(body)) for label, body in blocks.items()},
    )


def _module(*functions, externs=()):
    module = Module("conformance")
    for name, arity, returns_value in externs:
        module.declare_extern(name, arity, returns_value=returns_value)
    for function in functions:
        module.add_function(function)
    return module


def _binary(op, a, b, *, imm_b=False):
    rhs = Imm(b) if imm_b else Reg("b")
    body = [BinOp(op, "r", Reg("a"), rhs), Ret(Reg("r"))]
    return _module(_fn("f", ("a", "b"), {"entry": body})), [a, b]


def _compare(op, a, b):
    body = [Cmp(op, "r", Reg("a"), Reg("b")), Ret(Reg("r"))]
    return _module(_fn("f", ("a", "b"), {"entry": body})), [a, b]


def _select(cond, dest="r"):
    body = [Select(dest, Reg("c"), Reg("x"), Imm(22)), Ret(Reg(dest))]
    return _module(_fn("f", ("c", "x"), {"entry": body})), [cond, 11]


def _store_then_load(size):
    # Store 0x1122334455667788 at `size` bytes over 0xFF-filled memory, read
    # the full word back, then reload at `size` (zero-extended).
    body = [
        Store(Reg("p"), Imm(MASK), 8),
        Store(Reg("p"), Imm(0x1122334455667788), size),
        Load("w", Reg("p"), 8),
        Load("n", Reg("p"), size),
        BinOp("xor", "r", Reg("w"), Reg("n")),
        Ret(Reg("r")),
    ]
    return _module(_fn("f", ("p",), {"entry": body})), [0x40]


def _countdown():
    blocks = {
        "entry": [Jmp("loop")],
        "loop": [
            BinOp("sub", "n", Reg("n"), Imm(1)),
            Cmp("ne", "c", Reg("n"), Imm(0)),
            Br(Reg("c"), "loop", "done"),
        ],
        "done": [Ret(Reg("n"))],
    }
    return _module(_fn("f", ("n",), blocks)), [3]


def _internal_call():
    doubled = [BinOp("add", "y", Reg("x"), Reg("x")), Ret(Reg("y"))]
    body = [Call("d", "twice", (Reg("x"),)), BinOp("add", "r", Reg("d"), Imm(1)), Ret(Reg("r"))]
    twice = _fn("twice", ("x",), {"entry": doubled})
    caller = _fn("f", ("x",), {"entry": body})
    return _module(twice, caller), [20]


def _callee_arity():
    twice = _fn("twice", ("x",), {"entry": [Ret(Reg("x"))]})
    caller = _fn("f", (), {"entry": [Call("d", "twice", (Imm(1), Imm(2))), Ret(Reg("d"))]})
    return _module(twice, caller), []


def _void_into_dest():
    void = _fn("g", (), {"entry": [Ret()]})
    caller = _fn("f", (), {"entry": [Call("d", "g", ()), Ret(Reg("d"))]})
    return _module(void, caller), []


def _extern_arity():
    caller = _fn("f", ("x",), {"entry": [Call(None, "ext", (Reg("x"), Imm(2))), Ret()]})
    return _module(caller, externs=[("ext", 1, False)]), [1]


def _extern_void_into_dest():
    caller = _fn("f", (), {"entry": [Call("d", "ext", ()), Ret(Reg("d"))]})
    return _module(caller, externs=[("ext", 0, False)]), []


def _extern_then_fall_through():
    caller = _fn("f", (), {"entry": [Call(None, "ext", ())]})
    return _module(caller, externs=[("ext", 0, False)]), []


def _single(blocks, params=(), args=()):
    return _module(_fn("f", params, blocks)), list(args)


def _ok(value, steps):
    return ("ok", value, steps)


def _err(cls, message):
    return ("raises", cls, message)


#: (case id, program factory, options, expected outcome).  The options set
#: the extern ``handler`` callables, ``max_steps`` and the ``function`` to
#: run ("f" by default).  ``_ok`` pins the return value and
#: ``trace.instructions``; ``_err`` pins the exception type and its whole
#: message.
CONFORMANCE = [
    ("add-wraps", lambda: _binary("add", MASK, 1), {}, _ok(0, 2)),
    ("sub-wraps", lambda: _binary("sub", 0, 1), {}, _ok(MASK, 2)),
    ("mul-truncates", lambda: _binary("mul", (1 << 32) + 1, (1 << 32) - 1), {}, _ok(MASK, 2)),
    ("mul-overflow", lambda: _binary("mul", TOP, 2), {}, _ok(0, 2)),
    ("udiv", lambda: _binary("udiv", 7, 2), {}, _ok(3, 2)),
    ("udiv-by-zero", lambda: _binary("udiv", 7, 0), {}, _ok(MASK, 2)),
    ("udiv-by-imm-zero", lambda: _binary("udiv", 7, 0, imm_b=True), {}, _ok(MASK, 2)),
    ("urem", lambda: _binary("urem", 7, 3), {}, _ok(1, 2)),
    ("urem-by-zero", lambda: _binary("urem", 7, 0), {}, _ok(7, 2)),
    ("and", lambda: _binary("and", 0b1100, 0b1010), {}, _ok(0b1000, 2)),
    ("or", lambda: _binary("or", 0b1100, 0b1010), {}, _ok(0b1110, 2)),
    ("xor", lambda: _binary("xor", 0b1100, 0b1010), {}, _ok(0b0110, 2)),
    ("shl-63", lambda: _binary("shl", 3, 63), {}, _ok(TOP, 2)),
    ("shl-64", lambda: _binary("shl", 1, 64), {}, _ok(0, 2)),
    ("shl-65", lambda: _binary("shl", 1, 65), {}, _ok(0, 2)),
    ("shl-imm-64", lambda: _binary("shl", 1, 64, imm_b=True), {}, _ok(0, 2)),
    ("shl-by-max-word", lambda: _binary("shl", 1, MASK), {}, _ok(0, 2)),
    ("lshr-63", lambda: _binary("lshr", MASK, 63), {}, _ok(1, 2)),
    ("lshr-64", lambda: _binary("lshr", MASK, 64), {}, _ok(0, 2)),
    ("lshr-65", lambda: _binary("lshr", MASK, 65), {}, _ok(0, 2)),
    ("lshr-imm-65", lambda: _binary("lshr", MASK, 65, imm_b=True), {}, _ok(0, 2)),
    ("eq", lambda: _compare("eq", 5, 5), {}, _ok(1, 2)),
    ("ne", lambda: _compare("ne", 5, 5), {}, _ok(0, 2)),
    ("ult-across-2^63", lambda: _compare("ult", 1, TOP), {}, _ok(1, 2)),
    ("ule", lambda: _compare("ule", TOP, TOP), {}, _ok(1, 2)),
    ("ugt-across-2^63", lambda: _compare("ugt", TOP, TOP - 1), {}, _ok(1, 2)),
    ("uge", lambda: _compare("uge", 0, 1), {}, _ok(0, 2)),
    ("slt-across-2^63", lambda: _compare("slt", TOP, TOP - 1), {}, _ok(1, 2)),
    ("slt-minus-one", lambda: _compare("slt", MASK, 0), {}, _ok(1, 2)),
    ("sle", lambda: _compare("sle", 0, MASK), {}, _ok(0, 2)),
    ("sgt-across-2^63", lambda: _compare("sgt", TOP - 1, TOP), {}, _ok(1, 2)),
    ("sge", lambda: _compare("sge", TOP, TOP), {}, _ok(1, 2)),
    ("select-taken", lambda: _select(2), {}, _ok(11, 2)),
    ("select-not-taken", lambda: _select(0), {}, _ok(22, 2)),
    ("select-into-its-operand", lambda: _select(1, dest="x"), {}, _ok(11, 2)),
    # w ^ n, where w is the full word and n the size-truncated reload.
    ("store-load-1", lambda: _store_then_load(1), {}, _ok(0xFFFFFFFFFFFFFF88 ^ 0x88, 6)),
    ("store-load-2", lambda: _store_then_load(2), {}, _ok(0xFFFFFFFFFFFF7788 ^ 0x7788, 6)),
    ("store-load-4", lambda: _store_then_load(4), {}, _ok(0xFFFFFFFF55667788 ^ 0x55667788, 6)),
    ("store-load-8", lambda: _store_then_load(8), {}, _ok(0, 6)),
    ("internal-call", _internal_call, {}, _ok(41, 5)),
    (
        "void-return-into-dest",
        _void_into_dest,
        {},
        _err(InterpreterError, "g returned void into %d"),
    ),
    (
        "extern-arity",
        _extern_arity,
        {},
        _err(InterpreterError, "extern ext expects 1 args, got 2"),
    ),
    (
        "extern-void-into-dest",
        _extern_void_into_dest,
        {"handler": {"ext": lambda args, memory: None}},
        _err(InterpreterError, "extern ext returned no value into %d"),
    ),
    (
        "undefined-register",
        lambda: _single(
            {"entry": [BinOp("add", "r", Reg("a"), Reg("nope")), Ret(Reg("r"))]}, ("a",), (1,)
        ),
        {},
        _err(InterpreterError, "f: read of undefined register %nope"),
    ),
    (
        "unknown-block",
        lambda: _single({"entry": [Jmp("nowhere")]}),
        {},
        _err(InterpreterError, "f: unknown block 'nowhere'"),
    ),
    (
        "fall-through",
        lambda: _single({"entry": [ConstInstr("x", 1)]}),
        {},
        _err(InterpreterError, "f:entry fell through without terminator"),
    ),
    (
        "fall-through-after-extern",
        _extern_then_fall_through,
        {"handler": {"ext": lambda args, memory: None}},
        _err(InterpreterError, "f:entry fell through without terminator"),
    ),
    (
        "unknown-function",
        _internal_call,
        {"function": "nope"},
        _err(InterpreterError, "unknown function 'nope'"),
    ),
    (
        "entry-arity",
        lambda: (_internal_call()[0], [1, 2]),
        {},
        _err(InterpreterError, "f expects 1 args, got 2"),
    ),
    (
        "unknown-callee",
        lambda: _single({"entry": [Call("d", "ghost", ()), Ret(Reg("d"))]}),
        {},
        _err(InterpreterError, "call to unknown symbol 'ghost'"),
    ),
    (
        "callee-arity",
        _callee_arity,
        {},
        _err(InterpreterError, "twice expects 1 args, got 2"),
    ),
    ("steps-at-limit", _countdown, {"max_steps": 11}, _ok(0, 11)),
    (
        "steps-over-limit",
        _countdown,
        {"max_steps": 10},
        _err(StepLimitExceeded, "exceeded 10 steps"),
    ),
    ("call-steps-at-limit", _internal_call, {"max_steps": 5}, _ok(41, 5)),
    (
        "call-steps-over-limit",
        _internal_call,
        {"max_steps": 4},
        _err(StepLimitExceeded, "exceeded 4 steps"),
    ),
]


@pytest.mark.parametrize(
    "factory, options, expected",
    [case[1:] for case in CONFORMANCE],
    ids=[case[0] for case in CONFORMANCE],
)
def test_interpreter_conformance(factory, options, expected):
    module, args = factory()
    handler = ExternHandler()
    for name, fn in options.get("handler", {}).items():
        handler.register(name, fn)
    interp = Interpreter(module, handler=handler, max_steps=options.get("max_steps", 1000))
    function = options.get("function", "f")
    if expected[0] == "raises":
        _, cls, message = expected
        with pytest.raises(cls) as info:
            interp.run(function, args)
        assert str(info.value) == message
        return
    _, value, steps = expected
    result, trace = interp.run(function, args)
    assert result == value and type(result) is int
    assert trace.instructions == steps


def test_interpreter_conformance_of_memory_and_trace():
    # Sizes 1/2/4/8: stores truncate, loads zero-extend, and the trace lists
    # every stateless access in execution order with its size and function.
    for size in (1, 2, 4, 8):
        module, args = _store_then_load(size)
        memory = Memory()
        _, trace = Interpreter(module).run("f", args, memory=memory)
        stored = (0x1122334455667788).to_bytes(8, "little")[:size]
        assert memory.read_bytes(0x40, 8) == stored + b"\xff" * (8 - size)
        assert [(a.addr, a.size, a.kind, a.function) for a in trace.accesses] == [
            (0x40, 8, "store", "f"),
            (0x40, size, "store", "f"),
            (0x40, 8, "load", "f"),
            (0x40, size, "load", "f"),
        ]
        assert (trace.mem_reads, trace.mem_writes) == (2, 2)
    # With recording off the counts stay and the address list stays empty.
    module, args = _store_then_load(2)
    trace = ExecutionTrace(record_accesses=False)
    Interpreter(module).run("f", args, trace=trace)
    assert (trace.mem_reads, trace.mem_writes, trace.accesses) == (2, 2, [])
    # A structure's accesses interleave with the stateless ones in call order.
    body = [
        Load("x", Reg("p"), 1),
        Call(None, "ext", (Reg("x"),)),
        Store(Reg("p"), Imm(7), 1),
        Ret(),
    ]
    module = _module(_fn("f", ("p",), {"entry": body}), externs=[("ext", 1, False)])
    handler = ExternHandler()
    handler.register("ext", lambda args, memory: ExternResult(None, accesses=(0x999,)))
    _, trace = Interpreter(module, handler=handler).run("f", [0x40])
    assert [(a.addr, a.kind, a.function) for a in trace.accesses] == [
        (0x40, "load", "f"),
        (0x999, "load", "ext"),
        (0x40, "store", "f"),
    ]


def _touching_module():
    """Stateless load and store around two calls to a structure extern."""
    body = [
        Load("x", Reg("p"), 2),
        Call(None, "ext", (Reg("x"),)),
        Store(Reg("p"), Imm(7), 4),
        Call(None, "ext", (Imm(1),)),
        Load("y", Reg("p"), 8),
        Ret(),
    ]
    module = _module(_fn("f", ("p",), {"entry": body}), externs=[("ext", 1, False)])

    def ext(args, memory):
        return ExternResult(None, memory_accesses=2, accesses=(0x900 + args[0], 0x980))

    handler = ExternHandler()
    handler.register("ext", ext)
    return Interpreter(module, handler=handler)


def test_trace_accesses_view_len_matches_the_recorded_count():
    _, trace = _touching_module().run("f", [0x40])
    recorded = trace.mem_reads + trace.mem_writes + trace.extern_memory_accesses()
    assert len(trace.accesses) == len(trace.addrs) == len(trace.sites) == recorded == 7


def test_trace_accesses_view_lists_memaccess_objects_in_execution_order():
    _, trace = _touching_module().run("f", [0x40])
    expected = [
        MemAccess(0x40, 2, "load", "f"),
        MemAccess(0x900, 8, "load", "ext"),
        MemAccess(0x980, 8, "load", "ext"),
        MemAccess(0x40, 4, "store", "f"),
        MemAccess(0x901, 8, "load", "ext"),
        MemAccess(0x980, 8, "load", "ext"),
        MemAccess(0x40, 8, "load", "f"),
    ]
    assert trace.accesses == expected
    assert list(trace.accesses) == expected
    assert trace.accesses[3] == expected[3] and trace.accesses[-1] == expected[-1]
    assert trace.accesses[1:3] == expected[1:3]
    assert trace.addrs == [access.addr for access in expected]
    assert trace.accesses != expected[:-1]


def test_trace_without_recording_keeps_counts_and_empty_stream():
    trace = ExecutionTrace(record_accesses=False)
    _touching_module().run("f", [0x40], trace=trace)
    assert trace.addrs == [] and trace.sites == [] and trace.accesses == []
    assert (trace.mem_reads, trace.mem_writes) == (2, 1)
    assert trace.extern_memory_accesses() == 4
    assert trace.total_memory_accesses() == 7


def test_interpreter_runs_a_replaced_function_not_its_cached_decoding():
    module = _module(_fn("f", (), {"entry": [Ret(Imm(1))]}))
    interp = Interpreter(module)
    assert interp.run("f", [])[0] == 1
    module.functions["f"] = _fn("f", (), {"entry": [Ret(Imm(2))]})
    assert interp.run("f", [])[0] == 2


def test_read_bytes_equals_bytewise_loads_over_sparse_memory():
    memory = Memory()
    memory.write_bytes(0x100, bytes(range(1, 9)))
    memory.store(0x10C, 0xA1B2, 2)
    memory.store(0x120, 0xFF, 1)
    for addr, size in [(0x100, 8), (0xFC, 40), (0x108, 6), (0x121, 3), (0x200, 5), (0x100, 0)]:
        expected = bytes(memory.load(addr + i, 1) for i in range(size))
        assert memory.read_bytes(addr, size) == expected
    assert memory.read_bytes(0xFE, 4) == b"\x00\x00\x01\x02"
