"""Concrete NFIL interpreter and instrumented memory.

The interpreter executes one NFIL function on concrete 64-bit values.  Every
executed instruction and memory access is reported to an
:class:`repro.nfil.tracer.ExecutionTrace`, which makes the interpreter the
reproduction's replacement for running the NF under Intel Pin (§3.2 of the
paper).

Extern calls (the stateful data-structure methods of the Vigor-style
library) are dispatched to an :class:`ExternHandler`; the handler returns
the call's value together with the instrumented cost of serving it and the
PCV values it observed, so the trace carries everything a performance
contract must bound.

Execution is pre-decoded: the first time a function runs, each basic block
is translated once into one generated Python function (a *segment*; a block
splits after every internal call) whose body is the block's instructions as
straight-line integer code over local variables.  A segment adds its
instruction, load and store counts to the trace in bulk, records each
access (its address and a constant ``(size, kind, function)`` site) and
extern call in execution order, and returns where control goes
next.  Segments are compiled once per distinct generated source and shared
by every interpreter.

The arithmetic here deliberately mirrors the semantics of
:mod:`repro.sym.expr` (which the symbolic engine uses) without importing
it — NFIL is the bottom layer and must stay import-free of ``repro.sym`` —
and the test suite cross-checks the two by replaying symbolic models
concretely.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.nfil.instructions import (
    BinOp,
    Br,
    Call,
    Cmp,
    ConstInstr,
    Imm,
    Instruction,
    Jmp,
    Load,
    Operand,
    Ret,
    Select,
    Store,
    WORD_BITS,
    WORD_MASK,
)
from repro.nfil.program import Function, Module
from repro.nfil.tracer import ExecutionTrace, ExternResult

__all__ = [
    "ExternHandler",
    "ExternResult",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "StepLimitExceeded",
]


class InterpreterError(RuntimeError):
    """An ill-formed program reached the interpreter."""


class StepLimitExceeded(InterpreterError):
    """The execution exceeded the configured step budget."""


class Memory:
    """Sparse byte-addressable memory; unwritten bytes read as zero.

    The interpreter's decoded blocks read and write the byte map directly,
    with the same little-endian layout as :meth:`load` and :meth:`store`.
    """

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes little-endian, zero-extended to 64 bits."""
        value = 0
        for offset in range(size):
            value |= self._bytes.get(addr + offset, 0) << (8 * offset)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        """Store the low ``size`` bytes of ``value`` little-endian."""
        for offset in range(size):
            self._bytes[addr + offset] = (value >> (8 * offset)) & 0xFF

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk-write raw bytes (e.g. a packet buffer)."""
        self._bytes.update(zip(range(addr, addr + len(data)), data))

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Bulk-read raw bytes."""
        return bytes(map(self._bytes.get, range(addr, addr + size), itertools.repeat(0, size)))

    def clear(self) -> None:
        """Reset all memory to zero."""
        self._bytes.clear()


#: Handlers may return a plain int (the value), None (void) or ExternResult.
HandlerFn = Callable[[Tuple[int, ...], Memory], Union[ExternResult, int, None]]


class ExternHandler:
    """Dispatch table for extern (stateful library) calls.

    Either register plain callables with :meth:`register`, or subclass and
    register bound methods in ``__init__`` — the instrumented data
    structures in :mod:`repro.nf` do the latter.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, HandlerFn] = {}

    def register(self, name: str, fn: HandlerFn) -> None:
        """Register the handler for extern ``name``."""
        self._handlers[name] = fn

    def knows(self, name: str) -> bool:
        """Return True when a handler for ``name`` is registered."""
        return name in self._handlers

    def merge(self, other: "ExternHandler") -> "ExternHandler":
        """Adopt every registration of ``other``; returns self.

        Lets an NF that composes several stateful structures (each of which
        is its own handler) present one dispatch table to the interpreter.
        Name collisions raise, since silently shadowing a structure's
        handler would corrupt the cost accounting.
        """
        for name, fn in other._handlers.items():
            if name in self._handlers:
                raise ValueError(f"extern {name!r} already has a handler")
            self._handlers[name] = fn
        return self

    def handle(self, name: str, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        """Serve one extern call; coerce shorthand returns to ExternResult."""
        try:
            fn = self._handlers[name]
        except KeyError:
            raise InterpreterError(f"no handler registered for extern {name!r}") from None
        result = fn(args, memory)
        if result is None:
            return ExternResult(None)
        if isinstance(result, int):
            return ExternResult(result & WORD_MASK)
        return result


# --------------------------------------------------------------------------- #
# Decoding: each block becomes generated straight-line Python
# --------------------------------------------------------------------------- #
_MASK = hex(WORD_MASK)
_SIGN = hex(1 << (WORD_BITS - 1))

#: Source of each binary op over two atom operands (locals or literals).
_BINARY = {
    "add": "({a} + {b}) & " + _MASK,
    "sub": "({a} - {b}) & " + _MASK,
    "mul": "({a} * {b}) & " + _MASK,
    "udiv": "({a} // {b} if {b} else " + _MASK + ")",
    "urem": "({a} % {b} if {b} else {a})",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "(({a} << {b}) & " + _MASK + f" if {{b}} < {WORD_BITS} else 0)",
    "lshr": f"({{a}} >> {{b}} if {{b}} < {WORD_BITS} else 0)",
}

#: Source of each comparison; flipping the sign bit turns signed order
#: into unsigned order on 64-bit words.
_COMPARE = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "ult": "{a} < {b}",
    "ule": "{a} <= {b}",
    "ugt": "{a} > {b}",
    "uge": "{a} >= {b}",
    "slt": f"({{a}} ^ {_SIGN}) < ({{b}} ^ {_SIGN})",
    "sle": f"({{a}} ^ {_SIGN}) <= ({{b}} ^ {_SIGN})",
    "sgt": f"({{a}} ^ {_SIGN}) > ({{b}} ^ {_SIGN})",
    "sge": f"({{a}} ^ {_SIGN}) >= ({{b}} ^ {_SIGN})",
}


class _Call:
    """A segment's exit into an internal function call."""

    __slots__ = ("callee", "args", "dest", "resume")

    def __init__(
        self, callee: str, args: Tuple[int, ...], dest: Optional[str], resume: Tuple[str, int]
    ) -> None:
        self.callee = callee
        self.args = args
        self.dest = dest
        self.resume = resume


class _Return:
    """A segment's exit through ``ret``."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[int]) -> None:
        self.value = value


#: A segment runs as ``segment(registers, memory, trace, handle)`` and returns
#: the label of the next block, a :class:`_Call` or a :class:`_Return`.
Segment = Callable[..., Union[str, _Call, _Return]]

#: Where control can enter a function: a block label, or ``(label, index)``
#: for the rest of a block after an internal call returns.
SegmentKey = Union[str, Tuple[str, int]]

_SEGMENT_GLOBALS: Dict[str, object] = {
    "InterpreterError": InterpreterError,
    "_Call": _Call,
    "_Return": _Return,
}

#: Compiled segments by generated source: equal blocks of different modules
#: (every harness builds its own copy of an NF) share one function.
_SEGMENTS: Dict[str, Segment] = {}


def _split(function: Function, module: Module) -> List[Tuple[str, int, List[Instruction]]]:
    """Cut every block after its first terminator and after each internal call.

    Returns ``(label, start index, instructions)`` per segment.  Instructions
    past a block's first terminator never run.  A block that ends without a
    terminator keeps a final (possibly empty) segment, which raises the
    fall-through error once it is reached.
    """
    segments: List[Tuple[str, int, List[Instruction]]] = []
    for label, block in function.blocks.items():
        start = 0
        for index, instruction in enumerate(block.instructions):
            terminator = instruction.is_terminator()
            if terminator or (
                isinstance(instruction, Call) and not module.is_extern(instruction.callee)
            ):
                segments.append((label, start, block.instructions[start : index + 1]))
                start = index + 1
                if terminator:
                    break
        else:
            segments.append((label, start, block.instructions[start:]))
    return segments


def _live_in(instructions: Sequence[Instruction]) -> set[str]:
    """Registers a segment reads before it defines them."""
    defined: set[str] = set()
    read: set[str] = set()
    for instruction in instructions:
        for operand in instruction.operands():
            if not isinstance(operand, Imm) and operand.name not in defined:
                read.add(operand.name)
        dest = instruction.defines()
        if dest is not None:
            defined.add(dest)
    return read


class _SegmentWriter:
    """Writes the Python source of one segment.

    Each register value lives in a local variable while the segment runs.
    A register the segment did not define is read from the frame's register
    dict at its first use; registers that some segment of the function
    reads that way are written back to the dict before the segment exits.
    """

    def __init__(
        self, function: str, label: str, start: int, module: Module, shared: set[str]
    ) -> None:
        self.function = function
        self.label = label
        self.start = start
        self.module = module
        self.shared = shared
        self.lines: List[str] = []
        self.locals: Dict[str, str] = {}
        self.defined: Dict[str, str] = {}
        self.names = 0
        #: Set once the segment has emitted its exit (a jump, call or return).
        self.exits = False

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def read(self, operand: Operand, depth: int = 1, *, keep: bool = True) -> str:
        """Return the atom naming ``operand``'s value, loading it if needed."""
        if isinstance(operand, Imm):
            return str(operand.value)
        local = self.locals.get(operand.name)
        if local is not None:
            return local
        local = self.fresh()
        message = f"{self.function}: read of undefined register %{operand.name}"
        self.emit(depth, "try:")
        self.emit(depth + 1, f"{local} = r[{operand.name!r}]")
        self.emit(depth, "except KeyError:")
        self.emit(depth + 1, f"raise InterpreterError({message!r}) from None")
        if keep:
            self.locals[operand.name] = local
        return local

    def define(self, register: str) -> str:
        local = self.fresh()
        self.locals[register] = local
        self.defined[register] = local
        return local

    def write_back(self) -> None:
        for register, local in self.defined.items():
            if register in self.shared:
                self.emit(1, f"r[{register!r}] = {local}")

    def fail(self, message: str) -> None:
        self.emit(1, f"raise InterpreterError({message!r})")

    def source(self, instructions: Sequence[Instruction]) -> str:
        loads = sum(isinstance(instruction, Load) for instruction in instructions)
        stores = sum(isinstance(instruction, Store) for instruction in instructions)
        self.emit(1, f"t.instructions += {len(instructions)}")
        if loads:
            self.emit(1, f"t.mem_reads += {loads}")
        if stores:
            self.emit(1, f"t.mem_writes += {stores}")
        if loads or stores:
            self.emit(1, "b = m._bytes")
            self.emit(1, "if t.record_accesses:")
            self.emit(2, "acc = t.addrs.append")
            self.emit(2, "site = t.sites.append")
            self.emit(1, "else:")
            self.emit(2, "acc = None")
        for index, instruction in enumerate(instructions):
            self.instruction(instruction, self.start + index)
        if not self.exits:
            self.fail(f"{self.function}:{self.label} fell through without terminator")
        body = "\n".join(self.lines)
        return f"def segment(r, m, t, h):\n{body}\n"

    def instruction(self, instruction: Instruction, index: int) -> None:
        if isinstance(instruction, ConstInstr):
            self.emit(1, f"{self.define(instruction.dest)} = {instruction.value & WORD_MASK}")
        elif isinstance(instruction, BinOp):
            a, b = self.read(instruction.a), self.read(instruction.b)
            expr = _BINARY[instruction.op].format(a=a, b=b)
            self.emit(1, f"{self.define(instruction.dest)} = {expr}")
        elif isinstance(instruction, Cmp):
            a, b = self.read(instruction.a), self.read(instruction.b)
            expr = _COMPARE[instruction.op].format(a=a, b=b)
            self.emit(1, f"{self.define(instruction.dest)} = 1 if {expr} else 0")
        elif isinstance(instruction, Select):
            # Only the picked operand is read.  The dest is bound after both
            # branches, since an operand may be the dest register itself.
            cond = self.read(instruction.cond)
            dest = self.fresh()
            self.emit(1, f"if {cond}:")
            self.emit(2, f"{dest} = {self.read(instruction.a, 2, keep=False)}")
            self.emit(1, "else:")
            self.emit(2, f"{dest} = {self.read(instruction.b, 2, keep=False)}")
            self.locals[instruction.dest] = self.defined[instruction.dest] = dest
        elif isinstance(instruction, Load):
            addr = self.read(instruction.addr)
            self.record(addr, instruction.size, "load")
            parts = [f"b.get({addr}, 0)"]
            parts += [f"b.get({addr} + {i}, 0) << {8 * i}" for i in range(1, instruction.size)]
            self.emit(1, f"{self.define(instruction.dest)} = {' | '.join(parts)}")
        elif isinstance(instruction, Store):
            addr, value = self.read(instruction.addr), self.read(instruction.value)
            self.record(addr, instruction.size, "store")
            self.emit(1, f"b[{addr}] = {value} & 255")
            for i in range(1, instruction.size):
                self.emit(1, f"b[{addr} + {i}] = {value} >> {8 * i} & 255")
        elif isinstance(instruction, Call):
            self.call(instruction, index)
        elif isinstance(instruction, Br):
            cond = self.read(instruction.cond)
            self.write_back()
            then, other = instruction.then_label, instruction.else_label
            self.emit(1, f"return {then!r} if {cond} else {other!r}")
            self.exits = True
        elif isinstance(instruction, Jmp):
            self.write_back()
            self.emit(1, f"return {instruction.label!r}")
            self.exits = True
        elif isinstance(instruction, Ret):
            value = "None" if instruction.value is None else self.read(instruction.value)
            self.emit(1, f"return _Return({value})")
            self.exits = True
        else:
            self.fail(f"cannot execute {type(instruction).__name__}")

    def record(self, addr: str, size: int, kind: str) -> None:
        self.emit(1, "if acc is not None:")
        self.emit(2, f"acc({addr})")
        self.emit(2, f"site({(size, kind, self.function)!r})")

    def call(self, instruction: Call, index: int) -> None:
        args = [self.read(arg) for arg in instruction.args]
        packed = "(" + "".join(f"{arg}, " for arg in args) + ")"
        name = instruction.callee
        decl = self.module.externs.get(name)
        if decl is None:
            # Internal call: the segment ends here and resumes after it.
            self.write_back()
            resume = (self.label, index + 1)
            self.emit(1, f"return _Call({name!r}, {packed}, {instruction.dest!r}, {resume!r})")
            self.exits = True
            return
        if len(args) != decl.arity:
            self.fail(f"extern {name} expects {decl.arity} args, got {len(args)}")
            return
        packed_local, result = self.fresh(), self.fresh()
        self.emit(1, f"{packed_local} = {packed}")
        self.emit(1, f"{result} = h({name!r}, {packed_local}, m)")
        self.emit(1, f"t.record_call({name!r}, {packed_local}, {result})")
        if instruction.dest is not None:
            dest = self.define(instruction.dest)
            self.emit(1, f"{dest} = {result}.value")
            self.emit(1, f"if {dest} is None:")
            message = f"extern {name} returned no value into %{instruction.dest}"
            self.emit(2, f"raise InterpreterError({message!r})")
            self.emit(1, f"{dest} &= {_MASK}")


def _decode(function: Function, module: Module) -> Dict[SegmentKey, Tuple[Segment, int]]:
    """Translate every block of ``function`` into ``key -> (segment, steps)``."""
    segments = _split(function, module)
    shared: set[str] = set()
    for _, _, instructions in segments:
        shared |= _live_in(instructions)
    table: Dict[SegmentKey, Tuple[Segment, int]] = {}
    for label, start, instructions in segments:
        source = _SegmentWriter(function.name, label, start, module, shared).source(instructions)
        segment = _SEGMENTS.get(source)
        if segment is None:
            namespace: Dict[str, Segment] = {}
            # The file name shows up in tracebacks and profiles.
            code = compile(source, f"<nfil {function.name}:{label}+{start}>", "exec")
            exec(code, _SEGMENT_GLOBALS, namespace)  # noqa: S102 - our own source
            segment = _SEGMENTS[source] = namespace["segment"]
        table[label if start == 0 else (label, start)] = (segment, len(instructions))
    return table


class Interpreter:
    """Concrete executor for NFIL modules, doubling as the tracer driver.

    Each function is decoded on its first run.  The decoded code is cached
    per interpreter together with the :class:`~repro.nfil.program.Function`
    object it came from and reused only for that same object (compared by
    identity), so a function replaced in the module is decoded again.  A
    function, and the module's extern declarations, must not change in
    place once it has run.
    """

    def __init__(
        self,
        module: Module,
        *,
        handler: Optional[ExternHandler] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        self.module = module
        self.handler = handler or ExternHandler()
        self.max_steps = max_steps
        self._decoded: Dict[str, Tuple[Function, Dict[SegmentKey, Tuple[Segment, int]]]] = {}

    def _code(self, function: Function) -> Dict[SegmentKey, Tuple[Segment, int]]:
        cached = self._decoded.get(function.name)
        if cached is None or cached[0] is not function:
            cached = self._decoded[function.name] = (function, _decode(function, self.module))
        return cached[1]

    def run(
        self,
        function_name: str,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
        trace: Optional[ExecutionTrace] = None,
    ) -> Tuple[Optional[int], ExecutionTrace]:
        """Execute ``function_name`` on concrete ``args``.

        One step is one executed instruction; a run that would execute more
        than ``max_steps`` raises :class:`StepLimitExceeded` before the
        segment that crosses the limit starts.

        Returns:
            ``(return value or None, execution trace)``.
        """
        function = self.module.functions.get(function_name)
        if function is None:
            raise InterpreterError(f"unknown function {function_name!r}")
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{function_name} expects {len(function.params)} args, got {len(args)}"
            )
        memory = memory if memory is not None else Memory()
        trace = trace if trace is not None else ExecutionTrace()
        registers = {
            param.name: int(value) & WORD_MASK for param, value in zip(function.params, args)
        }
        handle = self.handler.handle
        max_steps = self.max_steps
        steps = 0
        code = self._code(function)
        key: SegmentKey = function.entry
        #: Suspended callers: (function, code, registers, resume key, dest).
        callers: List[tuple] = []
        while True:
            entry = code.get(key)
            if entry is None:
                raise InterpreterError(f"{function.name}: unknown block {key!r}")
            segment, size = entry
            steps += size
            if steps > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            outcome = segment(registers, memory, trace, handle)
            if outcome.__class__ is str:
                key = outcome
            elif outcome.__class__ is _Call:
                callee = self.module.functions.get(outcome.callee)
                if callee is None:
                    raise InterpreterError(f"call to unknown symbol {outcome.callee!r}")
                if len(outcome.args) != len(callee.params):
                    raise InterpreterError(
                        f"{callee.name} expects {len(callee.params)} args, "
                        f"got {len(outcome.args)}"
                    )
                callers.append((function, code, registers, outcome.resume, outcome.dest))
                function, code, key = callee, self._code(callee), callee.entry
                registers = dict(zip(callee.param_names(), outcome.args))
            elif not callers:
                return outcome.value, trace
            else:
                returning = function.name
                function, code, registers, key, dest = callers.pop()
                if dest is not None:
                    if outcome.value is None:
                        raise InterpreterError(f"{returning} returned void into %{dest}")
                    registers[dest] = outcome.value
