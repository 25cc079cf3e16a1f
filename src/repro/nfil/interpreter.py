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

The arithmetic here deliberately mirrors the semantics of
:mod:`repro.sym.expr` (which the symbolic engine uses) without importing
it — NFIL is the bottom layer and must stay import-free of ``repro.sym`` —
and the test suite cross-checks the two by replaying symbolic models
concretely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    Reg,
    Ret,
    Select,
    Store,
    WORD_BITS,
    WORD_MASK,
)
from repro.nfil.program import Function, Module
from repro.nfil.tracer import ExecutionTrace

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


def _truncate(value: int) -> int:
    return value & WORD_MASK


def _to_signed(value: int) -> int:
    value &= WORD_MASK
    if value >= 1 << (WORD_BITS - 1):
        value -= 1 << WORD_BITS
    return value


_BINOP_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: _truncate(a + b),
    "sub": lambda a, b: _truncate(a - b),
    "mul": lambda a, b: _truncate(a * b),
    "udiv": lambda a, b: _truncate(a // b) if b != 0 else WORD_MASK,
    "urem": lambda a, b: _truncate(a % b) if b != 0 else a,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: _truncate(a << b) if b < WORD_BITS else 0,
    "lshr": lambda a, b: (a >> b) if b < WORD_BITS else 0,
}

_CMP_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "ult": lambda a, b: int(a < b),
    "ule": lambda a, b: int(a <= b),
    "ugt": lambda a, b: int(a > b),
    "uge": lambda a, b: int(a >= b),
    "slt": lambda a, b: int(_to_signed(a) < _to_signed(b)),
    "sle": lambda a, b: int(_to_signed(a) <= _to_signed(b)),
    "sgt": lambda a, b: int(_to_signed(a) > _to_signed(b)),
    "sge": lambda a, b: int(_to_signed(a) >= _to_signed(b)),
}


class Memory:
    """Sparse byte-addressable memory; unwritten bytes read as zero."""

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
        for offset, byte in enumerate(data):
            self._bytes[addr + offset] = byte

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Bulk-read raw bytes."""
        return bytes(self._bytes.get(addr + offset, 0) for offset in range(size))

    def clear(self) -> None:
        """Reset all memory to zero."""
        self._bytes.clear()


@dataclass(frozen=True)
class ExternResult:
    """What an extern handler returns for one call.

    ``accesses`` optionally carries the concrete addresses the structure
    touched while serving the call (one per counted memory access, in
    touch order) so cache-simulating hardware models can observe the
    structure's locality; an empty tuple means counts only.
    """

    value: Optional[int] = None
    instructions: int = 0
    memory_accesses: int = 0
    pcvs: Mapping[str, int] = field(default_factory=dict)
    accesses: Tuple[int, ...] = ()


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


@dataclass
class _Frame:
    function: Function
    block: str
    index: int
    registers: Dict[str, int]
    ret_dest: Optional[str]


class Interpreter:
    """Concrete executor for NFIL modules, doubling as the tracer driver."""

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

    def run(
        self,
        function_name: str,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
        trace: Optional[ExecutionTrace] = None,
    ) -> Tuple[Optional[int], ExecutionTrace]:
        """Execute ``function_name`` on concrete ``args``.

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
            param.name: _truncate(int(value))
            for param, value in zip(function.params, args)
        }
        frames: List[_Frame] = [_Frame(function, function.entry, 0, registers, None)]
        steps = 0
        while frames:
            if steps >= self.max_steps:
                raise StepLimitExceeded(f"exceeded {self.max_steps} steps")
            steps += 1
            frame = frames[-1]
            block = frame.function.blocks.get(frame.block)
            if block is None:
                raise InterpreterError(f"{frame.function.name}: unknown block {frame.block!r}")
            if frame.index >= len(block.instructions):
                raise InterpreterError(
                    f"{frame.function.name}:{frame.block} fell through without terminator"
                )
            instruction = block.instructions[frame.index]
            frame.index += 1
            trace.record_instruction()
            returned = self._step(instruction, frame, frames, memory, trace)
            if returned is not _NOT_RETURNED:
                return returned, trace
        raise InterpreterError("empty frame stack")  # pragma: no cover - defensive

    # ------------------------------------------------------------------ #
    # Instruction dispatch
    # ------------------------------------------------------------------ #
    def _value(self, operand: Operand, frame: _Frame) -> int:
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Reg):
            try:
                return frame.registers[operand.name]
            except KeyError:
                raise InterpreterError(
                    f"{frame.function.name}: read of undefined register %{operand.name}"
                ) from None
        raise InterpreterError(f"bad operand {operand!r}")  # pragma: no cover

    def _step(
        self,
        instruction: Instruction,
        frame: _Frame,
        frames: List[_Frame],
        memory: Memory,
        trace: ExecutionTrace,
    ) -> Optional[int]:
        regs = frame.registers
        if isinstance(instruction, ConstInstr):
            regs[instruction.dest] = _truncate(instruction.value)
        elif isinstance(instruction, BinOp):
            a = self._value(instruction.a, frame)
            b = self._value(instruction.b, frame)
            regs[instruction.dest] = _BINOP_FUNCS[instruction.op](a, b)
        elif isinstance(instruction, Cmp):
            a = self._value(instruction.a, frame)
            b = self._value(instruction.b, frame)
            regs[instruction.dest] = _CMP_FUNCS[instruction.op](a, b)
        elif isinstance(instruction, Select):
            cond = self._value(instruction.cond, frame)
            picked = instruction.a if cond != 0 else instruction.b
            regs[instruction.dest] = self._value(picked, frame)
        elif isinstance(instruction, Load):
            addr = self._value(instruction.addr, frame)
            trace.record_access(addr, instruction.size, "load", frame.function.name)
            regs[instruction.dest] = memory.load(addr, instruction.size)
        elif isinstance(instruction, Store):
            addr = self._value(instruction.addr, frame)
            value = self._value(instruction.value, frame)
            trace.record_access(addr, instruction.size, "store", frame.function.name)
            memory.store(addr, value, instruction.size)
        elif isinstance(instruction, Br):
            cond = self._value(instruction.cond, frame)
            frame.block = instruction.then_label if cond != 0 else instruction.else_label
            frame.index = 0
        elif isinstance(instruction, Jmp):
            frame.block = instruction.label
            frame.index = 0
        elif isinstance(instruction, Call):
            self._call(instruction, frame, frames, memory, trace)
        elif isinstance(instruction, Ret):
            value = (
                self._value(instruction.value, frame)
                if instruction.value is not None
                else None
            )
            frames.pop()
            if not frames:
                return value
            caller = frames[-1]
            if caller.ret_dest is not None:
                if value is None:
                    raise InterpreterError(
                        f"{frame.function.name} returned void into %{caller.ret_dest}"
                    )
                caller.registers[caller.ret_dest] = value
                caller.ret_dest = None
        else:  # pragma: no cover - defensive
            raise InterpreterError(f"cannot execute {type(instruction).__name__}")
        return _NOT_RETURNED

    def _call(
        self,
        instruction: Call,
        frame: _Frame,
        frames: List[_Frame],
        memory: Memory,
        trace: ExecutionTrace,
    ) -> None:
        args = tuple(self._value(arg, frame) for arg in instruction.args)
        if self.module.is_extern(instruction.callee):
            decl = self.module.externs[instruction.callee]
            if len(args) != decl.arity:
                raise InterpreterError(
                    f"extern {decl.name} expects {decl.arity} args, got {len(args)}"
                )
            result = self.handler.handle(decl.name, args, memory)
            trace.record_extern(
                decl.name,
                args,
                result.value,
                instructions=result.instructions,
                memory_accesses=result.memory_accesses,
                pcvs=result.pcvs,
                accesses=result.accesses,
            )
            if instruction.dest is not None:
                if result.value is None:
                    raise InterpreterError(
                        f"extern {decl.name} returned no value into %{instruction.dest}"
                    )
                frame.registers[instruction.dest] = _truncate(result.value)
            return
        callee = self.module.functions.get(instruction.callee)
        if callee is None:
            raise InterpreterError(f"call to unknown symbol {instruction.callee!r}")
        if len(args) != len(callee.params):
            raise InterpreterError(
                f"{callee.name} expects {len(callee.params)} args, got {len(args)}"
            )
        frame.ret_dest = instruction.dest
        registers = {param.name: value for param, value in zip(callee.params, args)}
        frames.append(_Frame(callee, callee.entry, 0, registers, None))


#: Sentinel distinguishing "no top-level return yet" from "returned None".
_NOT_RETURNED = object()
