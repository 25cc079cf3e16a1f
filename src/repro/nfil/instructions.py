"""NFIL instruction set.

All registers are 64-bit unsigned integers (:data:`WORD_BITS`); loads
zero-extend, stores truncate to the access size.  Comparison results are 0
or 1 in a 64-bit register; branches test for non-zero.  Keeping a single
register width keeps both the interpreter and the symbolic engine simple
without affecting the performance observables BOLT cares about (dynamic
instruction count, memory access count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1

#: Binary operations supported by :class:`BinOp`.
BINARY_OPS = ("add", "sub", "mul", "udiv", "urem", "and", "or", "xor", "shl", "lshr")

#: Comparison predicates supported by :class:`Cmp`.
CMP_OPS = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")

#: Legal memory access sizes, in bytes.
ACCESS_SIZES = (1, 2, 4, 8)


@dataclass(frozen=True, slots=True)
class Reg:
    """A reference to a virtual register."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate operand (64-bit unsigned)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & WORD_MASK)

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[Reg, Imm]


def as_operand(value: Union[Operand, int]) -> Operand:
    """Coerce an int into an :class:`Imm`; pass registers through."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, int):
        return Imm(value)
    raise TypeError(f"cannot use {type(value).__name__} as an operand")


class Instruction:
    """Base class of all NFIL instructions."""

    __slots__ = ()

    def operands(self) -> Tuple[Operand, ...]:
        """Return the operands read by this instruction."""
        return ()

    def defines(self) -> Optional[str]:
        """Return the register name written by this instruction, if any."""
        return None

    def is_terminator(self) -> bool:
        """Return True for instructions that end a basic block."""
        return False


@dataclass(frozen=True, slots=True)
class ConstInstr(Instruction):
    """``dest = constant``."""

    dest: str
    value: int


    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = const {self.value & WORD_MASK}"


@dataclass(frozen=True, slots=True)
class BinOp(Instruction):
    """``dest = a <op> b``."""

    op: str
    dest: str
    a: Operand
    b: Operand

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.a, self.b)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = {self.op} {self.a}, {self.b}"


@dataclass(frozen=True, slots=True)
class Cmp(Instruction):
    """``dest = (a <pred> b) ? 1 : 0``."""

    op: str
    dest: str
    a: Operand
    b: Operand


    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison {self.op!r}")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.a, self.b)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = cmp.{self.op} {self.a}, {self.b}"


@dataclass(frozen=True, slots=True)
class Select(Instruction):
    """``dest = cond ? a : b``."""

    dest: str
    cond: Operand
    a: Operand
    b: Operand


    def operands(self) -> Tuple[Operand, ...]:
        return (self.cond, self.a, self.b)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = select {self.cond}, {self.a}, {self.b}"


@dataclass(frozen=True, slots=True)
class Load(Instruction):
    """``dest = memory[addr .. addr+size)`` (little-endian, zero-extended)."""

    dest: str
    addr: Operand
    size: int = 8


    def __post_init__(self) -> None:
        if self.size not in ACCESS_SIZES:
            raise ValueError(f"illegal load size {self.size}")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.addr,)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = load{self.size * 8} [{self.addr}]"


@dataclass(frozen=True, slots=True)
class Store(Instruction):
    """``memory[addr .. addr+size) = value`` (little-endian, truncated)."""

    addr: Operand
    value: Operand
    size: int = 8


    def __post_init__(self) -> None:
        if self.size not in ACCESS_SIZES:
            raise ValueError(f"illegal store size {self.size}")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.addr, self.value)

    def __str__(self) -> str:
        return f"store{self.size * 8} [{self.addr}], {self.value}"


@dataclass(frozen=True, slots=True)
class Br(Instruction):
    """Conditional branch: jump to ``then_label`` when ``cond != 0``."""

    cond: Operand
    then_label: str
    else_label: str


    def operands(self) -> Tuple[Operand, ...]:
        return (self.cond,)

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"br {self.cond}, {self.then_label}, {self.else_label}"


@dataclass(frozen=True, slots=True)
class Jmp(Instruction):
    """Unconditional jump."""

    label: str


    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"jmp {self.label}"


@dataclass(frozen=True, slots=True)
class Call(Instruction):
    """Call an internal function or an extern (stateful library method)."""

    dest: Optional[str]
    callee: str
    args: Tuple[Operand, ...] = field(default_factory=tuple)


    def operands(self) -> Tuple[Operand, ...]:
        return self.args

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        prefix = f"%{self.dest} = " if self.dest else ""
        return f"{prefix}call {self.callee}({args})"


@dataclass(frozen=True, slots=True)
class Ret(Instruction):
    """Return from the current function."""

    value: Optional[Operand] = None


    def operands(self) -> Tuple[Operand, ...]:
        return (self.value,) if self.value is not None else ()

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"
