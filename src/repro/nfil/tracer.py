"""Execution traces: the reproduction's stand-in for Intel Pin.

The paper replays concrete inputs under binary instrumentation to count the
dynamic instructions and memory accesses of each execution (§3.2).  Here the
concrete :class:`repro.nfil.interpreter.Interpreter` plays that role: it
feeds an :class:`ExecutionTrace` one event per executed instruction, memory
access and extern call.

Costs split into two layers, mirroring the Vigor-style separation the paper
relies on:

* *stateless* costs — NFIL instructions executed by the interpreter itself
  (one dynamic instruction per executed NFIL instruction, one memory access
  per load or store), and
* *extern* costs — the instruction/memory-access cost reported by the
  instrumented stateful data structure backing each extern call, together
  with the PCV values (collisions, traversals, expired entries, ...) the
  structure observed while serving the call.

``total_instructions()`` / ``total_memory_accesses()`` add both layers and
are what performance contracts must upper-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["ExecutionTrace", "ExternCall", "MemAccess"]


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One concrete memory access performed by the stateless code."""

    addr: int
    size: int
    kind: str  # "load" | "store"
    function: str = ""

    @property
    def is_store(self) -> bool:
        return self.kind == "store"


@dataclass(frozen=True, slots=True)
class ExternCall:
    """One call into the stateful library, with its instrumented cost.

    Attributes:
        index: position of the call in the execution (0-based, counting
            every extern call, including ones that return no value).  The
            symbolic engine numbers its model outputs the same way, which is
            what lets a concrete trace be matched back to a symbolic path.
        name: extern symbol called.
        args: concrete argument values.
        result: concrete return value, or None for void externs.
        instructions: dynamic instructions the structure spent on the call.
        memory_accesses: memory accesses the structure spent on the call.
        pcvs: PCV values observed while serving the call (e.g. ``{"t": 3}``).
    """

    index: int
    name: str
    args: Tuple[int, ...]
    result: Optional[int]
    instructions: int = 0
    memory_accesses: int = 0
    pcvs: Mapping[str, int] = field(default_factory=dict)


class ExecutionTrace:
    """Dynamic instruction/memory counts for one concrete execution."""

    def __init__(self, *, record_accesses: bool = True) -> None:
        self.instructions: int = 0
        self.mem_reads: int = 0
        self.mem_writes: int = 0
        self.accesses: List[MemAccess] = []
        self.extern_calls: List[ExternCall] = []
        self._record_accesses = record_accesses

    # ------------------------------------------------------------------ #
    # Recording (called by the interpreter)
    # ------------------------------------------------------------------ #
    def record_instruction(self) -> None:
        """Count one executed stateless NFIL instruction."""
        self.instructions += 1

    def record_access(self, addr: int, size: int, kind: str, function: str = "") -> None:
        """Count one stateless memory access."""
        if kind == "store":
            self.mem_writes += 1
        else:
            self.mem_reads += 1
        if self._record_accesses:
            self.accesses.append(MemAccess(addr, size, kind, function))

    def record_extern(
        self,
        name: str,
        args: Tuple[int, ...],
        result: Optional[int],
        *,
        instructions: int = 0,
        memory_accesses: int = 0,
        pcvs: Mapping[str, int] | None = None,
        accesses: Tuple[int, ...] = (),
    ) -> ExternCall:
        """Record one extern call and its instrumented cost.

        When address recording is on, the structure's touched addresses
        (``accesses``) join :attr:`accesses` in execution order alongside
        the stateless stream, so a cache simulator replays the packet's
        full interleaved address trace.  Structure accesses are modelled
        as 8-byte loads — line granularity is what the simulator keys on,
        so load/store and operand width do not affect pricing.
        """
        call = ExternCall(
            index=len(self.extern_calls),
            name=name,
            args=tuple(args),
            result=result,
            instructions=instructions,
            memory_accesses=memory_accesses,
            pcvs=dict(pcvs or {}),
        )
        self.extern_calls.append(call)
        if self._record_accesses:
            for addr in accesses:
                self.accesses.append(MemAccess(addr, 8, "load", name))
        return call

    # ------------------------------------------------------------------ #
    # Aggregation (consumed by tests and the contract cross-check)
    # ------------------------------------------------------------------ #
    @property
    def memory_accesses(self) -> int:
        """Stateless memory accesses (loads + stores)."""
        return self.mem_reads + self.mem_writes

    def extern_instructions(self) -> int:
        """Instructions spent inside the stateful library."""
        return sum(call.instructions for call in self.extern_calls)

    def extern_memory_accesses(self) -> int:
        """Memory accesses spent inside the stateful library."""
        return sum(call.memory_accesses for call in self.extern_calls)

    def total_instructions(self) -> int:
        """Stateless + extern dynamic instruction count."""
        return self.instructions + self.extern_instructions()

    def total_memory_accesses(self) -> int:
        """Stateless + extern memory access count."""
        return self.memory_accesses + self.extern_memory_accesses()

    def pcv_bindings(self, *, merge: str = "max") -> Dict[str, int]:
        """Merge the per-call PCV observations into one binding per PCV.

        Args:
            merge: ``"max"`` (default) keeps the largest observation, which
                is the sound choice when a contract charges a shared PCV at
                every call site; ``"sum"`` adds observations up.
        """
        if merge not in ("max", "sum"):
            raise ValueError(f"unknown merge mode {merge!r}")
        bindings: Dict[str, int] = {}
        for call in self.extern_calls:
            for name, value in call.pcvs.items():
                if merge == "sum":
                    bindings[name] = bindings.get(name, 0) + int(value)
                else:
                    bindings[name] = max(bindings.get(name, 0), int(value))
        return bindings

    def summary(self) -> str:
        """Render a one-line human-readable summary."""
        return (
            f"instructions={self.total_instructions()} "
            f"(stateless {self.instructions} + extern {self.extern_instructions()}), "
            f"memory={self.total_memory_accesses()} "
            f"(stateless {self.memory_accesses} + extern {self.extern_memory_accesses()}), "
            f"extern_calls={len(self.extern_calls)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExecutionTrace {self.summary()}>"
