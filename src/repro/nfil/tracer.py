"""Execution traces: the reproduction's stand-in for Intel Pin.

The paper replays concrete inputs under binary instrumentation to count the
dynamic instructions and memory accesses of each execution (§3.2).  Here the
concrete :class:`repro.nfil.interpreter.Interpreter` plays that role: it
feeds an :class:`ExecutionTrace` the instruction, load and store counts of
every executed block, each memory access and each extern call.

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

from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

__all__ = ["AccessView", "ExecutionTrace", "ExternCall", "ExternResult", "MemAccess"]

#: The shared, read-only PCV observation of a call that observed none.
_NO_PCVS: Mapping[str, int] = MappingProxyType({})

#: Builds an :class:`ExternCall` from its field tuple without a
#: Python-level ``__new__`` frame: one per extern call.
_new_record = tuple.__new__

#: The constant part of one recorded access: ``(size, kind, function)``.
Site = Tuple[int, str, str]


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


class ExternCall(NamedTuple):
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
    pcvs: Mapping[str, int] = _NO_PCVS


class ExternResult:
    """What an extern handler returns for one call.

    ``accesses`` optionally carries the concrete addresses the structure
    touched while serving the call (one per counted memory access, in
    touch order) so cache-simulating hardware models can observe the
    structure's locality; an empty tuple means counts only.  It may also
    be given as a zero-argument callable that builds them: the first read
    of :attr:`accesses` runs it and keeps the tuple.  The trace reads
    :attr:`accesses` only when it records addresses, right after the
    handler returns, so counts-only replay never builds them (see
    :meth:`repro.structures.base.Structure.charge`).
    """

    __slots__ = ("value", "instructions", "memory_accesses", "pcvs", "_accesses")

    def __init__(
        self,
        value: Optional[int] = None,
        instructions: int = 0,
        memory_accesses: int = 0,
        pcvs: Mapping[str, int] = _NO_PCVS,
        accesses: Union[Tuple[int, ...], Callable[[], Tuple[int, ...]]] = (),
    ) -> None:
        self.value = value
        self.instructions = instructions
        self.memory_accesses = memory_accesses
        self.pcvs = pcvs
        self._accesses = accesses

    @property
    def accesses(self) -> Tuple[int, ...]:
        """The touched addresses, built on the first read and then kept."""
        accesses = self._accesses
        if callable(accesses):
            accesses = self._accesses = tuple(accesses())
        return accesses

    def __repr__(self) -> str:
        return (
            f"ExternResult(value={self.value!r}, instructions={self.instructions!r}, "
            f"memory_accesses={self.memory_accesses!r}, pcvs={self.pcvs!r})"
        )


class AccessView(Sequence):
    """Read-only :class:`MemAccess` view of a trace's recorded stream.

    ``len()`` builds nothing; iteration and indexing build each
    :class:`MemAccess` on demand from the parallel address and site
    lists.  A view compares equal to a list of the same accesses.
    """

    __slots__ = ("_addrs", "_sites")

    def __init__(self, addrs: List[int], sites: List[Site]) -> None:
        self._addrs = addrs
        self._sites = sites

    def __len__(self) -> int:
        return len(self._addrs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            pairs = zip(self._addrs[index], self._sites[index])
            return [MemAccess(addr, *site) for addr, site in pairs]
        return MemAccess(self._addrs[index], *self._sites[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AccessView):
            return self._addrs == other._addrs and self._sites == other._sites
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class ExecutionTrace:
    """Dynamic instruction/memory counts for one concrete execution.

    When address recording is on, the access stream is kept as two
    parallel lists: :attr:`addrs` (plain ints, what the cache simulator
    walks) and :attr:`sites` (one constant ``(size, kind, function)``
    tuple per access).  :attr:`accesses` presents them as
    :class:`MemAccess` objects.

    The extern totals and the per-PCV maxima are kept as each call lands,
    so reading them never walks :attr:`extern_calls` again.
    """

    def __init__(self, *, record_accesses: bool = True) -> None:
        self.instructions: int = 0
        self.mem_reads: int = 0
        self.mem_writes: int = 0
        self.addrs: List[int] = []
        self.sites: List[Site] = []
        self.extern_calls: List[ExternCall] = []
        #: Running sums of the extern calls' instructions and accesses.
        self.extern_instruction_total: int = 0
        self.extern_access_total: int = 0
        #: Largest observation of each PCV so far, in first-seen order.
        self.pcv_max: Dict[str, int] = {}
        #: Whether :attr:`addrs`/:attr:`sites` list each access; counts are
        #: always kept.
        self.record_accesses = record_accesses
        self._view = AccessView(self.addrs, self.sites)

    @property
    def accesses(self) -> AccessView:
        """The recorded accesses, in execution order, as :class:`MemAccess`."""
        return self._view

    # ------------------------------------------------------------------ #
    # Recording.  The interpreter's decoded blocks add their instruction,
    # load and store counts to the fields above in bulk, append to
    # :attr:`addrs` and :attr:`sites` in execution order, and hand each
    # extern call's result to :meth:`record_call`.
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
        if self.record_accesses:
            self.addrs.append(addr)
            self.sites.append((size, kind, function))

    def record_call(self, name: str, args: Tuple[int, ...], result: ExternResult) -> ExternCall:
        """Record one extern call from its handler's ``ExternResult``.

        ``result``'s :attr:`ExternResult.accesses` is read only when
        address recording is on.  The structure's touched addresses then
        join :attr:`addrs` in execution order alongside the stateless
        stream, so a cache simulator replays the packet's full
        interleaved address trace.  Structure accesses are recorded
        at the site ``(8, "load", name)`` — line granularity is what the
        simulator keys on, so load/store and operand width do not affect
        pricing.
        """
        instructions = result.instructions
        memory_accesses = result.memory_accesses
        pcvs = result.pcvs
        calls = self.extern_calls
        call = _new_record(
            ExternCall,
            (len(calls), name, args, result.value, instructions, memory_accesses, pcvs),
        )
        calls.append(call)
        self.extern_instruction_total += instructions
        self.extern_access_total += memory_accesses
        if pcvs:
            seen = self.pcv_max
            for key, observed in pcvs.items():
                old = seen.get(key)
                if old is None or observed > old:
                    seen[key] = observed if observed > 0 else 0
        if self.record_accesses:
            accesses = result.accesses
            if accesses:
                self.addrs.extend(accesses)
                self.sites.extend([(8, "load", name)] * len(accesses))
        return call

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
        """Record one extern call given field by field (see :meth:`record_call`)."""
        return self.record_call(
            name,
            tuple(args),
            ExternResult(result, instructions, memory_accesses, dict(pcvs or {}), accesses),
        )

    # ------------------------------------------------------------------ #
    # Aggregation (consumed by tests and the contract cross-check)
    # ------------------------------------------------------------------ #
    @property
    def memory_accesses(self) -> int:
        """Stateless memory accesses (loads + stores)."""
        return self.mem_reads + self.mem_writes

    def extern_instructions(self) -> int:
        """Instructions spent inside the stateful library."""
        return self.extern_instruction_total

    def extern_memory_accesses(self) -> int:
        """Memory accesses spent inside the stateful library."""
        return self.extern_access_total

    def total_instructions(self) -> int:
        """Stateless + extern dynamic instruction count."""
        return self.instructions + self.extern_instruction_total

    def total_memory_accesses(self) -> int:
        """Stateless + extern memory access count."""
        return self.mem_reads + self.mem_writes + self.extern_access_total

    def pcv_bindings(self, *, merge: str = "max") -> Dict[str, int]:
        """Merge the per-call PCV observations into one binding per PCV.

        Every PCV any call observed gets a key (also when only observed
        as 0), in first-seen order.

        Args:
            merge: ``"max"`` (default) keeps the largest observation, which
                is the sound choice when a contract charges a shared PCV at
                every call site; ``"sum"`` adds observations up.
        """
        if merge == "max":
            return dict(self.pcv_max)
        if merge != "sum":
            raise ValueError(f"unknown merge mode {merge!r}")
        bindings: Dict[str, int] = {}
        for call in self.extern_calls:
            for name, value in call.pcvs.items():
                bindings[name] = bindings.get(name, 0) + int(value)
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
