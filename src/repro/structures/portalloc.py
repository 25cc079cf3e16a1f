"""Port allocator: the lease pool behind the NAT's external ports.

VigNAT-style NATs pair their flow tables with an allocator that hands out
external ports (the paper's §5 NAT keeps a pool alongside the double map).
This reproduction models the allocator as the simplest structure that is
honest about cost: a pre-computed free list served LIFO, so both
``alloc`` and ``release`` are constant-time — the allocator contributes
**no** PCVs, and the NAT contract's state-dependent terms come entirely
from the two flow tables.

The pool is explicit configuration: the host hands the allocator the exact
port numbers it may lease (``PortAllocator("ports", pool=range(1024,
1088))``).  That makes adversarial workloads able to pick pools whose
ports collide in the reverse flow table's hash — the lever that drives
``rev.t`` to its declared bound.

Hand-derived per-operation contract (no PCVs; constant formulas):

===========  ==============  ===============
operation    instructions    memory accesses
===========  ==============  ===============
``alloc``    ``6``           ``2``
``release``  ``5``           ``2``
===========  ==============  ===============

**PCVs: none.**  A LIFO free list pops and pushes at the tail whatever
the pool size or lease pattern, so no state-dependent variable exists to
parameterise — the structure's contribution to any NF contract is the
constant rows above.

**Worst case.**  Identical to the best case, by construction: ``alloc``
is one pop plus one membership insert, ``release`` one membership discard
plus one push, regardless of history.  (The allocator still *shapes*
worst cases elsewhere: the NAT's adversarial stream chooses a pool whose
ports collide in the reverse flow table, driving ``rev.t`` — the
state-dependent cost lives in the map, not here.)  The only fast paths
are the exhausted ``alloc`` and the unknown-port ``release``, each one
instruction cheaper than the formula.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Sequence, Set, Tuple

from repro.core.contract import Metric
from repro.core.pcv import PCV
from repro.core.perfexpr import PerfExpr
from repro.nfil.interpreter import ExternResult, Memory
from repro.structures.base import NOT_FOUND, OpSpec, Structure, bounded_value_constraint
from repro.sym.expr import BV

__all__ = ["PortAllocator"]

_ALLOC = {
    Metric.INSTRUCTIONS: PerfExpr.constant(6),
    Metric.MEMORY_ACCESSES: PerfExpr.constant(2),
}
_RELEASE = {
    Metric.INSTRUCTIONS: PerfExpr.constant(5),
    Metric.MEMORY_ACCESSES: PerfExpr.constant(2),
}


class PortAllocator(Structure):
    """Instrumented LIFO free-list allocator over an explicit port pool.

    Args:
        name: instance name; externs are ``{name}_alloc`` /
            ``{name}_release``.
        pool: the exact port numbers the allocator may lease, in the order
            they should be handed out first-to-last.  Must be non-empty,
            duplicate-free and free of the ``NOT_FOUND`` sentinel.
    """

    kind = "port_allocator"

    def __init__(self, name: str, *, pool: Iterable[int]) -> None:
        ports = list(pool)
        if not ports:
            raise ValueError("port pool must be non-empty")
        if len(set(ports)) != len(ports):
            raise ValueError("port pool contains duplicates")
        if NOT_FOUND in ports:
            raise ValueError("port collides with the NOT_FOUND sentinel")
        if any(not 0 <= port < (1 << 16) for port in ports):
            raise ValueError("ports must be 16-bit values")
        self.pool: Tuple[int, ...] = tuple(ports)
        # Free list kept reversed so .pop() serves pool order first-to-last.
        self._free: List[int] = list(reversed(ports))
        self._leased: Set[int] = set()
        super().__init__(name)

    # ------------------------------------------------------------------ #
    # Contract surface
    # ------------------------------------------------------------------ #
    def ops(self) -> Sequence[OpSpec]:
        return (
            OpSpec("alloc", 0, True, _ALLOC, (), "lease a free port; NOT_FOUND when exhausted"),
            OpSpec("release", 1, False, _RELEASE, (), "return a leased port to the pool"),
        )

    def pcvs(self) -> Sequence[PCV]:
        return ()

    def result_constraints(self, method: str, result: BV, args: Tuple[BV, ...]) -> Tuple[BV, ...]:
        if method == "alloc":
            # Bound by the port space, not max(pool)+1: the contract must
            # stay valid for any pool the deployment (or a workload)
            # configures, and every pool is validated to be 16-bit.
            return bounded_value_constraint(result, 1 << 16)
        return ()

    # ------------------------------------------------------------------ #
    # Core logic (usable directly by tests and workload builders)
    # ------------------------------------------------------------------ #
    def available(self) -> int:
        """Number of ports still free."""
        return len(self._free)

    def leased(self) -> int:
        """Number of ports currently leased."""
        return len(self._leased)

    def take(self) -> int:
        """Lease one port; ``NOT_FOUND`` when the pool is exhausted."""
        if not self._free:
            return NOT_FOUND
        port = self._free.pop()
        self._leased.add(port)
        return port

    def give_back(self, port: int) -> bool:
        """Return a leased port; False when it was not leased."""
        if port not in self._leased:
            return False
        self._leased.discard(port)
        self._free.append(port)
        return True

    # ------------------------------------------------------------------ #
    # Instrumented extern handlers
    # ------------------------------------------------------------------ #
    def _op_alloc(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        port = self.take()
        if port == NOT_FOUND:
            # Exhausted fast path: no free-list pop (only the header read).
            return self.charge(
                "alloc", NOT_FOUND, discount_instructions=1, touched=self.header_touched
            )
        return self.charge("alloc", port, touched=partial(self._alloc_touched, port))

    def _alloc_touched(self, port: int) -> List[int]:
        """The free-list tail word, then the leased-set slot of the port."""
        return [self.slot_addr(1 + len(self._free)), self.slot_addr(self._lease_slot(port))]

    def _lease_touched(self, port: int) -> List[int]:
        """The leased-set slot of the port."""
        return [self.slot_addr(self._lease_slot(port))]

    def _release_touched(self, port: int) -> List[int]:
        """The leased-set slot of the port, then the free-list tail word."""
        return self._lease_touched(port) + [self.slot_addr(len(self._free))]

    def _lease_slot(self, port: int) -> int:
        # Leased-set membership word: one slot per pool port, after the
        # header word and the free-list array.
        return 2 + len(self.pool) + port % len(self.pool)

    def _op_release(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (port,) = args
        if not self.give_back(port):
            # Unknown-port fast path: nothing returned to the list.
            return self.charge(
                "release",
                discount_instructions=1,
                touched=partial(self._lease_touched, port),
            )
        return self.charge("release", touched=partial(self._release_touched, port))
