"""Maglev-style consistent-hash table: backend selection for load balancers.

The structure behind Google's Maglev load balancer (and this repository's
``repro.nf.lb``): a fixed-size lookup array mapping ``hash(flow) %
table_size`` to a backend id.  The array is (re)populated by **permutation
filling** — each backend ``b`` derives a permutation of the table slots
from two hashes (``offset``, ``skip``), and the fill visits backends round
robin, each claiming the first still-free slot of its own permutation —
which spreads slots almost evenly across backends and moves few slots when
a backend is added or removed (minimal disruption).

The table is the library's first structure whose *dominant* cost is a
control-plane operation: per-packet ``lookup``/``active`` are constant
time (one hash and one array read), while ``add``/``remove`` trigger a
repopulation whose cost is the PCV ``f`` — the number of fill iterations
(permutation probes) the refill performs.

PCVs (local symbols; instances emit ``{instance}.f`` etc.):

* ``f`` — fill iterations of one repopulation, bounded by
  :func:`max_fill_iterations` (see below).  ``lookup`` and ``active``
  contribute no PCVs: they are constant time by construction.

Hand-derived per-operation contract:

==========  ==================  ===================
operation   instructions        memory accesses
==========  ==================  ===================
``lookup``  ``7``               ``2``
``active``  ``5``               ``1``
``add``     ``14 + 7·f``        ``5 + 2·f``
``remove``  ``12 + 7·f``        ``4 + 2·f``
==========  ==================  ===================

**Worst case of ``f`` (exact).**  With ``N`` active backends and ``M``
table slots, the round-robin fill claims exactly one slot per turn, so
backend ``i`` (in rotation order, 1-based) makes its ``k``-th claim as
overall claim number ``(k−1)·N + i``.  Every *collision* probe of backend
``i`` hits a distinct slot (a permutation visits each slot once) that some
*other* backend claimed earlier, so backend ``i`` incurs at most
``(kᵢ−1)·(N−1) + (i−1)`` collisions over its ``kᵢ`` claims.  Summing
claims plus collisions over all backends (``Σkᵢ = M``) gives

    ``f  ≤  N·(M − N) + N·(N+1)/2``

and the bound is *tight*: when all ``N`` backends share one permutation
(equal ``offset`` and ``skip`` — arrangeable by searching backend ids for
hash collisions, exactly how the adversarial workload pins the bound),
every backend probes the full already-claimed prefix on each turn and the
fill performs exactly that many iterations.  A repopulation observed above
the bound is therefore a bug, and :meth:`MaglevTable._repopulate` raises
rather than under-charge.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.contract import Metric
from repro.core.pcv import PCV
from repro.core.perfexpr import PerfExpr
from repro.nfil.interpreter import ExternResult, Memory
from repro.structures.base import (
    NOT_FOUND,
    OpSpec,
    Structure,
    bounded_value_constraint,
    linear_cost,
)
from repro.sym import expr as E
from repro.sym.expr import BV, Const

__all__ = ["MaglevTable", "max_fill_iterations"]

#: Backend ids are 16-bit values (like ports: small, dense, sentinel-free).
BACKEND_BITS = 16
BACKEND_SPACE = 1 << BACKEND_BITS

_LOOKUP = {
    Metric.INSTRUCTIONS: PerfExpr.constant(7),
    Metric.MEMORY_ACCESSES: PerfExpr.constant(2),
}
_ACTIVE = {
    Metric.INSTRUCTIONS: PerfExpr.constant(5),
    Metric.MEMORY_ACCESSES: PerfExpr.constant(1),
}
_ADD = linear_cost("f", instr=(14, 7), mem=(5, 2))
_REMOVE = linear_cost("f", instr=(12, 7), mem=(4, 2))


def max_fill_iterations(backends: int, table_size: int) -> int:
    """Exact worst-case fill iterations of one repopulation.

    ``N·(M − N) + N·(N+1)/2`` for ``N = backends`` and ``M = table_size``
    (see the module docstring for the derivation); the empty repopulation
    (``N = 0``) performs one clearing pass of ``M`` iterations, which the
    ``N ≥ 1`` bound also covers.
    """
    if not 0 <= backends <= table_size:
        raise ValueError(f"backends ({backends}) must lie in [0, table_size={table_size}]")
    if backends == 0:
        return table_size
    return backends * (table_size - backends) + backends * (backends + 1) // 2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    factor = 2
    while factor * factor <= n:
        if n % factor == 0:
            return False
        factor += 1
    return True


class MaglevTable(Structure):
    """Instrumented Maglev-style consistent-hash table (flow -> backend id).

    Args:
        name: instance name; externs are ``{name}_lookup`` /
            ``{name}_active`` / ``{name}_add`` / ``{name}_remove``.
        table_size: number of lookup slots; must be **prime** (so every
            ``skip`` generates a full permutation of the slots) and at
            least ``max_backends``.
        max_backends: most backends that may be active at once; adds
            beyond it are dropped (fixed allocation, like the Vigor maps).
            Also fixes the declared bound of the ``f`` PCV.
        value_bound: when given, the symbolic model constrains ``lookup``
            outputs to ``NOT_FOUND`` or a value below this bound (e.g. the
            backend id space).
    """

    kind = "maglev_table"

    def __init__(
        self,
        name: str,
        *,
        table_size: int = 13,
        max_backends: int = 4,
        value_bound: Optional[int] = None,
    ) -> None:
        if max_backends < 1:
            raise ValueError("max_backends must be positive")
        if table_size < max_backends:
            raise ValueError(
                f"table_size ({table_size}) must be at least max_backends ({max_backends})"
            )
        if not _is_prime(table_size):
            raise ValueError(
                f"table_size ({table_size}) must be prime so every skip value "
                "generates a full permutation of the slots"
            )
        self.table_size = table_size
        self.max_backends = max_backends
        self.value_bound = value_bound
        self._backends: Set[int] = set()
        self._params: Dict[int, Tuple[int, int]] = {}
        self._table: List[int] = [NOT_FOUND] * table_size
        super().__init__(name)

    # ------------------------------------------------------------------ #
    # Contract surface
    # ------------------------------------------------------------------ #
    def ops(self) -> Sequence[OpSpec]:
        return (
            OpSpec(
                "lookup",
                1,
                True,
                _LOOKUP,
                (),
                "consistent-hash a flow to a backend; NOT_FOUND when none are active",
            ),
            OpSpec("active", 1, True, _ACTIVE, (), "1 when the backend serves traffic, else 0"),
            OpSpec("add", 1, False, _ADD, ("f",), "activate a backend; repopulate the table"),
            OpSpec("remove", 1, False, _REMOVE, ("f",), "drain a backend; repopulate the table"),
        )

    def pcvs(self) -> Sequence[PCV]:
        return (
            PCV(
                "f",
                "fill iterations of one table repopulation",
                structure=self.name,
                max_value=max_fill_iterations(self.max_backends, self.table_size),
                unit="iterations",
            ),
        )

    def result_constraints(self, method: str, result: BV, args: Tuple[BV, ...]) -> Tuple[BV, ...]:
        if method == "lookup":
            return bounded_value_constraint(result, self.value_bound)
        if method == "active":
            return (E.ult(result, Const(2, 64)),)
        return ()

    # ------------------------------------------------------------------ #
    # Core logic (usable directly by tests and workload builders)
    # ------------------------------------------------------------------ #
    def permutation_params(self, backend: int) -> Tuple[int, int]:
        """Return the ``(offset, skip)`` pair of one backend's permutation.

        Exposed so adversarial workloads can search for backend ids whose
        parameters collide (identical permutations attain the ``f`` bound).
        """
        h1 = (backend * 2654435761) ^ (backend >> 13)
        h2 = (backend * 0x9E3779B1) ^ (backend >> 7)
        # table_size is prime, hence >= 2; any skip in [1, table_size) works.
        return h1 % self.table_size, h2 % (self.table_size - 1) + 1

    def _repopulate(self) -> int:
        """Run the Maglev fill; return the fill iterations performed."""
        table = [NOT_FOUND] * self.table_size
        backends = sorted(self._backends)
        if not backends:
            self._table = table
            return self.table_size  # one clearing pass over the array
        pointer = {backend: 0 for backend in backends}
        filled = 0
        probes = 0
        while filled < self.table_size:
            for backend in backends:
                offset, skip = self._params[backend]
                while True:
                    slot = (offset + pointer[backend] * skip) % self.table_size
                    pointer[backend] += 1
                    probes += 1
                    if table[slot] == NOT_FOUND:
                        table[slot] = backend
                        filled += 1
                        break
                if filled == self.table_size:
                    break
        if probes > max_fill_iterations(len(backends), self.table_size):  # pragma: no cover
            # The bound is proven tight (module docstring); exceeding it
            # means the fill under-charges and the contract is a lie.
            raise AssertionError(
                f"{self.name}: repopulation took {probes} iterations, above the "
                f"declared bound {max_fill_iterations(len(backends), self.table_size)}"
            )
        self._table = table
        return probes

    def backend_count(self) -> int:
        """Number of active backends."""
        return len(self._backends)

    def backends(self) -> List[int]:
        """The active backend ids, sorted (diagnostics and workloads)."""
        return sorted(self._backends)

    def table(self) -> Tuple[int, ...]:
        """A snapshot of the lookup array (slot index -> backend id)."""
        return tuple(self._table)

    def is_active(self, backend: int) -> bool:
        """Whether ``backend`` currently serves traffic."""
        return backend in self._backends

    def select(self, flow: int) -> Optional[int]:
        """Consistent-hash ``flow`` to a backend; ``None`` when none active."""
        slot = ((flow * 2654435761) ^ (flow >> 29)) % self.table_size
        backend = self._table[slot]
        return None if backend == NOT_FOUND else backend

    def add_backend(self, backend: int) -> Tuple[str, int]:
        """Activate ``backend``; return ``(status, fill iterations)``.

        ``status`` is ``"added"`` (repopulation ran), ``"present"`` (the
        backend was already active; no-op) or ``"dropped"`` (the set is at
        ``max_backends``, matching the fixed-allocation Vigor structures).
        """
        if not 0 <= backend < BACKEND_SPACE:
            raise ValueError(f"backend {backend} is not a {BACKEND_BITS}-bit id")
        if backend in self._backends:
            return "present", 0
        if len(self._backends) >= self.max_backends:
            return "dropped", 0
        self._backends.add(backend)
        self._params[backend] = self.permutation_params(backend)
        return "added", self._repopulate()

    def remove_backend(self, backend: int) -> Tuple[bool, int]:
        """Drain ``backend``; return ``(removed, fill iterations)``."""
        if backend not in self._backends:
            return False, 0
        self._backends.discard(backend)
        del self._params[backend]
        return True, self._repopulate()

    # ------------------------------------------------------------------ #
    # Instrumented extern handlers
    # ------------------------------------------------------------------ #
    def _fill_touched(self, probes: int) -> list:
        """Table slots a repopulation pass wrote, modelled as a sweep.

        The real fill probes permutation order; a sequential sweep over
        the same number of slots has the same footprint and set pressure,
        which is what the cache simulator prices.
        """
        return [self.slot_addr(i % self.table_size) for i in range(probes)]

    def _slot_touched(self, slot: int) -> list:
        """One slot of the lookup array or of the membership words after it."""
        return [self.slot_addr(slot)]

    def _op_lookup(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (flow,) = args
        backend = self.select(flow)
        slot = ((flow * 2654435761) ^ (flow >> 29)) % self.table_size
        touched = partial(self._slot_touched, slot)
        if backend is None:
            # Empty-table fast path: no backend id copy.
            return self.charge(
                "lookup", NOT_FOUND, discount_instructions=1, touched=touched
            )
        return self.charge("lookup", backend, touched=touched)

    def _op_active(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (backend,) = args
        backend %= BACKEND_SPACE
        # Membership word: one slot per backend id, after the lookup array.
        touched = partial(self._slot_touched, self.table_size + backend % self.max_backends)
        return self.charge("active", 1 if self.is_active(backend) else 0, touched=touched)

    def _op_add(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (backend,) = args
        status, probes = self.add_backend(backend % BACKEND_SPACE)
        if status != "added":
            # Present/dropped fast path: no repopulation ran.
            return self.charge("add", f=0, discount_instructions=1, touched=self.header_touched)
        return self.charge("add", f=probes, touched=partial(self._fill_touched, probes))

    def _op_remove(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (backend,) = args
        removed, probes = self.remove_backend(backend % BACKEND_SPACE)
        if not removed:
            # Unknown-backend fast path: no repopulation ran.
            return self.charge("remove", f=0, discount_instructions=1, touched=self.header_touched)
        return self.charge("remove", f=probes, touched=partial(self._fill_touched, probes))
