"""Tests for the Vigor-style structure library: concrete semantics, the
per-operation hand contracts (replayed against 100+ traced operations per
structure), and the Bolt cross-validation harness."""

import itertools
import random
from fractions import Fraction

import pytest

from repro.core import Metric, PerfExpr
from repro.hw import ConservativeModel, RealisticModel, SimulatedModel
from repro.nf import bridge
from repro.nf.bridge import generate_bridge_contract
from repro.nfil import ExecutionTrace, ExternHandler, Interpreter
from repro.registry import NF_MATRIX
from repro.structures import (
    NOT_FOUND,
    ChainingHashMap,
    ExpiringMap,
    LpmTrie,
    MaglevTable,
    OpSpec,
    PortAllocator,
    Structure,
    StructureContractError,
    StructureModel,
    validate_structure_contract,
)
from repro.structures.lpm import MAX_DEPTH
from repro.structures.validation import operation_module
from repro.traffic import Replayer


def traced_call(structure, method, *args, trace):
    """Drive one operation through the interpreter on its NFIL driver.

    Returns the concrete result; the call's instrumented cost lands in
    ``trace`` exactly as it would during an NF replay.
    """
    module, function = operation_module(structure, method)
    interp = Interpreter(module, handler=structure)
    result, _ = interp.run(function, list(args), trace=trace)
    return result


def assert_contract_bounds_trace(structure, trace, *, min_ops=100):
    """Every traced call must be upper-bounded by its hand contract entry."""
    contract = structure.operation_contract()
    assert len(trace.extern_calls) >= min_ops
    strict = 0
    for call in trace.extern_calls:
        method = call.name[len(structure.name) + 1 :]
        entry = contract.entry_for(method)
        bindings = {name: 0 for name in contract.registry.names()}
        bindings.update(call.pcvs)
        predicted_instr = entry.evaluate(Metric.INSTRUCTIONS, bindings)
        predicted_mem = entry.evaluate(Metric.MEMORY_ACCESSES, bindings)
        assert predicted_instr >= call.instructions, (
            f"{structure.name}.{method}: {predicted_instr} < {call.instructions}"
        )
        assert predicted_mem >= call.memory_accesses
        if predicted_instr > call.instructions:
            strict += 1
    # Fast paths must make the bound strict somewhere, or the check is a
    # tautology of "the handler charges the formula".
    assert strict > 0


# --------------------------------------------------------------------------- #
# Chaining hash map
# --------------------------------------------------------------------------- #
def test_hashmap_semantics():
    m = ChainingHashMap("m", capacity=4, buckets=2)
    assert m.lookup(1) == (None, 0)
    assert m.insert(1, 10) == ("inserted", 0)
    assert m.insert(1, 11)[0] == "refreshed"
    assert m.lookup(1)[0] == 11
    assert m.delete(1) == (True, 1)
    assert m.delete(1)[0] is False
    assert m.occupancy() == 0


def test_hashmap_capacity_drops_new_keys():
    m = ChainingHashMap("m", capacity=2, buckets=1)
    assert m.insert(1, 1)[0] == "inserted"
    assert m.insert(2, 2)[0] == "inserted"
    assert m.insert(3, 3)[0] == "dropped"
    # Refreshing an existing key still works at capacity.
    assert m.insert(2, 20)[0] == "refreshed"
    assert m.lookup(2)[0] == 20
    assert m.lookup(3) == (None, 2)


def test_hashmap_chains_report_traversals():
    m = ChainingHashMap("m", capacity=8, buckets=1)  # everything collides
    for key in range(4):
        m.insert(key, key * 10)
    value, traversed = m.lookup(3)
    assert value == 30
    assert traversed == 4  # walked the whole chain


def test_hashmap_contract_bounds_100_traced_operations():
    m = ChainingHashMap("flow", capacity=16, buckets=4)  # force collisions
    rng = random.Random(42)
    trace = ExecutionTrace()
    for n in range(150):
        key = rng.randrange(24)
        roll = rng.random()
        if roll < 0.5:
            traced_call(m, "put", key, n, trace=trace)
        elif roll < 0.85:
            result = traced_call(m, "get", key, trace=trace)
            expected = m.lookup(key)[0]
            assert result == (NOT_FOUND if expected is None else expected)
        else:
            traced_call(m, "remove", key, trace=trace)
    assert_contract_bounds_trace(m, trace, min_ops=150)
    # Collisions must actually have happened for the bound to mean much.
    assert max(call.pcvs.get("flow.t", 0) for call in trace.extern_calls) >= 2


# --------------------------------------------------------------------------- #
# Expiring (time-wheel) map
# --------------------------------------------------------------------------- #
def test_expiring_map_expires_on_deadline():
    m = ExpiringMap("em", capacity=8, timeout=5)
    m.insert(1, 10, now=0)
    assert m.sweep(4) == (4, 0)  # deadline is 0 + 5: not yet reached
    assert m.occupancy() == 1
    advanced, expired = m.sweep(5)
    assert (advanced, expired) == (1, 1)
    assert m.occupancy() == 0


def test_expiring_map_refresh_postpones_expiry():
    m = ExpiringMap("em", capacity=8, timeout=5)
    m.insert(1, 10, now=0)
    m.sweep(3)
    m.insert(1, 10, now=3)  # refresh: new deadline 8
    assert m.sweep(7) == (4, 0)
    assert m.occupancy() == 1
    assert m.sweep(9)[1] == 1


def test_expiring_map_wheel_advance_is_capped():
    m = ExpiringMap("em", capacity=8, timeout=5, wheel_slots=10)
    m.insert(1, 10, now=0)
    advanced, expired = m.sweep(1_000_000)
    assert advanced == 10  # one full revolution covers every slot
    assert expired == 1


def test_expiring_map_insert_never_skips_wheel_ticks():
    """A time-travelling insert must sweep, not jump the cursor: entries
    due in the skipped slots would otherwise outlive their deadline by a
    full wheel revolution."""
    m = ExpiringMap("em", capacity=8, timeout=300)
    m.insert(1, 10, now=0)  # deadline 300
    m.insert(2, 20, now=500)  # cursor moves 0 -> 500: key 1 must expire
    assert m.occupancy() == 1
    assert m._map.lookup(1) == (None, 0)
    assert m.sweep(501) == (1, 0)


def test_expiring_map_rejects_undersized_wheel():
    with pytest.raises(ValueError):
        ExpiringMap("em", timeout=10, wheel_slots=10)


def test_expiring_map_contract_bounds_100_traced_operations():
    m = ExpiringMap("mac", capacity=16, timeout=20, buckets=4)
    rng = random.Random(7)
    trace = ExecutionTrace()
    now = 0
    for n in range(60):
        now += rng.randrange(0, 8)
        traced_call(m, "expire", now, trace=trace)
        key = rng.randrange(24)
        traced_call(m, "put", key, n % 64, trace=trace)
        result = traced_call(m, "get", rng.randrange(24), trace=trace)
        assert result == NOT_FOUND or result < 64
    assert_contract_bounds_trace(m, trace, min_ops=180)
    # The workload must have exercised expiry and wheel advancement.
    assert max(call.pcvs.get("mac.e", 0) for call in trace.extern_calls) >= 1
    assert max(call.pcvs.get("mac.w", 0) for call in trace.extern_calls) >= 1


# --------------------------------------------------------------------------- #
# LPM trie
# --------------------------------------------------------------------------- #
def _ip(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


def test_lpm_longest_prefix_wins():
    t = LpmTrie("rt")
    t.add_route(_ip(10, 0, 0, 0), 8, 1)
    t.add_route(_ip(10, 1, 0, 0), 16, 2)
    t.add_route(_ip(10, 1, 2, 0), 24, 3)
    assert t.lookup(_ip(10, 9, 9, 9))[0] == 1
    assert t.lookup(_ip(10, 1, 9, 9))[0] == 2
    assert t.lookup(_ip(10, 1, 2, 9))[0] == 3
    assert t.lookup(_ip(11, 0, 0, 0))[0] is None
    assert t.route_count() == 3


def test_lpm_default_route_and_host_route():
    t = LpmTrie("rt")
    t.add_route(0, 0, 9)  # default route at the trie root
    t.add_route(_ip(192, 168, 0, 1), 32, 5)
    value, visited = t.lookup(_ip(8, 8, 8, 8))
    assert (value, visited) == (9, 1)
    value, visited = t.lookup(_ip(192, 168, 0, 1))
    assert value == 5
    assert visited == MAX_DEPTH


def test_lpm_rejects_bad_routes():
    t = LpmTrie("rt")
    with pytest.raises(ValueError):
        t.add_route(0, 33, 1)
    with pytest.raises(ValueError):
        t.add_route(1 << 32, 8, 1)
    with pytest.raises(ValueError):
        t.add_route(0, 0, NOT_FOUND)


def test_lpm_contract_bounds_100_traced_operations():
    t = LpmTrie("rt", value_bound=64)
    rng = random.Random(2019)
    # No default route: random addresses must be able to miss, so the
    # lookup bound stays strict somewhere (the miss fast path).
    for _ in range(40):
        length = rng.choice((8, 12, 16, 24, 32))
        prefix = rng.randrange(1 << 32) & ~((1 << (32 - length)) - 1 if length < 32 else 0)
        t.add_route(prefix, length, rng.randrange(64))
    trace = ExecutionTrace()
    depths = set()
    for _ in range(120):
        address = rng.randrange(1 << 32)
        result = traced_call(t, "lookup", address, trace=trace)
        expected = t.lookup(address)[0]
        assert result == (NOT_FOUND if expected is None else expected)
        depths.add(trace.extern_calls[-1].pcvs["rt.d"])
    assert_contract_bounds_trace(t, trace, min_ops=120)
    assert len(depths) > 1  # the workload explored different prefix depths
    assert max(depths) <= MAX_DEPTH


# --------------------------------------------------------------------------- #
# Port allocator
# --------------------------------------------------------------------------- #
def test_port_allocator_leases_in_pool_order_and_reuses_releases():
    alloc = PortAllocator("ports", pool=[100, 200, 300])
    assert [alloc.take() for _ in range(3)] == [100, 200, 300]
    assert alloc.take() == NOT_FOUND
    assert alloc.give_back(200) is True
    assert alloc.give_back(200) is False  # double free refused
    assert alloc.take() == 200
    assert alloc.available() == 0 and alloc.leased() == 3


def test_port_allocator_validates_its_pool():
    with pytest.raises(ValueError):
        PortAllocator("ports", pool=[])
    with pytest.raises(ValueError):
        PortAllocator("ports", pool=[1, 1])
    with pytest.raises(ValueError):
        PortAllocator("ports", pool=[1 << 16])


def test_port_allocator_contract_bounds_100_traced_operations():
    alloc = PortAllocator("ports", pool=range(1024, 1024 + 8))
    rng = random.Random(5)
    trace = ExecutionTrace()
    held = []
    for _ in range(120):
        if held and rng.random() < 0.4:
            traced_call(alloc, "release", held.pop(rng.randrange(len(held))), trace=trace)
        else:
            result = traced_call(alloc, "alloc", trace=trace)
            if result != NOT_FOUND:
                held.append(result)
    assert_contract_bounds_trace(alloc, trace, min_ops=120)
    # Exhaustion must have been exercised (the alloc fast path).
    assert any(call.result == NOT_FOUND for call in trace.extern_calls)


# --------------------------------------------------------------------------- #
# Bolt cross-validation and base-class machinery
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "structure",
    [
        ChainingHashMap("m", capacity=8, value_bound=64),
        ExpiringMap("em", capacity=8, timeout=30, value_bound=64),
        LpmTrie("rt", value_bound=64),
        PortAllocator("ports", pool=range(1024, 1032)),
        MaglevTable("tbl", table_size=7, max_backends=3, value_bound=1 << 16),
    ],
    ids=lambda s: s.kind,
)
def test_bolt_agrees_with_every_hand_contract(structure):
    checks = validate_structure_contract(structure)
    assert {check.method for check in checks} == {op.method for op in structure.ops()}
    for check in checks:
        # The only difference Bolt may find is the driver's stateless cost.
        assert check.driver_overhead[Metric.INSTRUCTIONS] >= 0
        for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
            diff = check.generated[metric] - check.hand[metric]
            assert diff.is_constant()


def test_validation_catches_a_model_contract_mismatch():
    """If the symbolic model charges something other than the documented
    per-operation contract, the Bolt cross-check must fail loudly."""

    class DriftingMap(ChainingHashMap):
        """Reports a different ``get`` slope every time it is asked.

        The StructureModel snapshots ops() when Bolt runs, the validator
        reads ops() again for the hand contract — a structure whose promise
        drifts between the two is exactly the inconsistency the harness
        exists to catch.
        """

        def __init__(self, name, **kwargs):
            self._drift = 0
            super().__init__(name, **kwargs)

        def ops(self):
            base = super().ops()
            self._drift += 1
            get = base[0]
            drifted = dict(get.cost)
            drifted[Metric.INSTRUCTIONS] = (
                drifted[Metric.INSTRUCTIONS] + self._drift * PerfExpr.var("t")
            )
            return (
                OpSpec(
                    get.method,
                    get.arity,
                    get.returns_value,
                    drifted,
                    get.pcvs,
                    get.description,
                ),
            ) + tuple(base[1:])

    with pytest.raises(StructureContractError):
        validate_structure_contract(DriftingMap("m", capacity=8))


def test_structure_requires_handlers_for_declared_ops():
    class Incomplete(Structure):
        kind = "broken"

        def ops(self):
            return (OpSpec("poke", 1, False),)

    with pytest.raises(TypeError):
        Incomplete("b")


def test_structure_rejects_bad_instance_names():
    # The error must teach the rule: it quotes the allowed character set.
    with pytest.raises(ValueError, match="letters, digits and underscores"):
        ChainingHashMap("no spaces")
    # Dots are reserved as the PCV namespace separator.
    with pytest.raises(ValueError, match="letters, digits and underscores"):
        ChainingHashMap("dotted.name")
    # Digit-leading names would only fail later, at PCV qualification —
    # the constructor must fail fast instead.
    with pytest.raises(ValueError, match="not starting with a digit"):
        ChainingHashMap("2tbl")


def test_charge_rejects_bad_discounts():
    m = ChainingHashMap("m", capacity=4)
    with pytest.raises(ValueError):
        m.charge("get", 0, t=0, discount_instructions=99)


def test_structure_model_merges_registries_and_dispatches():
    em = ExpiringMap("mac", capacity=8, timeout=10)
    rt = LpmTrie("fib")
    model = StructureModel(em, rt)
    names = model.registry().names()
    assert names == ["fib.d", "mac.e", "mac.t", "mac.w"]


def test_structure_model_keeps_same_symbol_instances_disjoint():
    """Two structures declaring the same local symbol (both map kinds use
    ``t``) stay disjoint in the merged registry — each under its own
    instance namespace, each with its own bound."""
    em = ExpiringMap("mac", capacity=8, timeout=10)
    hm = ChainingHashMap("flow", capacity=32)
    registry = StructureModel(em, hm).registry()
    assert registry.names() == ["flow.t", "mac.e", "mac.t", "mac.w"]
    assert registry.get("mac.t").max_value == 8
    assert registry.get("flow.t").max_value == 32
    assert registry.get("mac.t").structure == "mac"
    assert registry.get("flow.t").structure == "flow"


def test_maps_reject_the_not_found_sentinel_as_value():
    """A stored NOT_FOUND would be indistinguishable from a miss, so the
    maps refuse it — mirroring LpmTrie.add_route's guard."""
    with pytest.raises(ValueError, match="NOT_FOUND"):
        ChainingHashMap("m", capacity=4).insert(1, NOT_FOUND)
    with pytest.raises(ValueError, match="NOT_FOUND"):
        ExpiringMap("em", capacity=4, timeout=5).insert(1, NOT_FOUND, now=0)


def test_extern_handler_merge_composes_structures():
    em = ExpiringMap("mac", capacity=8, timeout=10)
    rt = LpmTrie("fib")
    combined = ExternHandler().merge(em).merge(rt)
    for method in ("expire", "put", "get"):
        assert combined.knows(f"mac_{method}")
    assert combined.knows("fib_lookup")
    # Colliding extern names must be rejected, not silently shadowed.
    with pytest.raises(ValueError):
        combined.merge(LpmTrie("fib"))


def test_operation_contract_lists_every_op():
    em = ExpiringMap("mac", capacity=8, timeout=10)
    contract = em.operation_contract()
    assert contract.class_names() == ["expire", "put", "get"]
    text = contract.render()
    assert "time-wheel" in text


# --------------------------------------------------------------------------- #
# Compiled charging
# --------------------------------------------------------------------------- #
PCV_GRID = (0, 1, 2, 7, 51)


def test_compiled_charge_equals_evaluate_int_for_every_registered_op():
    checked = 0
    structures = [structure for spec in NF_MATRIX for structure in spec.harness().structures]
    for structure in structures:
        for op in structure.ops():
            for values in itertools.product(PCV_GRID, repeat=len(op.pcvs)):
                bindings = dict(zip(op.pcvs, values))
                result = structure.charge(op.method, 5, **bindings)
                instructions = op.cost[Metric.INSTRUCTIONS].evaluate_int(bindings)
                memory_accesses = op.cost[Metric.MEMORY_ACCESSES].evaluate_int(bindings)
                assert result.instructions == instructions, (structure.name, op.method)
                assert result.memory_accesses == memory_accesses, (structure.name, op.method)
                assert result.accesses == (structure.heap_base,) * memory_accesses
                assert result.pcvs == {
                    structure.pcv_name(name): value for name, value in bindings.items()
                }
                assert result.value == 5
                checked += 1
    assert checked > 100


class _OneOp(Structure):
    kind = "one_op"

    def __init__(self, name, cost):
        self._cost = cost
        super().__init__(name)

    def ops(self):
        return (OpSpec("poke", 1, False, self._cost, ("t",)),)

    def _op_poke(self, args, memory):
        return self.charge("poke", t=args[0])


def test_compiled_charge_rounds_fractional_costs_up():
    cost = {
        Metric.INSTRUCTIONS: PerfExpr.from_terms(t=Fraction(3, 2), const=1),
        Metric.MEMORY_ACCESSES: PerfExpr.from_terms(t=Fraction(1, 3)),
    }
    structure = _OneOp("frac", cost)
    expected = {0: (1, 0), 1: (3, 1), 2: (4, 1), 3: (6, 1), 4: (7, 2)}
    for t, (instructions, memory_accesses) in expected.items():
        result = structure.charge("poke", t=t)
        assert (result.instructions, result.memory_accesses) == (instructions, memory_accesses)
        for metric, value in zip(cost, (instructions, memory_accesses)):
            assert cost[metric].evaluate_int({"t": t}) == value


def test_op_without_a_metric_fails_only_when_charged():
    cost = {Metric.INSTRUCTIONS: PerfExpr.from_terms(t=2, const=1)}
    structure = _OneOp("partial", cost)
    with pytest.raises(KeyError):
        structure.charge("poke", t=1)


def test_packet_outcome_cycles_are_the_scaled_integers_over_the_scale():
    contract = generate_bridge_contract(16, 50)
    workload = bridge.SPEC.workloads["uniform"](2019, 40)
    models = (ConservativeModel(), RealisticModel(), SimulatedModel())
    result = Replayer(workload.harness, contract, models=models).replay(workload.stimuli)
    scale = result.cycle_scale
    assert result.outcomes
    for outcome in result.outcomes:
        assert outcome.cycle_scale == scale
        assert set(outcome.cycles) == {model.name for model in models}
        for model, (measured, predicted) in outcome.cycles_scaled.items():
            assert outcome.cycles[model] == (
                Fraction(measured, scale),
                Fraction(predicted, scale),
            )
    for name, summary in result.summaries.items():
        members = [o for o in result.outcomes if o.class_name == name]
        for model in summary.max_cycles:
            assert summary.max_cycles[model] == (
                max(o.cycles[model][0] for o in members),
                max(o.cycles[model][1] for o in members),
            )
