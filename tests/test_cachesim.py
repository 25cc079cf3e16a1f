"""The cache simulator: LRU invariants, conflict patterns, simulated pricing.

Three seeded property families over random access streams (the LRU
invariants the simulated hardware backend's soundness story leans on),
one directed test pinning a classic conflict-miss pattern exactly, the
hierarchy's level semantics, and the :class:`~repro.hw.SimulatedModel`
pricing rules (observed levels, shortfall at DRAM, warm-state reset).
"""

import random
from fractions import Fraction

import pytest

from repro.hw import (
    DEFAULT_L1_GEOMETRY,
    DEFAULT_LLC_GEOMETRY,
    CacheGeometry,
    CacheHierarchy,
    HwSpec,
    RealisticModel,
    SetAssociativeCache,
    SimulatedModel,
    geometry_to_json,
)
from repro.nf import nat
from repro.nfil.tracer import ExecutionTrace
from repro.structures import LpmTrie

SEEDS = (7, 99, 2019)


# --------------------------------------------------------------------------- #
# LRU invariants over seeded random streams
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_reaccess_within_associativity_window_always_hits(seed):
    """If fewer than ``ways`` distinct conflicting lines were touched since
    an address was last accessed, true LRU cannot have evicted it."""
    geometry = CacheGeometry(sets=8, ways=2, line_size=64)
    cache = SetAssociativeCache(geometry)
    rng = random.Random(seed)
    history = []  # (set index, tag) per access, in order
    last_seen = {}  # (set index, tag) -> position in history
    checked = 0
    for _ in range(800):
        addr = rng.randrange(1 << 13)
        tag = addr // geometry.line_size
        index = tag % geometry.sets
        hit = cache.access(addr)
        previous = last_seen.get((index, tag))
        if previous is not None:
            conflicting = {
                t for s, t in history[previous + 1 :] if s == index and t != tag
            }
            if len(conflicting) < geometry.ways:
                assert hit, (addr, sorted(conflicting))
                checked += 1
        last_seen[(index, tag)] = len(history)
        history.append((index, tag))
    assert checked > 50  # the stream actually exercised the invariant


@pytest.mark.parametrize("seed", SEEDS)
def test_working_set_within_capacity_converges_to_all_hits(seed):
    """A working set that fits (≤ ways distinct lines per set) only ever
    takes cold misses, in any access order: pass k of n hits (n−1)/n."""
    geometry = CacheGeometry(sets=8, ways=2, line_size=64)
    cache = SetAssociativeCache(geometry)
    rng = random.Random(seed)
    lines = [i * geometry.line_size for i in range(geometry.sets * geometry.ways)]
    passes = 5
    for _ in range(passes):
        order = lines[:]
        rng.shuffle(order)
        for addr in order:
            cache.access(addr)
    assert cache.misses == len(lines)  # one cold miss per line, nothing else
    assert cache.hit_rate == Fraction(passes - 1, passes)
    for addr in lines:  # steady state: 100% hits
        assert cache.access(addr)


@pytest.mark.parametrize("seed", SEEDS)
def test_hit_count_is_monotone_in_associativity(seed):
    """LRU is a stack algorithm per set: at fixed set count, more ways can
    never turn a hit into a miss (the inclusion property)."""
    rng = random.Random(seed)
    stream = [rng.randrange(1 << 14) for _ in range(3000)]
    hits = []
    for ways in (1, 2, 4, 8):
        cache = SetAssociativeCache(CacheGeometry(sets=16, ways=ways, line_size=64))
        for addr in stream:
            cache.access(addr)
        assert cache.accesses == len(stream)
        hits.append(cache.hits)
    assert hits == sorted(hits)
    assert hits[0] < hits[-1]  # the stream actually conflicts somewhere


# --------------------------------------------------------------------------- #
# Directed conflict-miss pattern
# --------------------------------------------------------------------------- #
def test_directed_conflict_thrash_pattern_is_reproduced_exactly():
    """Three lines in one 2-way set, accessed in rotation: the classic LRU
    thrash where *every* access misses — then dropping one line from the
    rotation restores hits, in exactly the expected positions."""
    geometry = CacheGeometry(sets=2, ways=2, line_size=64)
    cache = SetAssociativeCache(geometry)
    a, b, c = 0, 128, 256  # tags 0, 2, 4 -> all set 0
    assert [cache.access(addr) for addr in [a, b, c] * 4] == [False] * 12
    # The set holds {b, c} now; retiring c makes {a, b} fit.
    assert [cache.access(addr) for addr in (a, b, a, b)] == [False, False, True, True]
    assert cache.hits == 2 and cache.misses == 14


def test_hierarchy_levels_and_inclusive_fill():
    """L1 hit, LLC hit (with L1 refill) and DRAM are told apart correctly."""
    hierarchy = CacheHierarchy(
        CacheGeometry(sets=1, ways=1), CacheGeometry(sets=1, ways=2)
    )
    a, b = 0, 64
    assert hierarchy.access(a) == "dram"  # cold machine
    assert hierarchy.access(a) == "l1"  # resident
    assert hierarchy.access(b) == "dram"  # evicts a from the 1-line L1
    assert hierarchy.access(a) == "llc"  # still held by the 2-way LLC...
    assert hierarchy.access(a) == "l1"  # ...and the LLC hit refilled L1
    hierarchy.reset()
    assert hierarchy.access(a) == "dram"
    assert hierarchy.l1.accesses == 1 and hierarchy.llc.accesses == 1


# --------------------------------------------------------------------------- #
# SimulatedModel pricing
# --------------------------------------------------------------------------- #
def test_simulated_measure_prices_observed_levels():
    spec = HwSpec()
    model = SimulatedModel(
        spec, l1=CacheGeometry(sets=1, ways=1), llc=CacheGeometry(sets=1, ways=2)
    )
    trace = ExecutionTrace(record_accesses=True)
    trace.record_instruction()
    trace.record_instruction()
    for addr in (0, 0, 64, 0):
        trace.record_access(addr, 8, "load")
    # Levels served: dram, l1, dram, llc (see the hierarchy test above).
    expected = (
        Fraction(2, spec.issue_width)
        + spec.dram_latency
        + spec.l1_latency
        + spec.dram_latency
        + spec.llc_latency
    )
    assert model.measure(trace) == expected


def test_simulated_compile_measure_matches_measure_and_prices_shortfall():
    """Counted-but-unrecorded accesses pay DRAM (the over-pricing side of
    the soundness argument), identically in both measure implementations."""
    spec = HwSpec()
    trace = ExecutionTrace(record_accesses=True)
    trace.record_access(0, 8, "load")
    trace.record_extern(
        "m_get", (1,), 2, instructions=5, memory_accesses=3, accesses=(64, 128)
    )
    # 4 accesses counted (1 stateless + 3 extern), 3 recorded: shortfall 1.
    # All three recorded lines are distinct and cold -> DRAM each.
    expected = Fraction(5, spec.issue_width) + 3 * spec.dram_latency + spec.dram_latency
    assert SimulatedModel(spec).measure(trace) == expected
    compiled = SimulatedModel(spec).compile_measure(scale=2)
    assert Fraction(compiled(trace), 2) == expected
    with pytest.raises(ValueError, match="does not clear"):
        SimulatedModel(spec).compile_measure(scale=1)  # 1/2-cycle instructions


def test_simulated_model_reset_restores_cold_measurement():
    model = SimulatedModel()
    trace = ExecutionTrace(record_accesses=True)
    for addr in (0, 64, 128):
        trace.record_access(addr, 8, "load")
    cold = model.measure(trace)
    warm = model.measure(trace)
    assert warm < cold  # the second replay found the lines resident
    model.reset()
    assert model.measure(trace) == cold


@pytest.mark.parametrize("seed", SEEDS)
def test_simulated_measurement_never_exceeds_dram_prediction(seed):
    """The per-packet soundness inequality: every simulated access costs at
    most DRAM, so measured ≤ the prediction-side all-DRAM price — whatever
    the (warm, shared) cache state happens to be."""
    rng = random.Random(seed)
    model = SimulatedModel()
    for _ in range(20):
        trace = ExecutionTrace(record_accesses=True)
        count = rng.randrange(1, 40)
        for _ in range(count):
            trace.record_access(rng.randrange(1 << 12), 8, "load")
        assert model.measure(trace) <= Fraction(count * model.spec.dram_latency)


# --------------------------------------------------------------------------- #
# Configuration validation and the realistic model's hit-rate guard
# --------------------------------------------------------------------------- #
def test_geometry_validation_and_json():
    with pytest.raises(ValueError, match="at least one set"):
        CacheGeometry(sets=0, ways=1)
    with pytest.raises(ValueError, match="at least one way"):
        CacheGeometry(sets=1, ways=0)
    with pytest.raises(ValueError, match="power of two"):
        CacheGeometry(sets=1, ways=1, line_size=48)
    assert geometry_to_json(CacheGeometry(sets=32, ways=2, line_size=64)) == {
        "sets": 32,
        "ways": 2,
        "line_size": 64,
        "capacity_bytes": 4096,
    }


def test_hwspec_rejects_misordered_latencies():
    with pytest.raises(ValueError, match="l1_latency <= llc_latency"):
        HwSpec(l1_latency=40, llc_latency=30)
    with pytest.raises(ValueError, match="llc_latency <= dram_latency"):
        HwSpec(llc_latency=200)


def test_realistic_model_rejects_undeclared_structure_kinds():
    """An unknown kind must fail loudly, not be silently priced at DRAM."""

    class NovelStructure(LpmTrie):
        kind = "novel_structure"

    structure = NovelStructure("novel", value_bound=4)
    model = RealisticModel()
    with pytest.raises(KeyError, match="novel_structure"):
        model.structure_access_cycles(structure)
    # None still means "unknown producer, price all-miss" — that path is
    # a deliberate worst case, not a modelling gap.
    assert model.structure_access_cycles(None) == Fraction(model.spec.dram_latency)
    # Declaring a rate — per kind or per instance — resolves the guard.
    by_kind = RealisticModel(hit_rates={"novel_structure": Fraction(1, 2)})
    assert by_kind.hit_rate(structure) == Fraction(1, 2)
    by_name = RealisticModel(hit_rates={"novel": Fraction(1, 4)})
    assert by_name.hit_rate(structure) == Fraction(1, 4)


# --------------------------------------------------------------------------- #
# Batched walks against a one-access-at-a-time reference
# --------------------------------------------------------------------------- #
class _ReferenceCache:
    """True LRU, one access at a time: the per-access walk, written out."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.sets = {}
        self.hits = 0
        self.misses = 0

    def access(self, addr):
        tag = addr // self.geometry.line_size
        lines = self.sets.setdefault(tag % self.geometry.sets, [])
        if tag in lines:
            lines.remove(tag)
            lines.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(lines) >= self.geometry.ways:
            lines.pop(0)
        lines.append(tag)
        return False


def _reference_walk(l1, llc, addrs):
    """Check L1, then the LLC, per access; return (l1, llc, dram) counts."""
    counts = [0, 0, 0]
    for addr in addrs:
        counts[0 if l1.access(addr) else 1 if llc.access(addr) else 2] += 1
    return tuple(counts)


def _resident(cache):
    """The lines each set holds, LRU first."""
    return {index: list(lines) for index, lines in cache._sets.items()}


#: (L1, LLC) shapes: one set, one way, and set counts that are not powers of two.
WALK_GEOMETRIES = (
    (CacheGeometry(sets=1, ways=4), CacheGeometry(sets=1, ways=8)),
    (CacheGeometry(sets=8, ways=1), CacheGeometry(sets=16, ways=1)),
    (CacheGeometry(sets=6, ways=3, line_size=32), CacheGeometry(sets=10, ways=5, line_size=32)),
    (DEFAULT_L1_GEOMETRY, DEFAULT_LLC_GEOMETRY),
)
WALK_IDS = ("one_set", "one_way", "sets_not_pow2", "default")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("l1, llc", WALK_GEOMETRIES, ids=WALK_IDS)
def test_hierarchy_walk_matches_per_access_reference(seed, l1, llc):
    """Walking packet-sized chunks in one call per level serves every access
    from the same level as the per-access walk, and leaves the same lines."""
    rng = random.Random(seed)
    hot = [rng.randrange(1 << 12) for _ in range(12)]
    hierarchy = CacheHierarchy(l1, llc)
    ref_l1, ref_llc = _ReferenceCache(l1), _ReferenceCache(llc)
    totals = [0, 0, 0]
    for _ in range(60):
        chunk = [
            rng.choice(hot) if rng.random() < 0.6 else rng.randrange(1 << 14)
            for _ in range(rng.randrange(0, 40))
        ]
        counts = hierarchy.walk(chunk)
        assert counts == _reference_walk(ref_l1, ref_llc, chunk)
        assert sum(counts) == len(chunk)
        totals = [t + c for t, c in zip(totals, counts)]
    assert all(totals)  # the streams reached every level
    for cache, reference in ((hierarchy.l1, ref_l1), (hierarchy.llc, ref_llc)):
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        assert _resident(cache) == reference.sets


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("l1, llc", WALK_GEOMETRIES, ids=WALK_IDS)
def test_cache_access_is_a_one_element_walk(seed, l1, llc):
    rng = random.Random(seed)
    single, batched = SetAssociativeCache(l1), SetAssociativeCache(l1)
    for _ in range(400):
        addr = rng.randrange(1 << 11)
        assert single.access(addr) == (batched.walk([addr]) == [])
    assert (single.hits, single.misses) == (batched.hits, batched.misses)
    assert _resident(single) == _resident(batched)


@pytest.mark.parametrize("seed", SEEDS)
def test_simulated_measure_equals_compiled_measure_over_a_nat_replay(seed):
    """Fraction and integer pricing agree packet by packet on a real
    interleaved address stream, each model keeping its caches warm across
    packets, and both match pricing each access through the reference."""
    workload = nat.SPEC.workloads["uniform"](seed, 40)
    harness = workload.harness
    harness.record_accesses = True
    structures = harness.structures
    fraction_model, int_model = SimulatedModel(), SimulatedModel()
    spec = fraction_model.spec
    scale = 3 * int_model.price_denominator(structures)
    compiled = int_model.compile_measure(structures, scale=scale)
    ref_l1 = _ReferenceCache(fraction_model.hierarchy.l1.geometry)
    ref_llc = _ReferenceCache(fraction_model.hierarchy.llc.geometry)
    for stimulus in workload.stimuli:
        _, trace = harness.run(stimulus)
        assert len(trace.addrs) == trace.total_memory_accesses() > 0
        measured = fraction_model.measure(trace, structures=structures)
        assert measured * scale == compiled(trace)
        l1_hits, llc_hits, dram = _reference_walk(ref_l1, ref_llc, trace.addrs)
        assert measured == (
            Fraction(trace.total_instructions(), spec.issue_width)
            + l1_hits * spec.l1_latency
            + llc_hits * spec.llc_latency
            + dram * spec.dram_latency
        )
    assert fraction_model.hierarchy.l1.hits == int_model.hierarchy.l1.hits == ref_l1.hits > 0
    assert fraction_model.hierarchy.llc.hits == int_model.hierarchy.llc.hits == ref_llc.hits
