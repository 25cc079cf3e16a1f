"""End-to-end tests: BOLT on the static LPM router, cross-checked against
the concrete interpreter + tracer — the proof that the structure library
composes with the Algorithm-2 generator and the classifier machinery."""

import random

import pytest

from repro.core import Metric
from repro.nf.router import (
    DROP_NO_ROUTE,
    DROP_NON_IP,
    DROP_SHORT,
    DROP_TTL,
    LAYOUT,
    PKT_BASE,
    ROUTER_FUNCTION,
    build_router_module,
    generate_router_contract,
    ipv4_packet,
    make_routing_table,
)
from repro.nf.replay import replay_env
from repro.nfil import Interpreter, Memory
from repro.structures.lpm import MAX_DEPTH

ALL_CLASSES = ["no_route", "non_ip", "routed", "short", "ttl_expired"]

#: Every PCV of the router contract, zeroed (traces fill in observations).
ZERO_PCVS = {"rt.d": 0}


@pytest.fixture(scope="module")
def contract():
    return generate_router_contract()


def _ip(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


def _fib():
    table = make_routing_table()
    table.add_route(_ip(10, 0, 0, 0), 8, 1)
    table.add_route(_ip(10, 1, 0, 0), 16, 2)
    table.add_route(_ip(10, 1, 2, 0), 24, 3)
    table.add_route(_ip(192, 168, 0, 0), 16, 4)
    table.add_route(_ip(192, 168, 7, 9), 32, 5)
    return table


def _run(interp, packet, length=None):
    memory = Memory()
    memory.write_bytes(PKT_BASE, packet)
    length = len(packet) if length is None else length
    return interp.run(ROUTER_FUNCTION, [PKT_BASE, length], memory=memory)


def test_contract_has_the_five_router_classes(contract):
    assert sorted(contract.class_names()) == ALL_CLASSES
    for entry in contract:
        assert entry.paths, "every router entry must carry its symbolic path"
        assert all(path.feasibility == "sat" for path in entry.paths)


def test_contract_expressions_use_the_trie_pcv(contract):
    assert contract.variables() <= {"rt.d"}
    # Parse-failure paths never reach the trie: constant cost.
    for name in ("short", "non_ip", "ttl_expired"):
        assert contract.entry_for(name).expr(Metric.INSTRUCTIONS).is_constant()
    routed = contract.entry_for("routed")
    assert routed.expr(Metric.INSTRUCTIONS).coefficient("rt.d") == 5
    assert routed.expr(Metric.MEMORY_ACCESSES).coefficient("rt.d") == 2


def test_router_concrete_behaviour():
    interp = Interpreter(build_router_module(), handler=_fib())
    # Longest prefix wins.
    result, _ = _run(interp, ipv4_packet(_ip(10, 1, 2, 9)))
    assert result == 3
    result, _ = _run(interp, ipv4_packet(_ip(10, 1, 9, 9)))
    assert result == 2
    result, _ = _run(interp, ipv4_packet(_ip(10, 200, 0, 1)))
    assert result == 1
    result, _ = _run(interp, ipv4_packet(_ip(192, 168, 7, 9)))
    assert result == 5
    # Drop reasons.
    result, trace = _run(interp, ipv4_packet(_ip(8, 8, 8, 8)))
    assert result == DROP_NO_ROUTE
    assert trace.extern_calls  # the trie was consulted
    result, trace = _run(interp, b"\x00" * 10)
    assert result == DROP_SHORT
    assert not trace.extern_calls
    result, _ = _run(interp, ipv4_packet(_ip(10, 0, 0, 1), ethertype=(0x86, 0xDD)))
    assert result == DROP_NON_IP
    result, _ = _run(interp, ipv4_packet(_ip(10, 0, 0, 1), ttl=1))
    assert result == DROP_TTL


def test_contract_bounds_100_replayed_packets(contract):
    """For >=100 replayed packets, the contract entry the execution falls
    into upper-bounds the traced counts, and the matched symbolic path
    predicts the stateless counts exactly."""
    interp = Interpreter(build_router_module(), handler=_fib())
    rng = random.Random(99)
    destinations = (
        [_ip(10, 1, 2, rng.randrange(256)) for _ in range(6)]
        + [_ip(10, 1, rng.randrange(256), 1) for _ in range(6)]
        + [_ip(10, rng.randrange(256), 0, 1) for _ in range(6)]
        + [_ip(192, 168, 7, 9), _ip(192, 168, 44, 1)]
        + [rng.randrange(1 << 32) for _ in range(8)]
    )

    replayed = 0
    classes_seen = set()
    for n in range(160):
        dst = rng.choice(destinations)
        roll = rng.random()
        if roll < 0.08:
            packet = ipv4_packet(dst)[: rng.randrange(0, 34)]
        elif roll < 0.16:
            packet = ipv4_packet(dst, ethertype=(0x86, 0xDD))
        elif roll < 0.24:
            packet = ipv4_packet(dst, ttl=rng.choice((0, 1)))
        else:
            packet = ipv4_packet(dst)
        _, trace = _run(interp, packet)

        env = replay_env(packet, LAYOUT.sym_bytes, trace, len=len(packet))
        entry = contract.classify(env)
        assert entry is not None, f"replay {n} not covered by any contract entry"
        classes_seen.add(entry.input_class.name)

        bindings = dict(ZERO_PCVS)
        bindings.update(trace.pcv_bindings())
        assert entry.evaluate(Metric.INSTRUCTIONS, bindings) >= trace.total_instructions()
        assert entry.evaluate(Metric.MEMORY_ACCESSES, bindings) >= trace.total_memory_accesses()

        path = entry.matching_path(env)
        assert path is not None
        assert path.instructions == trace.instructions
        assert path.memory_accesses == trace.memory_accesses
        replayed += 1

    assert replayed >= 100
    assert classes_seen == set(ALL_CLASSES)


def test_contract_worst_case_bounds_everything(contract):
    """Evaluating at the trie's depth bound dominates any concrete run."""
    interp = Interpreter(build_router_module(), handler=_fib())
    rng = random.Random(3)
    worst_instr = contract.upper_bound(Metric.INSTRUCTIONS)
    worst_mem = contract.upper_bound(Metric.MEMORY_ACCESSES)
    assert worst_instr == 31 + 5 * MAX_DEPTH
    for _ in range(150):
        _, trace = _run(interp, ipv4_packet(rng.randrange(1 << 32)))
        assert worst_instr >= trace.total_instructions()
        assert worst_mem >= trace.total_memory_accesses()


def test_parse_failure_predictions_are_exact(contract):
    """Stateless drop paths have constant, exact predictions."""
    interp = Interpreter(build_router_module(), handler=_fib())
    cases = [
        ("short", b"\x01\x02\x03"),
        ("non_ip", ipv4_packet(_ip(10, 0, 0, 1), ethertype=(0x08, 0x06))),
        ("ttl_expired", ipv4_packet(_ip(10, 0, 0, 1), ttl=1)),
    ]
    for name, packet in cases:
        _, trace = _run(interp, packet)
        entry = contract.entry_for(name)
        assert entry.evaluate(Metric.INSTRUCTIONS, ZERO_PCVS) == trace.total_instructions()
        assert entry.evaluate(Metric.MEMORY_ACCESSES, ZERO_PCVS) == trace.total_memory_accesses()


def test_routed_entry_depth_tracks_prefix_length(contract):
    """Deeper matches consult more trie nodes, and the contract prices it."""
    interp = Interpreter(build_router_module(), handler=_fib())
    routed = contract.entry_for("routed")
    previous_depth = -1
    previous_cost = -1
    for dst in (_ip(10, 200, 0, 1), _ip(10, 1, 9, 9), _ip(10, 1, 2, 9)):
        _, trace = _run(interp, ipv4_packet(dst))
        depth = trace.pcv_bindings()["rt.d"]
        cost = routed.evaluate(Metric.INSTRUCTIONS, {"rt.d": depth})
        assert depth > previous_depth
        assert cost > previous_cost
        previous_depth, previous_cost = depth, cost
