"""End-to-end tests for the VigNAT-style NAT: the multi-instance NF.

The NAT is the proof that per-instance PCV namespacing works through the
whole pipeline: its contract is written over ``fwd.*`` and ``rev.*`` at
once, concrete replays observe both namespaces independently, and the
adversarial stream pins each instance's bounds separately.
"""

import random

import pytest

from repro.core import Metric
from repro.nf.nat import (
    DROP_NO_PORTS,
    DROP_NON_IP,
    DROP_SHORT,
    DROP_UNKNOWN_FLOW,
    LAN_PORT,
    LAYOUT,
    MIN_NAT_FRAME,
    NAT_FUNCTION,
    PKT_BASE,
    PORT_BASE,
    build_nat_module,
    generate_nat_contract,
    SPEC,
    make_nat_tables,
    nat_adversarial,
    nat_harness,
)
from repro.nf.replay import replay_env
from repro.nfil import ExternHandler, Interpreter, Memory
from repro.traffic import Replayer, nat_frame

CAPACITY = 16
TIMEOUT = 50

NAT_CLASSES = {
    "short",
    "non_ip",
    "internal_new",
    "internal_existing",
    "no_ports",
    "external_hit",
    "external_miss",
}

#: Every namespaced PCV of the NAT contract, zeroed.
ZERO_PCVS = {
    f"{instance}.{symbol}": 0
    for instance in ("fwd", "rev")
    for symbol in ("t", "w", "e")
}

LAN_HOST = 0x0A000001  # 10.0.0.1
WAN_HOST = 0x08080808  # 8.8.8.8


@pytest.fixture(scope="module")
def contract():
    return generate_nat_contract(CAPACITY, TIMEOUT)


def _interp(capacity=CAPACITY, timeout=TIMEOUT, pool=None):
    fwd, rev, ports = make_nat_tables(capacity, timeout, pool=pool)
    handler = ExternHandler().merge(fwd).merge(rev).merge(ports)
    return Interpreter(build_nat_module(), handler=handler), (fwd, rev, ports)


def _run(interp, packet, in_port, time):
    memory = Memory()
    memory.write_bytes(PKT_BASE, packet)
    return interp.run(
        NAT_FUNCTION, [PKT_BASE, len(packet), in_port, time], memory=memory
    )


def test_contract_has_the_seven_nat_classes(contract):
    assert set(contract.class_names()) == NAT_CLASSES
    for entry in contract:
        assert entry.paths, "every NAT entry must carry its symbolic path"
        assert all(path.feasibility == "sat" for path in entry.paths)


def test_contract_distinguishes_the_two_instances(contract):
    """The forcing function of namespacing: ``fwd.t`` and ``rev.t`` are
    separate contract columns with separate coefficients."""
    assert contract.variables() == set(ZERO_PCVS)
    existing = contract.entry_for("internal_existing")
    # fwd: one get (6t) + one refreshing put (6t); rev: one put (6t).
    assert existing.expr(Metric.INSTRUCTIONS).coefficient("fwd.t") == 12
    assert existing.expr(Metric.INSTRUCTIONS).coefficient("rev.t") == 6
    hit = contract.entry_for("external_hit")
    # Mirrored on the reverse path: one rev get + rev put, one fwd put.
    assert hit.expr(Metric.INSTRUCTIONS).coefficient("rev.t") == 12
    assert hit.expr(Metric.INSTRUCTIONS).coefficient("fwd.t") == 6
    # Both registries carry their own bounds.
    assert contract.registry.get("fwd.t").max_value == CAPACITY
    assert contract.registry.get("rev.t").max_value == CAPACITY


def test_nat_concrete_behaviour():
    interp, (fwd, rev, ports) = _interp()
    flow = nat_frame(LAN_HOST, 40000, WAN_HOST, 80)

    # First LAN packet of a flow leases the first pool port and rewrites.
    result, trace = _run(interp, flow, in_port=LAN_PORT, time=0)
    assert result == PORT_BASE
    assert fwd.occupancy() == 1 and rev.occupancy() == 1
    assert ports.leased() == 1
    # The source port field was rewritten in NF memory.
    # (little-endian store of the leased port at offset 34)
    # Second packet of the same flow reuses the lease.
    result, _ = _run(interp, flow, in_port=LAN_PORT, time=1)
    assert result == PORT_BASE
    assert ports.leased() == 1  # no second lease

    # WAN reply to the leased port is translated back.
    reply = nat_frame(WAN_HOST, 80, 0xCB007101, PORT_BASE)
    result, _ = _run(interp, reply, in_port=1, time=2)
    assert result == (LAN_HOST << 16) | 40000

    # WAN frame to an unleased port is dropped.
    stray = nat_frame(WAN_HOST, 80, 0xCB007101, PORT_BASE + 7)
    result, _ = _run(interp, stray, in_port=1, time=3)
    assert result == DROP_UNKNOWN_FLOW

    # Truncated and non-IP frames are dropped before parsing endpoints.
    result, trace = _run(interp, flow[: MIN_NAT_FRAME - 1], in_port=LAN_PORT, time=4)
    assert result == DROP_SHORT
    assert len(trace.extern_calls) == 2  # only the two expiry scans ran
    v6 = nat_frame(LAN_HOST, 40000, WAN_HOST, 80, ethertype=(0x86, 0xDD))
    result, _ = _run(interp, v6, in_port=LAN_PORT, time=5)
    assert result == DROP_NON_IP


def test_nat_pool_exhaustion_drops_new_flows():
    interp, (fwd, rev, ports) = _interp(pool=[PORT_BASE, PORT_BASE + 1])
    for i in range(2):
        result, _ = _run(
            interp, nat_frame(LAN_HOST + i, 50000, WAN_HOST, 80), in_port=LAN_PORT, time=i
        )
        assert result == PORT_BASE + i
    result, _ = _run(
        interp, nat_frame(LAN_HOST + 9, 50000, WAN_HOST, 80), in_port=LAN_PORT, time=2
    )
    assert result == DROP_NO_PORTS
    assert ports.available() == 0
    # Existing flows keep working at exhaustion.
    result, _ = _run(
        interp, nat_frame(LAN_HOST, 50000, WAN_HOST, 80), in_port=LAN_PORT, time=3
    )
    assert result == PORT_BASE


def test_nat_source_port_rewrite_lands_in_packet_memory():
    interp, _ = _interp()
    memory = Memory()
    packet = nat_frame(LAN_HOST, 40000, WAN_HOST, 80)
    memory.write_bytes(PKT_BASE, packet)
    result, _ = interp.run(
        NAT_FUNCTION, [PKT_BASE, len(packet), LAN_PORT, 0], memory=memory
    )
    rewritten = memory.load(PKT_BASE + 34, 2)  # little-endian NF-side store
    assert rewritten == result == PORT_BASE


def test_contract_bounds_100_replayed_packets(contract):
    """The acceptance check: for >=100 replayed packets the matched entry
    upper-bounds the traced counts, and the matched symbolic path predicts
    the stateless counts exactly — with PCV bindings spanning both
    instances' namespaces."""
    interp, _ = _interp()
    rng = random.Random(2019)
    hosts = [(rng.randrange(1 << 32), rng.randrange(1024, 1 << 16)) for _ in range(10)]

    replayed = 0
    classes_seen = set()
    for n in range(150):
        src_ip, src_port = hosts[rng.randrange(len(hosts))]
        if n % 13 == 0:
            packet = nat_frame(src_ip, src_port, WAN_HOST, 80)[: rng.randrange(0, 37)]
            in_port = LAN_PORT
        elif n % 7 == 0:
            packet = nat_frame(WAN_HOST, 80, 0xCB007101, PORT_BASE + rng.randrange(20))
            in_port = 1 + rng.randrange(3)
        else:
            packet = nat_frame(src_ip, src_port, WAN_HOST, 80)
            in_port = LAN_PORT
        time = n * 2
        _, trace = _run(interp, packet, in_port, time)

        env = replay_env(
            packet, LAYOUT.sym_bytes, trace, len=len(packet), in_port=in_port, time=time
        )
        entry = contract.classify(env)
        assert entry is not None, f"replay {n} not covered by any contract entry"
        classes_seen.add(entry.input_class.name)

        bindings = dict(ZERO_PCVS)
        bindings.update(trace.pcv_bindings())
        for metric, measured in (
            (Metric.INSTRUCTIONS, trace.total_instructions()),
            (Metric.MEMORY_ACCESSES, trace.total_memory_accesses()),
        ):
            predicted = entry.evaluate(metric, bindings)
            assert predicted >= measured, (
                f"replay {n} ({entry.input_class.name}): {predicted} < {measured}"
            )

        path = entry.matching_path(env)
        assert path is not None
        assert path.instructions == trace.instructions
        assert path.memory_accesses == trace.memory_accesses
        replayed += 1

    assert replayed >= 100
    assert {"internal_new", "internal_existing", "external_hit", "external_miss", "short"} <= (
        classes_seen
    )


def test_adversarial_pins_both_instances_independently(contract):
    """The acceptance criterion: the adversarial phase provably pins both
    instances' namespaced PCVs to their registry bounds."""
    workload = nat_adversarial()
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    fwd, rev, _ = workload.harness.structures
    registry = contract.registry
    assert set(workload.expected_worst) == set(ZERO_PCVS)
    for pcv, bound in workload.expected_worst.items():
        assert registry.get(pcv).max_value == bound
        assert result.max_pcvs[pcv] == bound, pcv
    # The single worst_t packet observes BOTH chains at full length.
    worst = next(o for o in result.outcomes if o.note == "worst_t")
    assert worst.pcvs["fwd.t"] == CAPACITY
    assert worst.pcvs["rev.t"] == CAPACITY
    assert worst.class_name == "internal_existing"


def test_workload_streams_cover_every_contract_class(contract):
    classes = set()
    for build in SPEC.workloads.values():
        workload = build(2019, 120)
        result = Replayer(workload.harness, contract).replay(workload.stimuli)
        assert result.ok, result.violations[:3]
        classes.update(result.classes_seen())
    assert classes == NAT_CLASSES


def test_harness_scalar_order_and_defaults():
    harness = nat_harness()
    assert harness.scalar_order == ("len", "in_port", "time")
    from repro.traffic import Stimulus

    stimulus = Stimulus(
        packet=nat_frame(LAN_HOST, 40000, WAN_HOST, 80),
        scalars={"in_port": 0, "time": 0},
    )
    scalars = harness.scalars_for(stimulus)
    assert scalars["len"] == MIN_NAT_FRAME + 12
