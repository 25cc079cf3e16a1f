"""A VigNAT-style NAT: the first multi-instance NF of the reproduction.

The NAT is the forcing function for per-instance PCV namespacing: it keeps
**two** :class:`~repro.structures.ExpiringMap` instances — the forward
flow table ``fwd`` (internal endpoint → leased external port) and the
reverse table ``rev`` (external port → internal endpoint) — plus a
:class:`~repro.structures.PortAllocator` ``ports`` for the lease pool.
Because every structure instance emits instance-qualified PCVs, the
generated contract distinguishes ``fwd.t`` from ``rev.t`` (and ``fwd.w`` /
``fwd.e`` from ``rev.w`` / ``rev.e``): the two tables' chain walks, expiry
sweeps and adversarial bounds never alias.

State behind externs (the Vigor-style split):

* ``fwd_expire`` / ``fwd_put`` / ``fwd_get`` — forward flow table,
  PCVs ``fwd.w`` / ``fwd.e`` / ``fwd.t``;
* ``rev_expire`` / ``rev_put`` / ``rev_get`` — reverse flow table,
  PCVs ``rev.w`` / ``rev.e`` / ``rev.t``;
* ``ports_alloc`` (and host-side ``ports_release``) — constant-time port
  leasing, no PCVs.

Packet layout assumed (classic Ethernet + IPv4 + L4 ports, no VLANs):

========  =========================================
offset    field
========  =========================================
12..13    EtherType (0x0800 for IPv4, big-endian)
26..29    IPv4 source address (big-endian)
30..33    IPv4 destination address (big-endian)
34..35    L4 source port (big-endian)
36..37    L4 destination port (big-endian)
========  =========================================

Input classes of the generated contract:

=====================  ====================================================
``short``              frame shorter than Ethernet+IPv4+ports: dropped
``non_ip``             EtherType is not IPv4: dropped
``internal_new``       LAN flow without a lease: port allocated, both
                       tables installed, source port rewritten, forwarded
``internal_existing``  LAN flow with a live lease: both leases refreshed,
                       source port rewritten, forwarded
``no_ports``           LAN flow without a lease and the pool exhausted:
                       dropped
``external_hit``       WAN frame to a leased port: leases refreshed,
                       destination rewritten to the internal endpoint,
                       forwarded
``external_miss``      WAN frame to an unleased port: dropped
=====================  ====================================================

Worst-case workload: :func:`nat_adversarial` pins all six map PCVs to
their registry bounds at once — colliding flow keys build a maximal
``fwd`` chain, a crafted (colliding) port pool builds a maximal ``rev``
chain, and a full-revolution time jump expires both tables.

The module registers the NAT with the CLI, the gates and the docs check
through :data:`SPEC`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.audit.ct import LEAK, SecretClassSet
from repro.core.bolt import Bolt, BoltConfig
from repro.core.contract import PerformanceContract
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.nf.replay import NFHarness, replay_env
from repro.nf.workloads import (
    NAT_PUBLIC,
    WAN_CLIENT,
    WAN_SERVER,
    NFSpec,
    Workload,
    colliding_keys,
    colliding_ports,
    draw_flows,
    sampled_stimuli,
)
from repro.nfil.interpreter import ExternHandler
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.nfil.tracer import ExecutionTrace
from repro.nfil.validate import validate_module
from repro.structures import NOT_FOUND, ExpiringMap, PortAllocator, StructureModel
from repro.sym import expr as E
from repro.sym.expr import BV, Const, Sym
from repro.sym.paths import Path
from repro.sym.state import SymbolicMemory
from repro.traffic.generators import Stimulus
from repro.traffic.packets import nat_frame

__all__ = [
    "DROP_NO_PORTS",
    "DROP_NON_IP",
    "DROP_SHORT",
    "DROP_UNKNOWN_FLOW",
    "FWD_NAME",
    "LAN_PORT",
    "MAX_PORTS",
    "MIN_NAT_FRAME",
    "NAT_FUNCTION",
    "NOT_FOUND",
    "PKT_BASE",
    "PORT_BASE",
    "PORTS_NAME",
    "REV_NAME",
    "SPEC",
    "build_nat_module",
    "classify_nat_path",
    "generate_nat_contract",
    "make_nat_tables",
    "nat_adversarial",
    "nat_harness",
    "nat_registry",
    "nat_replay_env",
    "nat_symbolic_inputs",
]

#: Entry function of the NAT.
NAT_FUNCTION = "nat_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + minimal IPv4 header + the two L4 port fields.
MIN_NAT_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_NAT_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: The LAN-facing device: frames arriving here are translated outbound.
LAN_PORT = 0
#: Valid device ids are [0, MAX_PORTS).
MAX_PORTS = 64

#: First port of the default lease pool (the IANA dynamic-port floor).
PORT_BASE = 49152

#: Bench geometry: flow-table capacity and entry timeout (ticks).
BENCH_CAPACITY = 16
BENCH_TIMEOUT = 50
#: The lease pool of the sampled, scan and flood streams: ``4 * capacity``
#: sequential ports.  Leases are never released back (the allocator is a
#: lease-for-bench-lifetime pool), so expired flows that return consume
#: fresh ports — a head-heavy Zipf stream or a source sweep can genuinely
#: run the pool dry, exercising ``no_ports`` under realistic traffic.
BENCH_POOL = range(PORT_BASE, PORT_BASE + 4 * BENCH_CAPACITY)

#: Structure instance names (also the PCV namespaces: ``fwd.t``, ``rev.t``).
FWD_NAME = "fwd"
REV_NAME = "rev"
PORTS_NAME = "ports"

#: Drop reason codes returned by the NAT.
DROP_SHORT = 0xFFE0
DROP_NON_IP = 0xFFE1
DROP_NO_PORTS = 0xFFE2
DROP_UNKNOWN_FLOW = 0xFFE3


def make_nat_tables(
    capacity: int = 64,
    timeout: int = 300,
    *,
    pool: Optional[Iterable[int]] = None,
) -> Tuple[ExpiringMap, ExpiringMap, PortAllocator]:
    """Build the NAT's state: forward table, reverse table, port pool.

    Args:
        capacity: live-flow capacity of each flow table.
        timeout: flow-lease timeout in ticks (both tables).
        pool: explicit external-port pool; defaults to ``capacity`` ports
            from :data:`PORT_BASE` up.
    """
    fwd = ExpiringMap(
        FWD_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 16
    )
    rev = ExpiringMap(
        REV_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 48
    )
    if pool is None:
        pool = range(PORT_BASE, PORT_BASE + capacity)
    ports = PortAllocator(PORTS_NAME, pool=pool)
    return fwd, rev, ports


def nat_registry(capacity: int = 64, timeout: int = 300) -> PCVRegistry:
    """PCVs of the NAT contract: both tables' namespaced registries."""
    return StructureModel(*make_nat_tables(capacity, timeout)).registry()


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_nat_module() -> Module:
    """Build (and validate) the NAT NFIL module."""
    module = Module("nat")
    fwd, rev, ports = make_nat_tables()
    for structure in (fwd, rev, ports):
        structure.declare(module)

    b = FunctionBuilder(NAT_FUNCTION, params=("pkt", "len", "in_port", "time"))
    b.call(fwd.extern_name("expire"), b.param("time"), void=True)
    b.call(rev.extern_name("expire"), b.param("time"), void=True)
    short = b.ult(b.param("len"), MIN_NAT_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "direction", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("direction")
    internal = b.eq(b.param("in_port"), LAN_PORT)
    b.br(internal, "internal", "external")

    # -- LAN -> WAN: translate the source endpoint ----------------------- #
    b.block("internal")
    s3 = b.load(b.add(pkt, 26), size=1)
    s2 = b.load(b.add(pkt, 27), size=1)
    s1 = b.load(b.add(pkt, 28), size=1)
    s0 = b.load(b.add(pkt, 29), size=1)
    src_ip = b.or_(
        b.or_(b.shl(s3, 24), b.shl(s2, 16)),
        b.or_(b.shl(s1, 8), s0),
        name="src_ip",
    )
    p1 = b.load(b.add(pkt, 34), size=1)
    p0 = b.load(b.add(pkt, 35), size=1)
    src_port = b.or_(b.shl(p1, 8), p0, name="src_port")
    flow = b.or_(b.shl(src_ip, 16), src_port, name="flow")
    ext = b.call(fwd.extern_name("get"), flow, name="ext")
    leased = b.ne(ext, NOT_FOUND)
    b.br(leased, "refresh", "allocate")

    b.block("refresh")
    b.call(fwd.extern_name("put"), flow, ext, void=True)
    b.call(rev.extern_name("put"), ext, flow, void=True)
    b.store(b.add(pkt, 34), ext, size=2)  # rewrite the source port
    b.ret(ext)

    b.block("allocate")
    fresh = b.call(ports.extern_name("alloc"), name="fresh")
    got = b.ne(fresh, NOT_FOUND)
    b.br(got, "install", "drop_no_ports")

    b.block("drop_no_ports")
    b.ret(DROP_NO_PORTS)

    b.block("install")
    b.call(fwd.extern_name("put"), flow, fresh, void=True)
    b.call(rev.extern_name("put"), fresh, flow, void=True)
    b.store(b.add(pkt, 34), fresh, size=2)  # rewrite the source port
    b.ret(fresh)

    # -- WAN -> LAN: translate the destination endpoint ------------------ #
    b.block("external")
    d1 = b.load(b.add(pkt, 36), size=1)
    d0 = b.load(b.add(pkt, 37), size=1)
    dst_port = b.or_(b.shl(d1, 8), d0, name="dst_port")
    owner = b.call(rev.extern_name("get"), dst_port, name="owner")
    known = b.ne(owner, NOT_FOUND)
    b.br(known, "rewrite", "drop_unknown")

    b.block("drop_unknown")
    b.ret(DROP_UNKNOWN_FLOW)

    b.block("rewrite")
    b.call(rev.extern_name("put"), dst_port, owner, void=True)
    b.call(fwd.extern_name("put"), owner, dst_port, void=True)
    # Rewrite the destination port to the internal endpoint's port (the
    # low 16 bits of the flow id; a 2-byte store keeps exactly those).
    b.store(b.add(pkt, 36), owner, size=2)
    b.ret(owner)

    module.add_function(b.build())
    return validate_module(module)


# --------------------------------------------------------------------------- #
# Contract generation and concrete replay glue
# --------------------------------------------------------------------------- #
def nat_symbolic_inputs() -> Tuple[List[BV], SymbolicMemory, List[BV]]:
    """Symbolic initial state of one NAT invocation.

    The packet bytes are fresh symbols at :data:`PKT_BASE`, the scalars
    are ``len`` / ``in_port`` / ``time``, and the ingress device id is
    assumed valid.
    """
    memory = SymbolicMemory()
    memory.write_symbolic(PKT_BASE, PKT_SYM_BYTES, "pkt")
    in_port = Sym("in_port", 64)
    args: List[BV] = [
        Const(PKT_BASE, 64),
        Sym("len", 64),
        in_port,
        Sym("time", 64),
    ]
    constraints = [E.ult(in_port, Const(MAX_PORTS, 64))]
    return args, memory, constraints


_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than Ethernet+IPv4+ports; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "internal_new": "LAN flow without a lease; port allocated, forwarded",
    "internal_existing": "LAN flow with a live lease; refreshed, forwarded",
    "no_ports": "LAN flow without a lease and the pool exhausted; dropped",
    "external_hit": "WAN frame to a leased port; rewritten, forwarded",
    "external_miss": "WAN frame to an unleased port; dropped",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_NO_PORTS: "no_ports",
    DROP_UNKNOWN_FLOW: "external_miss",
}


def classify_nat_path(path: Path) -> InputClass:
    """Map one explored NAT path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        name = _DROP_CLASSES[path.returned.value]
    else:
        called = {call.name for call in path.calls}
        if f"{PORTS_NAME}_alloc" in called:
            name = "internal_new"
        elif f"{FWD_NAME}_get" in called:
            name = "internal_existing"
        else:
            name = "external_hit"
    return InputClass(name, description=_CLASS_DESCRIPTIONS[name])


def generate_nat_contract(
    capacity: int = 64,
    timeout: int = 300,
    *,
    config: Optional[BoltConfig] = None,
) -> PerformanceContract:
    """Run BOLT end-to-end on the NAT and return its contract."""
    module = build_nat_module()
    if config is None:
        config = BoltConfig(classifier=classify_nat_path)
    elif config.classifier is None:
        config.classifier = classify_nat_path
    model = StructureModel(*make_nat_tables(capacity, timeout))
    bolt = Bolt(
        module,
        NAT_FUNCTION,
        model=model,
        registry=model.registry(),
        config=config,
    )
    args, memory, constraints = nat_symbolic_inputs()
    return bolt.generate(args, memory=memory, constraints=constraints)


def nat_replay_env(
    packet: bytes,
    length: int,
    in_port: int,
    time: int,
    trace: ExecutionTrace,
) -> Dict[str, int]:
    """Build the symbol assignment a concrete NAT execution matches."""
    return replay_env(packet, PKT_SYM_BYTES, trace, len=length, in_port=in_port, time=time)


# --------------------------------------------------------------------------- #
# Bench harness and workloads
# --------------------------------------------------------------------------- #
def nat_harness(*, pool: Optional[Iterable[int]] = None) -> NFHarness:
    """A fresh VigNAT-style NAT at bench geometry, wired for replay.

    The handler merges the three structure instances (forward table,
    reverse table, port allocator) into one dispatch table — the merge
    (and :class:`NFHarness` itself) rejects ambiguous extern manglings.
    ``pool`` overrides the default ``capacity``-port lease pool.
    """
    fwd, rev, ports = make_nat_tables(BENCH_CAPACITY, BENCH_TIMEOUT, pool=pool)
    handler = ExternHandler().merge(fwd).merge(rev).merge(ports)
    return NFHarness(
        "nat",
        build_nat_module(),
        NAT_FUNCTION,
        handler=handler,
        structures=(fwd, rev, ports),
        pkt_base=PKT_BASE,
        sym_bytes=PKT_SYM_BYTES,
        scalar_order=("len", "in_port", "time"),
    )



def _nat_mixed(
    rng: random.Random, indices: List[int], flows: Sequence[Tuple[int, int]], note: str
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix covering every class.

    Most frames are LAN→WAN traffic from the sampled flow (new or
    existing); every 17th is truncated (``short``), every 11th carries a
    non-IPv4 EtherType (``non_ip``), and every 5th is WAN→LAN probing a
    pool port (``external_hit`` once the lease exists, ``external_miss``
    before or after it).
    """
    stimuli: List[Stimulus] = []
    for n, index in enumerate(indices):
        src_ip, src_port = flows[index]
        scalars = {"in_port": LAN_PORT, "time": n * 3}
        if n % 17 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)[: rng.randrange(0, 37)]
        elif n % 11 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        elif n % 5 == 0:
            packet = nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, BENCH_POOL[index % len(BENCH_POOL)])
            scalars["in_port"] = 1 + rng.randrange(3)
        else:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(Stimulus(packet=packet, scalars=scalars, note=note))
    return stimuli


def nat_sampled(family: str, seed: int, packets: int) -> Workload:
    """The ``uniform`` or ``zipf`` stream over twelve LAN flows."""
    stimuli = sampled_stimuli(
        family, seed, packets, population=12, draw=draw_flows, mix=_nat_mixed
    )
    return Workload(family, nat_harness(pool=BENCH_POOL), stimuli)


def nat_adversarial() -> Workload:
    """The NAT worst-case stream: both instances' PCVs driven to bound.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``fill`` — ``capacity`` internal flows whose keys collide in the
       forward table are established; the allocator's pool is crafted so
       the leased ports *also* collide in the reverse table.  Both tables
       end up holding one maximal chain each, and the pool is exhausted.
    2. ``worst_t`` — a frame from the *last* established flow: the lookup
       and refresh walk ``fwd.t = capacity`` links, and refreshing its
       lease (the last port inserted) walks ``rev.t = capacity`` links —
       both ``t`` bounds pinned by one packet, separately observable only
       because the PCVs are instance-qualified.
    3. ``no_ports`` — a brand-new flow finds the pool exhausted: dropped.
    4. ``external_hit`` — a WAN frame to the first lease: rewritten and
       forwarded.
    5. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``wheel_slots`` slots and expires all
       ``capacity`` entries in *each* table (``fwd.w``/``fwd.e`` and
       ``rev.w``/``rev.e`` at their bounds); the frame itself probes an
       unleased port and is dropped (``external_miss``).
    """
    capacity = BENCH_CAPACITY
    pool = colliding_ports(capacity)
    harness = nat_harness(pool=pool)
    fwd, rev, _ = harness.structures
    wheel_slots = fwd.wheel_slots
    flows = colliding_keys(capacity, buckets=capacity)
    flow_set = set(flows)
    stimuli: List[Stimulus] = [
        Stimulus(
            packet=nat_frame(key >> 16, key & 0xFFFF, WAN_SERVER, 80),
            scalars={"in_port": LAN_PORT, "time": i},
            note="fill",
        )
        for i, key in enumerate(flows)
    ]
    tail = flows[-1]
    stimuli.append(
        Stimulus(
            packet=nat_frame(tail >> 16, tail & 0xFFFF, WAN_SERVER, 80),
            scalars={"in_port": LAN_PORT, "time": capacity},
            note="worst_t",
        )
    )
    fresh = next(k for k in range(1, 1 << 16) if k not in flow_set)
    stimuli.append(
        Stimulus(
            packet=nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, 80),
            scalars={"in_port": LAN_PORT, "time": capacity},
            note="no_ports",
        )
    )
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, pool[0]),
            scalars={"in_port": 1, "time": capacity},
            note="external_hit",
        )
    )
    # Latest deadline: the refreshes at time `capacity` plus the timeout.
    # Jumping past it by a full revolution makes each table's sweep
    # advance wheel_slots slots and visit every deadline slot.
    doom = capacity + BENCH_TIMEOUT + wheel_slots + 1
    unleased = next(p for p in range(1, 1 << 16) if p not in set(pool))
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, unleased),
            scalars={"in_port": 1, "time": doom},
            note="worst_e",
        )
    )
    return Workload(
        "adversarial",
        harness,
        tuple(stimuli),
        expected_worst={
            fwd.pcv_name("t"): capacity,
            fwd.pcv_name("e"): capacity,
            fwd.pcv_name("w"): wheel_slots,
            rev.pcv_name("t"): capacity,
            rev.pcv_name("e"): capacity,
            rev.pcv_name("w"): wheel_slots,
        },
    )


def nat_scan_sweep(packets: int) -> Workload:
    """A ZMap-style sweep from inside: one fresh internal flow per frame.

    Ports are leased for the bench lifetime, so a sweep of distinct
    sources drains the ``4 * capacity`` pool front to back and every
    admission after that is ``no_ports`` — pool exhaustion under a
    realistic scanner, not a crafted collision.
    """
    stimuli = [
        Stimulus(
            packet=nat_frame(0x2D000000 + n, 33333, WAN_SERVER, 80),
            scalars={"in_port": LAN_PORT, "time": n},
            note="scan",
        )
        for n in range(packets)
    ]
    return Workload("scan_sweep", nat_harness(pool=BENCH_POOL), tuple(stimuli))


def nat_header_flood(packets: int) -> Workload:
    """A WAN-side port-scan flood against the NAT's public address.

    One internal flow establishes a lease, then the flood probes the
    public ports: every 5th probe hits the lease (refreshing it, so it
    never expires mid-flood), the rest probe unleased ports and are
    dropped; every 17th frame is a runt.
    """
    pool = BENCH_POOL
    inside_ip, inside_port = 0x0A000063, 40000  # 10.0.0.99, the one real flow
    stimuli = [
        Stimulus(
            packet=nat_frame(inside_ip, inside_port, WAN_SERVER, 80),
            scalars={"in_port": LAN_PORT, "time": 0},
            note="lease",
        )
    ]
    for n in range(1, packets):
        scalars = {"in_port": 1, "time": n}
        if n % 17 == 0:
            packet = nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, pool[0])[: n % 12]
        elif n % 5 == 0:
            packet = nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, pool[0])
        else:
            packet = nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, pool[-1] + 1 + (n % 512))
        stimuli.append(Stimulus(packet=packet, scalars=scalars, note="flood"))
    return Workload("header_flood", nat_harness(pool=pool), tuple(stimuli))


SPEC = NFSpec(
    name="nat",
    title="NF: VigNAT-style NAT",
    smoke_contract=generate_nat_contract,
    bench_contract=lambda: generate_nat_contract(BENCH_CAPACITY, BENCH_TIMEOUT),
    harness=nat_harness,
    workloads={
        "uniform": lambda seed, packets: nat_sampled("uniform", seed, packets),
        "zipf": lambda seed, packets: nat_sampled("zipf", seed, packets),
        "adversarial": lambda seed, packets: nat_adversarial(),
        "scan_sweep": lambda seed, packets: nat_scan_sweep(packets),
        "header_flood": lambda seed, packets: nat_header_flood(packets),
    },
    expected_classes=frozenset(
        {
            "short",
            "non_ip",
            "internal_new",
            "internal_existing",
            "no_ports",
            "external_hit",
            "external_miss",
        }
    ),
    secret_sets=(
        SecretClassSet(
            "external port scan",
            ("external_hit", "external_miss"),
            "whether an external port maps to an internal host (NAT state oracle)",
            LEAK,
        ),
        SecretClassSet(
            "internal flow novelty",
            ("internal_new", "internal_existing"),
            "whether an internal flow was already active (traffic-pattern recovery)",
            LEAK,
        ),
    ),
)
