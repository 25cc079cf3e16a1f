"""A connection-tracking stateful firewall.

The fifth NF of the reproduction, closing the Vigor-style matrix's
enforcement column: stateless rule checks plus a connection table.  The
firewall sits between a LAN (ingress device :data:`LAN_PORT`) and the
WAN; outbound traffic is admitted by policy and *remembered*, inbound
traffic is admitted only when it matches a remembered connection — the
classic stateful default-deny.

State, per the :doc:`docs/NF_AUTHORING.md` recipe, lives behind two
library structures:

* ``fw_conn`` — an :class:`~repro.structures.ExpiringMap` tracking
  established connections by internal endpoint (``(ip << 16) | port``);
  idle connections expire after ``timeout`` ticks.
* ``fw_slots`` — a :class:`~repro.structures.PortAllocator` leasing
  connection slots: a new connection must win a slot before it is
  installed, so table exhaustion is an *observable* NFIL branch (the
  allocator returns ``NOT_FOUND``) rather than a silent insert drop —
  mirroring the NAT's port-pool pattern.

The one static rule is an egress filter: outbound frames to destination
port :data:`DENY_PORT` are dropped before any connection-table work
(the classic block-outbound-SMTP policy).  Rule checks are stateless
header compares; only tracking costs state.

Input classes of the generated contract:

========================  =============================================
``short``                 frame shorter than headers + ports: dropped
``non_ip``                EtherType is not IPv4: dropped
``denied``                outbound frame to the filtered port: dropped
``outbound_established``  LAN flow already tracked: lease refreshed,
                          forwarded (the established-flow fast path)
``outbound_new``          LAN flow admitted: slot leased, tracked,
                          forwarded
``conn_full``             LAN flow admitted but the connection table is
                          at capacity (no slot): dropped
``inbound_established``   WAN frame to a tracked endpoint: forwarded
                          (read-only — inbound traffic never refreshes
                          the lease)
``unsolicited``           WAN frame to an untracked endpoint: dropped
                          (stateful default-deny)
========================  =============================================

PCVs (instance-qualified under ``fw_conn``; the slot allocator is
constant-time and contributes none): ``fw_conn.t`` chain links walked,
``fw_conn.e`` entries expired by one sweep, ``fw_conn.w`` wheel slots
advanced.

Worst-case workloads: :func:`firewall_adversarial` pins all three
bounds via colliding flow keys and a full-revolution idle jump;
:func:`firewall_scan_sweep` drains the slot pool with a ZMap-style
source sweep, driving every later admission into ``conn_full``.

The module registers the firewall with the CLI, the gates and the docs
check through :data:`SPEC`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.audit.ct import CONSTANT_TIME, LEAK, SecretClassSet
from repro.core.bolt import Bolt, BoltConfig
from repro.core.contract import PerformanceContract
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.nf.replay import NFHarness, replay_env
from repro.nf.workloads import (
    WAN_CLIENT,
    WAN_SERVER,
    NFSpec,
    Workload,
    colliding_keys,
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
    "CONN_NAME",
    "DENY_PORT",
    "DROP_CONN_FULL",
    "DROP_DENIED",
    "DROP_NON_IP",
    "DROP_SHORT",
    "DROP_UNSOLICITED",
    "FIREWALL_FUNCTION",
    "LAN_PORT",
    "MAX_PORTS",
    "MIN_FW_FRAME",
    "NOT_FOUND",
    "PKT_BASE",
    "SLOTS_NAME",
    "SPEC",
    "build_firewall_module",
    "classify_firewall_path",
    "firewall_adversarial",
    "firewall_harness",
    "firewall_header_flood",
    "firewall_registry",
    "firewall_replay_env",
    "firewall_scan_sweep",
    "firewall_symbolic_inputs",
    "generate_firewall_contract",
    "make_firewall_state",
]

#: Entry function of the firewall.
FIREWALL_FUNCTION = "firewall_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + IPv4 + transport ports (same layout the NAT parses).
MIN_FW_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_FW_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: The ingress device id of the protected (LAN) side.
LAN_PORT = 0
#: Valid ingress device ids are [0, MAX_PORTS).
MAX_PORTS = 64

#: The one static egress rule: outbound frames to this destination port
#: are dropped (block-outbound-SMTP, the textbook egress filter).
DENY_PORT = 25

#: Structure instance names (disjoint from every other NF's, so the
#: firewall can share a service graph with the LB/NAT/router).
CONN_NAME = "fw_conn"
SLOTS_NAME = "fw_slots"

#: Bench geometry: connection-table capacity and timeout (ticks).
BENCH_CAPACITY = 16
BENCH_TIMEOUT = 50

#: Drop reason codes returned by the firewall.
DROP_SHORT = 0xFFD0
DROP_NON_IP = 0xFFD1
DROP_DENIED = 0xFFD2
DROP_UNSOLICITED = 0xFFD3
DROP_CONN_FULL = 0xFFD4


def make_firewall_state(
    capacity: int = 64,
    timeout: int = 300,
    *,
    slots: Optional[Iterable[int]] = None,
) -> Tuple[ExpiringMap, PortAllocator]:
    """Build the firewall's state: connection table plus slot pool.

    Args:
        capacity: live-connection capacity of the tracking table.
        timeout: connection-lease timeout in ticks.
        slots: explicit slot-id pool; defaults to ``capacity`` slots
            numbered from 1.  A pool smaller than ``capacity`` makes the
            ``conn_full`` class reachable before the map itself fills.
    """
    conn = ExpiringMap(
        CONN_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 16
    )
    if slots is None:
        slots = range(1, capacity + 1)
    pool = PortAllocator(SLOTS_NAME, pool=slots)
    return conn, pool


def firewall_registry(capacity: int = 64, timeout: int = 300) -> PCVRegistry:
    """PCVs of the firewall contract (the connection table's registry)."""
    return StructureModel(*make_firewall_state(capacity, timeout)).registry()


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_firewall_module() -> Module:
    """Build (and validate) the firewall NFIL module."""
    module = Module("firewall")
    conn, slots = make_firewall_state()
    for structure in (conn, slots):
        structure.declare(module)

    b = FunctionBuilder(FIREWALL_FUNCTION, params=("pkt", "len", "in_port", "time"))
    b.call(conn.extern_name("expire"), b.param("time"), void=True)
    short = b.ult(b.param("len"), MIN_FW_FRAME)
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
    outbound = b.eq(b.param("in_port"), LAN_PORT)
    b.br(outbound, "outbound", "inbound")

    # -- LAN -> WAN: policy check, then track ---------------------------- #
    b.block("outbound")
    d1 = b.load(b.add(pkt, 36), size=1)
    d0 = b.load(b.add(pkt, 37), size=1)
    dst_port = b.or_(b.shl(d1, 8), d0, name="dst_port")
    filtered = b.eq(dst_port, DENY_PORT)
    b.br(filtered, "drop_denied", "track")

    b.block("drop_denied")
    b.ret(DROP_DENIED)

    b.block("track")
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
    state = b.call(conn.extern_name("get"), flow, name="state")
    tracked = b.ne(state, NOT_FOUND)
    b.br(tracked, "refresh", "admit")

    b.block("refresh")
    # Established-flow fast path: refresh the lease, forward.
    b.call(conn.extern_name("put"), flow, state, void=True)
    b.ret(state)

    b.block("admit")
    slot = b.call(slots.extern_name("alloc"), name="slot")
    got = b.ne(slot, NOT_FOUND)
    b.br(got, "install", "drop_full")

    b.block("drop_full")
    b.ret(DROP_CONN_FULL)

    b.block("install")
    b.call(conn.extern_name("put"), flow, slot, void=True)
    b.ret(slot)

    # -- WAN -> LAN: admit only tracked endpoints ------------------------ #
    b.block("inbound")
    a3 = b.load(b.add(pkt, 30), size=1)
    a2 = b.load(b.add(pkt, 31), size=1)
    a1 = b.load(b.add(pkt, 32), size=1)
    a0 = b.load(b.add(pkt, 33), size=1)
    dst_ip = b.or_(
        b.or_(b.shl(a3, 24), b.shl(a2, 16)),
        b.or_(b.shl(a1, 8), a0),
        name="dst_ip",
    )
    q1 = b.load(b.add(pkt, 36), size=1)
    q0 = b.load(b.add(pkt, 37), size=1)
    in_dst_port = b.or_(b.shl(q1, 8), q0, name="in_dst_port")
    key = b.or_(b.shl(dst_ip, 16), in_dst_port, name="key")
    owner = b.call(conn.extern_name("get"), key, name="owner")
    known = b.ne(owner, NOT_FOUND)
    b.br(known, "accept", "drop_unsolicited")

    b.block("drop_unsolicited")
    b.ret(DROP_UNSOLICITED)

    b.block("accept")
    # Read-only: inbound traffic never refreshes the lease — only the
    # internal endpoint's own activity keeps a connection alive.
    b.ret(owner)

    module.add_function(b.build())
    return validate_module(module)


# --------------------------------------------------------------------------- #
# Contract generation and concrete replay glue
# --------------------------------------------------------------------------- #
def firewall_symbolic_inputs() -> Tuple[List[BV], SymbolicMemory, List[BV]]:
    """Symbolic initial state of one firewall invocation."""
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
    "denied": "outbound frame to the filtered port; dropped by policy",
    "outbound_established": "LAN flow already tracked; lease refreshed, forwarded",
    "outbound_new": "LAN flow admitted; slot leased, connection installed, forwarded",
    "conn_full": "LAN flow admitted but the connection table is at capacity; dropped",
    "inbound_established": "WAN frame to a tracked endpoint; forwarded read-only",
    "unsolicited": "WAN frame to an untracked endpoint; dropped (default-deny)",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_DENIED: "denied",
    DROP_UNSOLICITED: "unsolicited",
    DROP_CONN_FULL: "conn_full",
}


def classify_firewall_path(path: Path) -> InputClass:
    """Map one explored firewall path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        name = _DROP_CLASSES[path.returned.value]
    else:
        called = {call.name for call in path.calls}
        if f"{SLOTS_NAME}_alloc" in called:
            name = "outbound_new"
        elif f"{CONN_NAME}_put" in called:
            name = "outbound_established"
        else:
            name = "inbound_established"
    return InputClass(name, description=_CLASS_DESCRIPTIONS[name])


def generate_firewall_contract(
    capacity: int = 64,
    timeout: int = 300,
    *,
    config: Optional[BoltConfig] = None,
) -> PerformanceContract:
    """Run BOLT end-to-end on the firewall and return its contract."""
    module = build_firewall_module()
    if config is None:
        config = BoltConfig(classifier=classify_firewall_path)
    elif config.classifier is None:
        config.classifier = classify_firewall_path
    model = StructureModel(*make_firewall_state(capacity, timeout))
    bolt = Bolt(
        module,
        FIREWALL_FUNCTION,
        model=model,
        registry=model.registry(),
        config=config,
    )
    args, memory, constraints = firewall_symbolic_inputs()
    return bolt.generate(args, memory=memory, constraints=constraints)


def firewall_replay_env(
    packet: bytes,
    length: int,
    in_port: int,
    time: int,
    trace: ExecutionTrace,
) -> Dict[str, int]:
    """Build the symbol assignment a concrete firewall execution matches."""
    return replay_env(packet, PKT_SYM_BYTES, trace, len=length, in_port=in_port, time=time)


# --------------------------------------------------------------------------- #
# Bench harness and workloads
# --------------------------------------------------------------------------- #
def firewall_harness(*, slots: Optional[Iterable[int]] = None) -> NFHarness:
    """A fresh connection-tracking firewall at bench geometry, wired for replay.

    The handler merges the connection table and the slot allocator into
    one dispatch table, exactly like the NAT's three-instance merge.
    ``slots`` overrides the default ``capacity``-slot pool.
    """
    conn, pool = make_firewall_state(BENCH_CAPACITY, BENCH_TIMEOUT, slots=slots)
    handler = ExternHandler().merge(conn).merge(pool)
    return NFHarness(
        "firewall",
        build_firewall_module(),
        FIREWALL_FUNCTION,
        handler=handler,
        structures=(conn, pool),
        pkt_base=PKT_BASE,
        sym_bytes=PKT_SYM_BYTES,
        scalar_order=("len", "in_port", "time"),
    )



def _firewall_mixed(
    rng: random.Random, indices: List[int], flows: Sequence[Tuple[int, int]], note: str
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix covering every class.

    Most frames are LAN→WAN traffic from the sampled flow (new or
    established); every 17th is truncated (``short``), every 11th carries
    a non-IPv4 EtherType (``non_ip``), every 23rd is an outbound frame to
    the filtered port (``denied``), and every 5th is a WAN frame probing
    the sampled endpoint (``inbound_established`` once the connection
    exists, ``unsolicited`` before it does or after it expires).
    """
    stimuli: List[Stimulus] = []
    for n, index in enumerate(indices):
        src_ip, src_port = flows[index]
        scalars = {"in_port": LAN_PORT, "time": n * 3}
        if n % 17 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)[: rng.randrange(0, 37)]
        elif n % 11 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        elif n % 23 == 6:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, DENY_PORT)
        elif n % 5 == 0:
            packet = nat_frame(WAN_CLIENT, 443, src_ip, src_port)
            scalars["in_port"] = 1 + rng.randrange(3)
        else:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(Stimulus(packet=packet, scalars=scalars, note=note))
    return stimuli


def firewall_sampled(family: str, seed: int, packets: int) -> Workload:
    """The ``uniform`` or ``zipf`` stream over twelve LAN flows.

    Sampled streams run with a generous ``4 * capacity`` slot pool so
    realistic traffic is admitted freely — exhausting the pool (and
    reaching ``conn_full``) is the scan sweep's job, which runs with the
    default ``capacity``-sized pool.
    """
    stimuli = sampled_stimuli(
        family, seed, packets, population=12, draw=draw_flows, mix=_firewall_mixed
    )
    harness = firewall_harness(slots=range(1, 4 * BENCH_CAPACITY + 1))
    return Workload(family, harness, stimuli)


def firewall_adversarial() -> Workload:
    """The firewall worst-case stream: every ``fw_conn`` PCV at its bound.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``fill`` — ``capacity`` outbound flows whose keys collide in the
       connection table are admitted, building one maximal chain and
       draining the (default, ``capacity``-sized) slot pool.
    2. ``worst_t`` — a frame from the *last* established flow: the lookup
       and lease refresh walk ``fw_conn.t = capacity`` links.
    3. ``conn_full`` — a brand-new outbound flow finds no slot: dropped.
    4. ``inbound`` — a WAN frame to the tail endpoint: forwarded
       read-only (``inbound_established``).
    5. ``denied`` — an outbound frame to the filtered port: dropped by
       the egress rule before any table work.
    6. ``unsolicited`` — a WAN frame to an untracked endpoint: dropped.
    7. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``fw_conn.w = wheel_slots`` slots and
       expires all ``fw_conn.e = capacity`` connections.
    """
    capacity = BENCH_CAPACITY
    harness = firewall_harness()
    conn = harness.structures[0]
    wheel_slots = conn.wheel_slots
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
    fresh = next(k for k in range(1, 1 << 16) if k not in flow_set)
    # (packet, ingress device, note) of every probe after the fill.
    probes = [
        (nat_frame(tail >> 16, tail & 0xFFFF, WAN_SERVER, 80), LAN_PORT, "worst_t"),
        (nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, 80), LAN_PORT, "conn_full"),
        (nat_frame(WAN_CLIENT, 443, tail >> 16, tail & 0xFFFF), 1, "inbound"),
        (nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, DENY_PORT), LAN_PORT, "denied"),
        (nat_frame(WAN_CLIENT, 443, fresh >> 16, fresh & 0xFFFF), 1, "unsolicited"),
    ]
    stimuli += [
        Stimulus(packet=packet, scalars={"in_port": port, "time": capacity}, note=note)
        for packet, port, note in probes
    ]
    # Latest deadline: the tail refresh at time `capacity` plus the
    # timeout.  Jumping past it by a full revolution makes the sweep
    # advance wheel_slots slots and visit every deadline slot.
    doom = capacity + BENCH_TIMEOUT + wheel_slots + 1
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, fresh >> 16, fresh & 0xFFFF),
            scalars={"in_port": 1, "time": doom},
            note="worst_e",
        )
    )
    return Workload(
        "adversarial",
        harness,
        tuple(stimuli),
        expected_worst={
            conn.pcv_name("t"): capacity,
            conn.pcv_name("e"): capacity,
            conn.pcv_name("w"): wheel_slots,
        },
    )


def firewall_scan_sweep(packets: int) -> Workload:
    """A ZMap-style sweep from inside: one fresh source per frame.

    Slots are leased for the bench lifetime, so a sweep of distinct
    sources drains the default ``capacity``-sized pool front to back and
    every admission after that is ``conn_full`` — connection-table
    exhaustion under a realistic scanner, not a crafted collision.
    """
    stimuli = [
        Stimulus(
            packet=nat_frame(0x2D000000 + n, 33333, WAN_SERVER, 80),
            scalars={"in_port": LAN_PORT, "time": n},
            note="scan",
        )
        for n in range(packets)
    ]
    return Workload("scan_sweep", firewall_harness(), tuple(stimuli))


def firewall_header_flood(packets: int) -> Workload:
    """A SYN-flood-shaped blast against the stateful default-deny.

    Most frames are WAN probes of one never-established LAN endpoint
    (``unsolicited``, back to back); every 5th is an outbound frame to
    the filtered port (the egress rule running hot), and every 17th is a
    runt.
    """
    victim_ip, victim_port = 0x0A00002A, 8080  # the probed LAN endpoint
    stimuli: List[Stimulus] = []
    for n in range(packets):
        if n % 17 == 0:
            packet = nat_frame(WAN_CLIENT, 443, victim_ip, victim_port)[: n % 12]
            scalars = {"in_port": 1, "time": n}
        elif n % 5 == 2:
            packet = nat_frame(victim_ip, victim_port, WAN_SERVER, DENY_PORT)
            scalars = {"in_port": LAN_PORT, "time": n}
        else:
            packet = nat_frame(WAN_CLIENT, 443 + (n % 7), victim_ip, victim_port)
            scalars = {"in_port": 1 + (n % 3), "time": n}
        stimuli.append(Stimulus(packet=packet, scalars=scalars, note="flood"))
    return Workload("header_flood", firewall_harness(), tuple(stimuli))


SPEC = NFSpec(
    name="firewall",
    title="NF: connection-tracking firewall",
    smoke_contract=generate_firewall_contract,
    bench_contract=lambda: generate_firewall_contract(BENCH_CAPACITY, BENCH_TIMEOUT),
    harness=firewall_harness,
    workloads={
        "uniform": lambda seed, packets: firewall_sampled("uniform", seed, packets),
        "zipf": lambda seed, packets: firewall_sampled("zipf", seed, packets),
        "adversarial": lambda seed, packets: firewall_adversarial(),
        "scan_sweep": lambda seed, packets: firewall_scan_sweep(packets),
        "header_flood": lambda seed, packets: firewall_header_flood(packets),
    },
    expected_classes=frozenset(
        {
            "short",
            "non_ip",
            "denied",
            "outbound_established",
            "outbound_new",
            "conn_full",
            "inbound_established",
            "unsolicited",
        }
    ),
    secret_sets=(
        SecretClassSet(
            "egress rule verdict",
            ("denied", "outbound_new"),
            "whether an outbound destination port is filtered (policy probing "
            "from the LAN: the denied path does no table work)",
            LEAK,
        ),
        SecretClassSet(
            "connection tracking",
            ("outbound_new", "outbound_established"),
            "whether an outbound flow was already tracked (conn-table oracle: "
            "admission allocates a slot the refresh path never touches)",
            LEAK,
        ),
        # The default-deny is deliberately shaped so both inbound paths do
        # one read-only lookup and return a constant: a WAN prober timing
        # the firewall cannot tell a tracked endpoint from an untracked
        # one.  CI keeps proving the polynomials identical.
        SecretClassSet(
            "inbound probe response",
            ("inbound_established", "unsolicited"),
            "whether a WAN-probed endpoint has an active connection "
            "(conn-table scan from outside)",
            CONSTANT_TIME,
        ),
    ),
)
