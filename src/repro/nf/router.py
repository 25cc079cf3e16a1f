"""A static LPM (longest-prefix-match) IPv4 router.

The second NF of the reproduction, and the one that exercises the
:class:`repro.structures.LpmTrie` end-to-end: the stateless NFIL code
parses the Ethernet/IPv4 headers and makes exactly one stateful call —
``rt_lookup`` — into the routing trie.  The FIB is *static* configuration
(installed host-side with :meth:`~repro.structures.LpmTrie.add_route`
before traffic runs), so the contract has no expiry or learning terms; its
single PCV is the trie depth ``d``.

Packet layout assumed (classic Ethernet + IPv4, no VLANs):

========  =======================================
offset    field
========  =======================================
12..13    EtherType (0x0800 for IPv4, big-endian)
22        IPv4 TTL
30..33    IPv4 destination address (big-endian)
========  =======================================

Input classes of the generated contract:

===============  ====================================================
``short``        frame shorter than Ethernet + IPv4 headers: dropped
``non_ip``       EtherType is not IPv4: dropped
``ttl_expired``  TTL ≤ 1: dropped (a real router would emit ICMP)
``no_route``     no prefix covers the destination: dropped
``routed``       longest-prefix match found: forwarded
===============  ====================================================

PCV (instance-qualified under the FIB's name, ``rt``): ``rt.d``, the
trie nodes visited by one lookup, bounded by 33 (root + one per bit).

Worst-case workload: :func:`router_adversarial` — the bench FIB
(:func:`router_fib_routes`) nests a route at every prefix length 1–32
along one address, and routing that address pins ``rt.d`` to 33.

The module registers the router with the CLI, the gates and the docs
check through :data:`SPEC`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.audit.ct import CONSTANT_TIME, SecretClassSet
from repro.core.bolt import Bolt, BoltConfig
from repro.core.contract import PerformanceContract
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.nf.replay import NFHarness, replay_env
from repro.nf.workloads import NFSpec, Workload, sampled_stimuli
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.nfil.tracer import ExecutionTrace
from repro.nfil.validate import validate_module
from repro.structures import NOT_FOUND, LpmTrie, StructureModel
from repro.structures.lpm import MAX_DEPTH
from repro.traffic.generators import Stimulus
from repro.traffic.packets import ipv4_frame
from repro.sym.expr import BV, Const, Sym
from repro.sym.paths import Path
from repro.sym.state import SymbolicMemory

__all__ = [
    "DROP_NO_ROUTE",
    "DROP_NON_IP",
    "DROP_SHORT",
    "DROP_TTL",
    "MAX_PORTS",
    "MIN_IPV4_FRAME",
    "NOT_FOUND",
    "PKT_BASE",
    "ROUTER_FUNCTION",
    "SPEC",
    "build_router_module",
    "ipv4_packet",
    "classify_router_path",
    "generate_router_contract",
    "make_routing_table",
    "router_adversarial",
    "router_fib_routes",
    "router_harness",
    "router_registry",
    "router_replay_env",
    "router_symbolic_inputs",
]

#: Entry function of the router.
ROUTER_FUNCTION = "router_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet header + minimal IPv4 header.
MIN_IPV4_FRAME = 34
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_IPV4_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: Valid router ports are [0, MAX_PORTS).
MAX_PORTS = 64

#: Drop reason codes returned by the router.
DROP_SHORT = 0xFFF0
DROP_NON_IP = 0xFFF1
DROP_TTL = 0xFFF2
DROP_NO_ROUTE = 0xFFF3


def make_routing_table() -> LpmTrie:
    """Build the router's FIB: an LPM trie storing egress ports."""
    return LpmTrie("rt", value_bound=MAX_PORTS)


def router_registry() -> PCVRegistry:
    """PCVs of the router contract (from the trie's structure contract)."""
    return make_routing_table().registry()


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_router_module() -> Module:
    """Build (and validate) the router NFIL module."""
    module = Module("router")
    table = make_routing_table()
    table.declare(module)

    b = FunctionBuilder(ROUTER_FUNCTION, params=("pkt", "len"))
    short = b.ult(b.param("len"), MIN_IPV4_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "check_ttl", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("check_ttl")
    ttl = b.load(b.add(pkt, 22), size=1)
    alive = b.ugt(ttl, 1)
    b.br(alive, "route", "drop_ttl")

    b.block("drop_ttl")
    b.ret(DROP_TTL)

    b.block("route")
    # Destination IPv4 address, big-endian on the wire.
    b3 = b.load(b.add(pkt, 30), size=1)
    b2 = b.load(b.add(pkt, 31), size=1)
    b1 = b.load(b.add(pkt, 32), size=1)
    b0 = b.load(b.add(pkt, 33), size=1)
    dst = b.or_(
        b.or_(b.shl(b3, 24), b.shl(b2, 16)),
        b.or_(b.shl(b1, 8), b0),
        name="dst",
    )
    out = b.call(table.extern_name("lookup"), dst, name="out")
    known = b.ne(out, NOT_FOUND)
    b.br(known, "forward", "drop_no_route")

    b.block("drop_no_route")
    b.ret(DROP_NO_ROUTE)

    b.block("forward")
    b.ret(out)

    module.add_function(b.build())
    return validate_module(module)


# --------------------------------------------------------------------------- #
# Contract generation and concrete replay glue
# --------------------------------------------------------------------------- #
def router_symbolic_inputs() -> Tuple[List[BV], SymbolicMemory, List[BV]]:
    """Symbolic initial state of one router invocation."""
    memory = SymbolicMemory()
    memory.write_symbolic(PKT_BASE, PKT_SYM_BYTES, "pkt")
    args: List[BV] = [Const(PKT_BASE, 64), Sym("len", 64)]
    return args, memory, []


_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than Ethernet + IPv4 headers; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "ttl_expired": "TTL has reached 1; packet dropped",
    "no_route": "no installed prefix covers the destination; packet dropped",
    "routed": "longest-prefix match found; packet forwarded",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_TTL: "ttl_expired",
    DROP_NO_ROUTE: "no_route",
}


def classify_router_path(path: Path) -> InputClass:
    """Map one explored router path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        name = _DROP_CLASSES[path.returned.value]
    else:
        name = "routed"
    return InputClass(name, description=_CLASS_DESCRIPTIONS[name])


def generate_router_contract(
    *, config: Optional[BoltConfig] = None
) -> PerformanceContract:
    """Run BOLT end-to-end on the router and return its contract."""
    module = build_router_module()
    if config is None:
        config = BoltConfig(classifier=classify_router_path)
    elif config.classifier is None:
        config.classifier = classify_router_path
    table = make_routing_table()
    bolt = Bolt(
        module,
        ROUTER_FUNCTION,
        model=StructureModel(table),
        registry=table.registry(),
        config=config,
    )
    args, memory, constraints = router_symbolic_inputs()
    return bolt.generate(args, memory=memory, constraints=constraints)


def router_replay_env(
    packet: bytes, length: int, trace: ExecutionTrace
) -> Dict[str, int]:
    """Build the symbol assignment a concrete router execution matches."""
    return replay_env(packet, PKT_SYM_BYTES, trace, len=length)


def ipv4_packet(
    dst: Iterable[int] | int,
    *,
    ttl: int = 64,
    ethertype: Tuple[int, int] = (0x08, 0x00),
    payload: int = 16,
) -> bytes:
    """Build a minimal Ethernet+IPv4 frame for tests and demos.

    ``dst`` is the destination address, either as a 32-bit int or as four
    octets.  Kept as the historical per-NF entry point; the layout itself
    lives in :func:`repro.traffic.packets.ipv4_frame`.
    """
    return ipv4_frame(dst, ttl=ttl, ethertype=ethertype, payload=payload)


# --------------------------------------------------------------------------- #
# Bench harness and workloads
# --------------------------------------------------------------------------- #
#: The address the adversarial route chain nests along.
CHAIN_ADDRESS = 0x8A3B1CF5


def router_fib_routes() -> List[Tuple[int, int, int]]:
    """The bench FIB: ``(prefix, length, port)`` triples.

    A route at *every* length 1–32 along :data:`CHAIN_ADDRESS` (the
    adversarial chain) plus a few scattered shorter prefixes.  No default
    route, so ``no_route`` traffic exists.
    """
    routes = [(CHAIN_ADDRESS, length, length % MAX_PORTS) for length in range(1, 33)]
    routes += [
        (0x0A000000, 8, 40),  # 10.0.0.0/8
        (0x0A140000, 16, 41),  # 10.20.0.0/16
        (0x0A141E00, 24, 42),  # 10.20.30.0/24
        (0x2C000000, 6, 43),  # 44.0.0.0/6
    ]
    return routes


def router_harness(routes: Optional[Sequence[Tuple[int, int, int]]] = None) -> NFHarness:
    """A fresh LPM router with ``routes`` (default: the bench FIB) installed."""
    fib = make_routing_table()
    for prefix, length, port in routes if routes is not None else router_fib_routes():
        fib.add_route(prefix, length, port)
    return NFHarness(
        "router",
        build_router_module(),
        ROUTER_FUNCTION,
        handler=fib,
        structures=(fib,),
        pkt_base=PKT_BASE,
        sym_bytes=PKT_SYM_BYTES,
        scalar_order=("len",),
    )


#: Candidate destinations of the sampled streams, touching routed,
#: nested and unrouted space.
_DESTINATIONS = (
    CHAIN_ADDRESS,  # deepest possible match (/32)
    CHAIN_ADDRESS ^ 0x1,  # walks deep, matches the /31
    CHAIN_ADDRESS ^ 0xFF,  # matches a mid-length nested prefix
    0x0A141E07,  # 10.20.30.7 -> /24
    0x0A140101,  # 10.20.1.1  -> /16
    0x0A636363,  # 10.99.99.99 -> /8
    0x2D010203,  # 45.1.2.3 -> /6
    0x7F000001,  # 127.0.0.1 -> no_route
    0x01020304,  # 1.2.3.4 -> no_route
)


def _router_mixed(
    rng: random.Random, indices: List[int], destinations: Sequence[int], note: str
) -> List[Stimulus]:
    """Turn sampled destination indices into a frame mix for all classes."""
    stimuli: List[Stimulus] = []
    for n, index in enumerate(indices):
        dst = destinations[index % len(destinations)]
        if n % 13 == 0:
            packet = ipv4_frame(dst)[: rng.randrange(0, 34)]  # truncated frame
        elif n % 11 == 0:
            packet = ipv4_frame(dst, ethertype=(0x86, 0xDD))  # IPv6: dropped
        elif n % 7 == 0:
            packet = ipv4_frame(dst, ttl=1)  # TTL expires here
        else:
            packet = ipv4_frame(dst, ttl=1 + rng.randrange(1, 255))
        stimuli.append(Stimulus(packet=packet, note=note))
    return stimuli


def router_sampled(family: str, seed: int, packets: int) -> Workload:
    """The ``uniform`` or ``zipf`` stream over the fixed destinations."""
    stimuli = sampled_stimuli(
        family,
        seed,
        packets,
        population=len(_DESTINATIONS),
        draw=lambda rng: _DESTINATIONS,
        mix=_router_mixed,
    )
    return Workload(family, router_harness(), stimuli)


def router_adversarial() -> Workload:
    """The router worst-case stream: the deepest walk an IPv4 lookup allows.

    The FIB nests a route at every length 1–32 along
    :data:`CHAIN_ADDRESS`; routing that exact address visits the root
    plus one node per bit — ``d = 33``, the registry bound of ``d``.
    """
    stimuli = [
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS), note="worst_d"),
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS ^ 0x1), note="deep_sibling"),
        Stimulus(packet=ipv4_frame(0x7F000001), note="no_route"),
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS, ttl=1), note="ttl"),
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS)[:10], note="short"),
    ]
    harness = router_harness()
    fib = harness.structures[0]
    return Workload(
        "adversarial",
        harness,
        tuple(stimuli),
        expected_worst={fib.pcv_name("d"): MAX_DEPTH},
    )


def router_scan_sweep(packets: int) -> Workload:
    """A ZMap-style destination sweep across the IPv4 space.

    Destinations stride through the address space (a golden-ratio walk,
    so consecutive probes land far apart); most find no route, some land
    in the routed prefixes — the FIB under a scanner instead of a traffic
    mix.
    """
    stimuli = [
        Stimulus(packet=ipv4_frame((0x9E3779B1 * (n + 1)) & 0xFFFFFFFF), note="scan")
        for n in range(packets)
    ]
    return Workload("scan_sweep", router_harness(), tuple(stimuli))


def router_header_flood(packets: int) -> Workload:
    """A crafted-header flood hammering the FIB's deepest route.

    Two of every three frames carry the chain address with a full TTL —
    each walks all ``rt.d = 33`` trie nodes, so the flood pins the depth
    bound by sheer repetition; the rest arrive with ``ttl = 1`` (an
    expiry flood), and every 31st is a runt.
    """
    harness = router_harness()
    fib = harness.structures[0]
    stimuli: List[Stimulus] = []
    for n in range(packets):
        if n % 31 == 0:
            packet = ipv4_frame(CHAIN_ADDRESS)[: n % 20]
        elif n % 3 == 0:
            packet = ipv4_frame(CHAIN_ADDRESS, ttl=1)
        else:
            packet = ipv4_frame(CHAIN_ADDRESS, ttl=255)
        stimuli.append(Stimulus(packet=packet, note="flood"))
    return Workload(
        "header_flood",
        harness,
        tuple(stimuli),
        expected_worst={fib.pcv_name("d"): MAX_DEPTH},
    )


SPEC = NFSpec(
    name="router",
    title="NF: static LPM router",
    smoke_contract=generate_router_contract,
    bench_contract=generate_router_contract,
    harness=router_harness,
    workloads={
        "uniform": lambda seed, packets: router_sampled("uniform", seed, packets),
        "zipf": lambda seed, packets: router_sampled("zipf", seed, packets),
        "adversarial": lambda seed, packets: router_adversarial(),
        "scan_sweep": lambda seed, packets: router_scan_sweep(packets),
        "header_flood": lambda seed, packets: router_header_flood(packets),
    },
    expected_classes=frozenset({"short", "non_ip", "ttl_expired", "no_route", "routed"}),
    secret_sets=(
        # Both classes walk the trie to the same depth PCV ``d`` and charge
        # identical polynomials: timing reveals *how deep* the lookup went,
        # but not whether a route matched at that depth — the membership
        # bit itself is constant time, and CI keeps proving it.
        SecretClassSet(
            "fib membership at equal depth",
            ("routed", "no_route"),
            "whether a destination prefix exists in the FIB (topology probing)",
            CONSTANT_TIME,
        ),
    ),
)
