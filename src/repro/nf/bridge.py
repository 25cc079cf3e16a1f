"""The MAC learning bridge (the paper's first evaluated NF, Table 4).

This module is the end-to-end proof of the BOLT pipeline.  The stateless
bridge code is written in NFIL — parse the Ethernet MACs, learn the source,
look up the destination, and forward / flood / drop — with all state behind
the three methods of one :class:`repro.structures.ExpiringMap` instance
(``bridge_map_expire`` / ``bridge_map_put`` / ``bridge_map_get``), the
Vigor-style split the paper relies on.

The stateful side comes entirely from :mod:`repro.structures`: the
expiring map supplies the instrumented concrete MAC table
(:func:`make_bridge_table`), the symbolic model
(:class:`~repro.structures.StructureModel`) and the PCV registry, so this
module contains *no* bespoke table implementation.

Input classes of the generated contract:

==========  ==========================================================
``short``   frame shorter than an Ethernet header: dropped unparsed
``miss``    destination MAC unknown: flooded
``hairpin`` destination learned on the ingress port: dropped
``hit``     destination known on another port: forwarded
==========  ==========================================================

PCVs (instance-qualified under the table's name, ``bridge_map``):
``bridge_map.t`` chain links inspected (bound: table capacity),
``bridge_map.w`` wheel slots advanced and ``bridge_map.e`` entries
expired by one sweep (bounds: ``wheel_slots`` / capacity).

Worst-case workload: :func:`bridge_adversarial` — ``capacity``
colliding MACs build one maximal chain (pins ``bridge_map.t``), then a
full-revolution time jump expires everything in one sweep (pins
``bridge_map.w`` and ``bridge_map.e``).

The module registers the bridge with the CLI, the gates and the docs
check through :data:`SPEC`.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.audit.ct import CONSTANT_TIME, LEAK, SecretClassSet
from repro.core.bolt import BoltConfig
from repro.core.contract import PerformanceContract
from repro.core.input_class import InputClass
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.nf.replay import InputLayout, NFHarness, generate_nf_contract
from repro.nf.workloads import NFSpec, Workload, colliding_mac_keys, sampled_stimuli
from repro.nfil.validate import validate_module
from repro.structures import NOT_FOUND, ExpiringMap
from repro.sym.expr import Const
from repro.sym.paths import Path
from repro.traffic.generators import Stimulus
from repro.traffic.packets import ethernet_frame, mac_bytes

__all__ = [
    "BRIDGE_FUNCTION",
    "DROP",
    "FLOOD",
    "LAYOUT",
    "MAX_PORTS",
    "NOT_FOUND",
    "PKT_BASE",
    "SPEC",
    "bridge_adversarial",
    "bridge_harness",
    "build_bridge_module",
    "classify_bridge_path",
    "generate_bridge_contract",
    "make_bridge_table",
]

#: Entry function of the bridge.
BRIDGE_FUNCTION = "bridge_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = 16
#: Minimum parseable frame: two MACs + EtherType.
MIN_FRAME = 14

#: Return values of the bridge: flood to all ports / drop the frame.
FLOOD = 0xFFFF
DROP = 0xFFFE
#: Valid switch ports are [0, MAX_PORTS).
MAX_PORTS = 64

#: The bridge's inputs: ``pkt`` at PKT_BASE, a valid ingress port.
LAYOUT = InputLayout(PKT_BASE, PKT_SYM_BYTES, {"in_port": MAX_PORTS})

#: Bench geometry: MAC-table capacity and entry timeout (ticks).
BENCH_CAPACITY = 16
BENCH_TIMEOUT = 50


def make_bridge_table(capacity: int = 64, timeout: int = 300) -> ExpiringMap:
    """Build the bridge's MAC table: an expiring map storing ports."""
    return ExpiringMap(
        "bridge_map",
        capacity=capacity,
        timeout=timeout,
        value_bound=MAX_PORTS,
    )


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_bridge_module() -> Module:
    """Build (and validate) the bridge NFIL module."""
    module = Module("bridge")
    table = make_bridge_table()
    table.declare(module)

    b = FunctionBuilder(BRIDGE_FUNCTION, params=("pkt", "len", "in_port", "time"))
    b.call(table.extern_name("expire"), b.param("time"), void=True)
    short = b.ult(b.param("len"), MIN_FRAME)
    b.br(short, "drop_short", "lookup")

    b.block("drop_short")
    b.ret(DROP)

    b.block("lookup")
    pkt = b.param("pkt")
    # 48-bit MACs assembled from a 32-bit and a 16-bit little-endian load.
    d_lo = b.load(pkt, size=4)
    d_hi = b.load(b.add(pkt, 4), size=2)
    dmac = b.or_(d_lo, b.shl(d_hi, 32), name="dmac")
    s_lo = b.load(b.add(pkt, 6), size=4)
    s_hi = b.load(b.add(pkt, 10), size=2)
    smac = b.or_(s_lo, b.shl(s_hi, 32), name="smac")
    b.call(table.extern_name("put"), smac, b.param("in_port"), void=True)
    out = b.call(table.extern_name("get"), dmac, name="out")
    known = b.ne(out, NOT_FOUND)
    b.br(known, "unicast", "flood")

    b.block("flood")
    b.ret(FLOOD)

    b.block("unicast")
    hairpin = b.eq(out, b.param("in_port"))
    b.br(hairpin, "drop_hairpin", "forward")

    b.block("drop_hairpin")
    b.ret(DROP)

    b.block("forward")
    b.ret(out)

    module.add_function(b.build())
    return validate_module(module)


# --------------------------------------------------------------------------- #
# Contract generation
# --------------------------------------------------------------------------- #
_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than an Ethernet header; dropped unparsed",
    "miss": "destination MAC unknown; frame flooded",
    "hairpin": "destination learned on the ingress port; frame dropped",
    "hit": "destination known on another port; frame forwarded",
}


def classify_bridge_path(path: Path) -> InputClass:
    """Map one explored bridge path to its input class."""
    if len(path.calls) == 1:  # only the expiry call ran: unparseable frame
        name = "short"
    elif isinstance(path.returned, Const) and path.returned.value == FLOOD:
        name = "miss"
    elif isinstance(path.returned, Const) and path.returned.value == DROP:
        name = "hairpin"
    else:
        name = "hit"
    return InputClass(name, description=_CLASS_DESCRIPTIONS[name])


def generate_bridge_contract(
    capacity: int = 64,
    timeout: int = 300,
    *,
    config: Optional[BoltConfig] = None,
) -> PerformanceContract:
    """Run BOLT end-to-end on the bridge and return its contract."""
    return generate_nf_contract(
        build_bridge_module(),
        BRIDGE_FUNCTION,
        (make_bridge_table(capacity, timeout),),
        LAYOUT,
        classify_bridge_path,
        config=config,
    )


# --------------------------------------------------------------------------- #
# Bench harness and workloads
# --------------------------------------------------------------------------- #
def bridge_harness() -> NFHarness:
    """A fresh MAC-learning bridge at bench geometry, wired for replay."""
    table = make_bridge_table(BENCH_CAPACITY, BENCH_TIMEOUT)
    return NFHarness(
        "bridge",
        build_bridge_module(),
        BRIDGE_FUNCTION,
        structures=(table,),
        layout=LAYOUT,
    )


def _bridge_mixed(
    rng: random.Random, indices: List[int], macs: List[int], note: str
) -> List[Stimulus]:
    """Turn sampled MAC indices into a frame mix covering every class."""
    stimuli: List[Stimulus] = []
    for n, index in enumerate(indices):
        dst = macs[index]
        src = macs[indices[(n * 7 + 3) % len(indices)]]
        if n % 17 == 0:
            packet = mac_bytes(dst)[: rng.randrange(0, 13)]  # truncated frame
        else:
            packet = ethernet_frame(dst, src)
        stimuli.append(
            Stimulus(packet=packet, scalars={"in_port": rng.randrange(4), "time": n * 3}, note=note)
        )
    return stimuli


def bridge_sampled(family: str, seed: int, packets: int) -> Workload:
    """The ``uniform`` or ``zipf`` stream over a 12-MAC population."""
    stimuli = sampled_stimuli(
        family,
        seed,
        packets,
        population=12,
        draw=lambda rng: [rng.randrange(1, 1 << 48) for _ in range(12)],
        mix=_bridge_mixed,
    )
    return Workload(family, bridge_harness(), stimuli)


def bridge_adversarial() -> Workload:
    """The bridge worst-case stream: every PCV driven to its bound.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``fill`` — learn ``capacity`` colliding source MACs (unknown
       destination: each frame floods), building one maximal hash chain.
    2. ``worst_t`` — a frame from the chain's *tail* MAC towards its
       *head* MAC on another port: the learning ``put`` refreshes the
       tail after inspecting ``t = capacity`` links, and the destination
       is known elsewhere, so the frame is forwarded (class ``hit``).
    3. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``w = wheel_slots`` slots and expires
       all ``e = capacity`` entries.
    """
    harness = bridge_harness()
    table = harness.structures[0]
    wheel_slots = table.wheel_slots
    keys = colliding_mac_keys(BENCH_CAPACITY)
    unknown = next(k for k in range(1, 1 << 16) if k not in set(keys))
    stimuli: List[Stimulus] = [
        Stimulus(
            packet=ethernet_frame(unknown, key), scalars={"in_port": 1, "time": i}, note="fill"
        )
        for i, key in enumerate(keys)
    ]
    fill_end = len(keys) - 1
    stimuli.append(
        Stimulus(
            packet=ethernet_frame(keys[0], keys[-1]),
            scalars={"in_port": 2, "time": fill_end},
            note="worst_t",
        )
    )
    # Latest deadline: the tail refresh at fill_end + timeout.  Jumping
    # past it by a full revolution makes the sweep advance wheel_slots
    # slots and visit every deadline slot.
    doom = fill_end + BENCH_TIMEOUT + wheel_slots + 1
    stimuli.append(
        Stimulus(
            packet=ethernet_frame(unknown, unknown + 1),
            scalars={"in_port": 3, "time": doom},
            note="worst_e",
        )
    )
    return Workload(
        "adversarial",
        harness,
        tuple(stimuli),
        expected_worst={
            table.pcv_name("t"): BENCH_CAPACITY,
            table.pcv_name("e"): BENCH_CAPACITY,
            table.pcv_name("w"): wheel_slots,
        },
    )


def bridge_scan_sweep(packets: int) -> Workload:
    """A ZMap-style sweep across the segment: one source MAC per frame.

    Every frame floods (the fixed destination is never learned) while its
    distinct source *is* learned, so the sweep fills the MAC table front
    to back and keeps churning it — the learning path under a scanner,
    with none of the hash collisions the adversarial stream crafts.
    """
    target = 0xBADD00C0FFEE  # swept-towards MAC, never a source
    stimuli = [
        Stimulus(
            packet=ethernet_frame(target, 0x2D0000000000 + n),
            scalars={"in_port": n % 4, "time": n},
            note="scan",
        )
        for n in range(packets)
    ]
    return Workload("scan_sweep", bridge_harness(), tuple(stimuli))


def bridge_header_flood(packets: int) -> Workload:
    """A crafted-header flood: one attacker MAC hammering one victim.

    The victim announces itself, then the attacker blasts the same header
    at it; the victim occasionally answers (keeping its entry warm),
    every 13th frame is a runt, and every 29th arrives on the victim's
    own port — the hairpin the bridge must drop.
    """
    victim, attacker = 0x00AA00000001, 0x00BB00000002
    stimuli = [
        Stimulus(
            packet=ethernet_frame(0xBADD00C0FFEE, victim),
            scalars={"in_port": 1, "time": 0},
            note="learn",
        )
    ]
    for n in range(1, packets):
        packet = ethernet_frame(victim, attacker)
        in_port = 2
        if n % 13 == 0:
            packet = packet[: n % 12]  # runt burst
        elif n % 47 == 1:
            packet = ethernet_frame(attacker, victim)  # victim answers
            in_port = 1
        elif n % 29 == 0:
            in_port = 1  # hairpin onto the victim's own port
        stimuli.append(
            Stimulus(packet=packet, scalars={"in_port": in_port, "time": n}, note="flood")
        )
    return Workload("header_flood", bridge_harness(), tuple(stimuli))


SPEC = NFSpec(
    name="bridge",
    title="NF: MAC learning bridge",
    smoke_contract=generate_bridge_contract,
    bench_contract=lambda: generate_bridge_contract(BENCH_CAPACITY, BENCH_TIMEOUT),
    harness=bridge_harness,
    workloads={
        "uniform": lambda seed, packets: bridge_sampled("uniform", seed, packets),
        "zipf": lambda seed, packets: bridge_sampled("zipf", seed, packets),
        "adversarial": lambda seed, packets: bridge_adversarial(),
        "scan_sweep": lambda seed, packets: bridge_scan_sweep(packets),
        "header_flood": lambda seed, packets: bridge_header_flood(packets),
    },
    expected_classes=frozenset({"short", "miss", "hairpin", "hit"}),
    secret_sets=(
        SecretClassSet(
            "mac-table membership",
            ("hit", "miss"),
            "whether the destination MAC has been learned (who is on the LAN)",
            LEAK,
        ),
        SecretClassSet(
            "forwarding decision",
            ("hit", "hairpin"),
            "whether the frame was forwarded or hairpin-dropped",
            CONSTANT_TIME,
        ),
    ),
)
