"""A heavy-hitter traffic monitor on a count-min sketch.

The sixth NF of the reproduction, and the one built on
:class:`~repro.structures.CountMinSketch`: every well-formed IPv4 frame
counts its source flow (``(src_ip << 16) | src_port``) in the sketch
``hh``, and the updated estimate is compared against a threshold — flows
at or above it are flagged as heavy hitters, everything else passes
unremarked.

The interesting property is what the contract *doesn't* contain: the
sketch's operations are constant-time by construction (no PCVs — see the
structure's docstring), and the hot/cold branch below is two
single-return blocks of identical shape, so the ``hot_flow`` and
``cold_flow`` entries carry byte-identical cost polynomials.  The
constant-time audit therefore PROVES the pair indistinguishable (a zero
cycle-delta polynomial under every hardware model): an observer timing
the monitor learns nothing about which flows it considers hot.  Contrast
the firewall, whose tracked/untracked classes genuinely leak.

Input classes of the generated contract:

=============  ======================================================
``short``      frame shorter than headers + ports: dropped
``non_ip``     EtherType is not IPv4: dropped
``cold_flow``  estimate below the threshold: passed unremarked
``hot_flow``   estimate at/above the threshold: flagged heavy hitter
=============  ======================================================

PCVs: none — the whole point.  There is consequently no bound for an
adversarial stream to pin; instead the ``header_flood`` workload
saturates the sketch's counters (pinning every estimate to the
``counter_max`` ceiling), exercising the structure's only fast path.

The module registers the monitor with the CLI, the gates and the docs
check through :data:`SPEC`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.ct import CONSTANT_TIME, SecretClassSet
from repro.core.bolt import Bolt, BoltConfig
from repro.core.contract import PerformanceContract
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.nf.replay import NFHarness, replay_env
from repro.nf.workloads import WAN_SERVER, NFSpec, Workload, draw_flows, sampled_stimuli
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.nfil.tracer import ExecutionTrace
from repro.nfil.validate import validate_module
from repro.structures import CountMinSketch, StructureModel
from repro.sym.expr import BV, Const, Sym
from repro.sym.paths import Path
from repro.sym.state import SymbolicMemory
from repro.traffic.generators import Stimulus
from repro.traffic.packets import nat_frame

__all__ = [
    "FLAG_COLD",
    "FLAG_HOT",
    "DROP_NON_IP",
    "DROP_SHORT",
    "MIN_MON_FRAME",
    "MON_COUNTER_MAX",
    "MON_DEPTH",
    "MON_THRESHOLD",
    "MON_WIDTH",
    "MONITOR_FUNCTION",
    "PKT_BASE",
    "SKETCH_NAME",
    "SPEC",
    "build_monitor_module",
    "classify_monitor_path",
    "generate_monitor_contract",
    "make_sketch",
    "monitor_adversarial",
    "monitor_harness",
    "monitor_header_flood",
    "monitor_registry",
    "monitor_replay_env",
    "monitor_scan_sweep",
    "monitor_symbolic_inputs",
]

#: Entry function of the monitor.
MONITOR_FUNCTION = "monitor_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + IPv4 + transport ports (same layout the NAT parses).
MIN_MON_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_MON_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: Structure instance name of the heavy-hitter sketch.
SKETCH_NAME = "hh"

#: Default sketch geometry and flagging threshold.
MON_DEPTH = 4
MON_WIDTH = 64
#: 8-bit saturating counters: a flood pins an estimate here and no
#: further, which is what the ``header_flood`` workloads assert.
MON_COUNTER_MAX = 255
#: Estimates at or above this are flagged as heavy hitters.
MON_THRESHOLD = 32

#: Return codes of the monitor (all paths return a constant verdict).
DROP_SHORT = 0xFFB0
DROP_NON_IP = 0xFFB1
FLAG_COLD = 0xFFB8
FLAG_HOT = 0xFFB9


def make_sketch(
    depth: int = MON_DEPTH,
    width: int = MON_WIDTH,
    *,
    counter_max: int = MON_COUNTER_MAX,
) -> CountMinSketch:
    """Build the monitor's heavy-hitter sketch."""
    return CountMinSketch(SKETCH_NAME, depth=depth, width=width, counter_max=counter_max)


def monitor_registry() -> PCVRegistry:
    """PCVs of the monitor contract: the empty registry, by design."""
    return make_sketch().registry()


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_monitor_module() -> Module:
    """Build (and validate) the monitor NFIL module."""
    module = Module("monitor")
    sketch = make_sketch()
    sketch.declare(module)

    b = FunctionBuilder(MONITOR_FUNCTION, params=("pkt", "len"))
    short = b.ult(b.param("len"), MIN_MON_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "count", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("count")
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
    estimate = b.call(sketch.extern_name("update"), flow, name="estimate")
    cold = b.ult(estimate, MON_THRESHOLD)
    # The two verdict blocks are deliberately identical in shape (one
    # constant return each): hot and cold price the same, which is what
    # the constant-time audit proves as a zero polynomial.
    b.br(cold, "pass_cold", "flag_hot")

    b.block("pass_cold")
    b.ret(FLAG_COLD)

    b.block("flag_hot")
    b.ret(FLAG_HOT)

    module.add_function(b.build())
    return validate_module(module)


# --------------------------------------------------------------------------- #
# Contract generation and concrete replay glue
# --------------------------------------------------------------------------- #
def monitor_symbolic_inputs() -> Tuple[list, SymbolicMemory, list]:
    """Symbolic initial state of one monitor invocation."""
    memory = SymbolicMemory()
    memory.write_symbolic(PKT_BASE, PKT_SYM_BYTES, "pkt")
    args: list = [Const(PKT_BASE, 64), Sym("len", 64)]
    return args, memory, []


_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than Ethernet+IPv4+ports; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "cold_flow": "estimate below the threshold; passed unremarked",
    "hot_flow": "estimate at/above the threshold; flagged heavy hitter",
}

_VERDICT_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    FLAG_COLD: "cold_flow",
    FLAG_HOT: "hot_flow",
}


def classify_monitor_path(path: Path) -> InputClass:
    """Map one explored monitor path to its input class."""
    assert isinstance(path.returned, Const), "every monitor path returns a verdict"
    name = _VERDICT_CLASSES[path.returned.value]
    return InputClass(name, description=_CLASS_DESCRIPTIONS[name])


def generate_monitor_contract(
    *, config: Optional[BoltConfig] = None
) -> PerformanceContract:
    """Run BOLT end-to-end on the monitor and return its contract."""
    module = build_monitor_module()
    if config is None:
        config = BoltConfig(classifier=classify_monitor_path)
    elif config.classifier is None:
        config.classifier = classify_monitor_path
    sketch = make_sketch()
    bolt = Bolt(
        module,
        MONITOR_FUNCTION,
        model=StructureModel(sketch),
        registry=sketch.registry(),
        config=config,
    )
    args, memory, constraints = monitor_symbolic_inputs()
    return bolt.generate(args, memory=memory, constraints=constraints)


def monitor_replay_env(
    packet: bytes, length: int, trace: ExecutionTrace
) -> Dict[str, int]:
    """Build the symbol assignment a concrete monitor execution matches."""
    return replay_env(packet, PKT_SYM_BYTES, trace, len=length)


# --------------------------------------------------------------------------- #
# Bench harness and workloads
# --------------------------------------------------------------------------- #
def monitor_harness() -> NFHarness:
    """A fresh heavy-hitter monitor wired for replay.

    The sketch's geometry is fixed by this module (the NFIL program and
    the contract bake in the default depth), so smoke and bench share it.
    """
    sketch = make_sketch()
    return NFHarness(
        "monitor",
        build_monitor_module(),
        MONITOR_FUNCTION,
        handler=sketch,
        structures=(sketch,),
        pkt_base=PKT_BASE,
        sym_bytes=PKT_SYM_BYTES,
        scalar_order=("len",),
    )



def _monitor_mixed(
    rng: random.Random, indices: List[int], flows: Sequence[Tuple[int, int]], note: str
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix.

    Every 17th frame is truncated (``short``), every 11th carries a
    non-IPv4 EtherType (``non_ip``); the rest count their flow in the
    sketch (``cold_flow`` until a flow's estimate crosses the threshold,
    ``hot_flow`` after — which the head of a Zipf stream genuinely does).
    """
    stimuli: List[Stimulus] = []
    for n, index in enumerate(indices):
        src_ip, src_port = flows[index]
        if n % 17 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)[: rng.randrange(0, 37)]
        elif n % 11 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        else:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(Stimulus(packet=packet, note=note))
    return stimuli


def monitor_sampled(family: str, seed: int, packets: int) -> Workload:
    """The ``uniform`` or ``zipf`` stream over twelve flows."""
    stimuli = sampled_stimuli(
        family, seed, packets, population=12, draw=draw_flows, mix=_monitor_mixed
    )
    return Workload(family, monitor_harness(), stimuli)


def monitor_adversarial() -> Workload:
    """The monitor worst-case stream — which *has* no cost worst case.

    The sketch contributes no PCVs, so there is no bound to pin; instead
    the stream deterministically forces every verdict and the structure's
    only fast path: one flow is blasted ``counter_max + 1`` times —
    crossing the threshold (``hot_flow``) and saturating its counters, so
    the final update takes the saturated path — then a fresh flow passes
    cold, a runt and a non-IPv4 frame cover the drop classes.
    """
    hot_ip, hot_port = 0xC0A80001, 40001  # 192.168.0.1, the heavy hitter
    hot_frame = nat_frame(hot_ip, hot_port, WAN_SERVER, 80)
    stimuli: List[Stimulus] = [
        Stimulus(packet=hot_frame, note="flood") for _ in range(MON_COUNTER_MAX + 1)
    ]
    stimuli.append(Stimulus(packet=nat_frame(0x0A000001, 12001, WAN_SERVER, 80), note="cold"))
    stimuli.append(Stimulus(packet=hot_frame[:9], note="short"))
    stimuli.append(
        Stimulus(
            packet=nat_frame(hot_ip, hot_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD)),
            note="non_ip",
        )
    )
    return Workload("adversarial", monitor_harness(), tuple(stimuli))


def monitor_scan_sweep(packets: int) -> Workload:
    """A ZMap-style sweep past the monitor: one fresh source per frame.

    No flow repeats, so early estimates stay cold; a long enough sweep
    still heats the sketch through sheer collision mass — exactly the
    false-positive behaviour a count-min sketch trades for its constant
    cost.
    """
    stimuli = [
        Stimulus(packet=nat_frame(0x2D000000 + n, 33333, WAN_SERVER, 80), note="scan")
        for n in range(packets)
    ]
    return Workload("scan_sweep", monitor_harness(), tuple(stimuli))


def monitor_header_flood(packets: int) -> Workload:
    """A crafted-header flood: one flow blasted at line rate.

    The flow crosses the threshold after ``MON_THRESHOLD`` frames and
    saturates its counters at ``counter_max`` — the flood pins every one
    of its row counters to the ceiling, after which updates ride the
    saturated fast path; every 31st frame is a runt.
    """
    frame = nat_frame(0xC6336417, 6667, WAN_SERVER, 80)  # the flooding source
    stimuli = [
        Stimulus(packet=frame[: n % 12], note="runt")
        if n % 31 == 0
        else Stimulus(packet=frame, note="flood")
        for n in range(packets)
    ]
    return Workload("header_flood", monitor_harness(), tuple(stimuli))


SPEC = NFSpec(
    name="monitor",
    title="NF: heavy-hitter monitor",
    smoke_contract=generate_monitor_contract,
    bench_contract=generate_monitor_contract,
    harness=monitor_harness,
    workloads={
        "uniform": lambda seed, packets: monitor_sampled("uniform", seed, packets),
        "zipf": lambda seed, packets: monitor_sampled("zipf", seed, packets),
        "adversarial": lambda seed, packets: monitor_adversarial(),
        "scan_sweep": lambda seed, packets: monitor_scan_sweep(packets),
        "header_flood": lambda seed, packets: monitor_header_flood(packets),
    },
    expected_classes=frozenset({"short", "non_ip", "cold_flow", "hot_flow"}),
    secret_sets=(
        # The count-min sketch is constant-time by construction (no PCVs)
        # and the hot/cold verdict blocks are shape-identical, so the
        # cycle-delta polynomial is literally zero: timing reveals nothing
        # about which flows the monitor considers heavy hitters.
        SecretClassSet(
            "heavy-hitter status",
            ("hot_flow", "cold_flow"),
            "whether a flow is flagged as a heavy hitter (detection-threshold "
            "probing by an attacker pacing their own flows)",
            CONSTANT_TIME,
        ),
    ),
)
