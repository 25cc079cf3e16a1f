"""A Maglev-style L4 load balancer: the first NF with control-plane costs.

The LB pairs a :class:`~repro.structures.MaglevTable` ``lb_tbl`` (the
consistent-hash backend selector) with an
:class:`~repro.structures.ExpiringMap` ``conn`` (the flow-affinity
connection table), the composition Google's Maglev uses: the connection
table wins when it has a live, still-active binding; the Maglev table
decides for new flows and for flows whose backend was drained.  It is the
first NF whose contract mixes **per-packet** costs (``conn.t`` chain
walks, constant ``lb_tbl`` lookups) with a **control-plane** cost:
backend add/remove frames repopulate the lookup table, and the
repopulation's fill iterations (``lb_tbl.f``) dominate every other term.

State behind externs:

* ``conn_expire`` / ``conn_put`` / ``conn_get`` — connection table,
  PCVs ``conn.w`` / ``conn.e`` / ``conn.t``;
* ``lb_tbl_lookup`` / ``lb_tbl_active`` — per-packet backend selection,
  constant time, no PCVs;
* ``lb_tbl_add`` / ``lb_tbl_remove`` — control-plane repopulation,
  PCV ``lb_tbl.f``.

Inputs: data frames use the classic Ethernet + IPv4 + L4 layout the NAT
parses (EtherType at 12, source address at 26–29, source port at 34–35);
control frames carry ``cmd`` = :data:`CMD_ADD` / :data:`CMD_REMOVE` and
the backend id in ``arg`` and never touch the packet buffer.

Input classes of the generated contract:

===================  ======================================================
``reconfig``         control frame: backend added or removed, table
                     repopulated (the only class charging ``lb_tbl.f``)
``short``            frame shorter than Ethernet+IPv4+ports: dropped
``non_ip``           EtherType is not IPv4: dropped
``new_flow``         no connection-table entry: backend selected via the
                     Maglev table, affinity installed, forwarded
``existing_flow``    live entry to an active backend: refreshed, forwarded
``backend_drained``  live entry to a drained backend: re-selected via the
                     Maglev table, affinity rebound, forwarded
``no_backends``      selection needed but the table is empty: dropped
===================  ======================================================

Worst-case workload: :func:`lb_adversarial` pins all four PCV bounds —
colliding flow keys build a maximal connection-table chain (``conn.t``),
a backend-churn phase over backends with *identical permutations* drives
a repopulation to exactly its proven worst case (``lb_tbl.f``), and a
full-revolution time jump expires the whole connection table in one
sweep (``conn.w`` / ``conn.e``).

The module registers the LB with the CLI, the gates and the docs check
through :data:`SPEC`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.ct import LEAK, SecretClassSet
from repro.core.bolt import Bolt, BoltConfig
from repro.core.contract import PerformanceContract
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.nf.replay import NFHarness, replay_env
from repro.nf.workloads import (
    WAN_SERVER,
    NFSpec,
    Workload,
    colliding_backends,
    colliding_keys,
    draw_flows,
    sampled_stimuli,
)
from repro.nfil.interpreter import ExternHandler
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.nfil.tracer import ExecutionTrace
from repro.nfil.validate import validate_module
from repro.structures import (
    NOT_FOUND,
    ExpiringMap,
    MaglevTable,
    StructureModel,
    max_fill_iterations,
)
from repro.sym import expr as E
from repro.sym.expr import BV, Const, Sym
from repro.sym.paths import Path
from repro.sym.state import SymbolicMemory
from repro.traffic.generators import Stimulus
from repro.traffic.packets import nat_frame

__all__ = [
    "CMD_ADD",
    "CMD_DATA",
    "CMD_REMOVE",
    "CONN_NAME",
    "CTRL_DONE",
    "DROP_NO_BACKENDS",
    "DROP_NON_IP",
    "DROP_SHORT",
    "LB_FUNCTION",
    "MAX_CMD",
    "MIN_LB_FRAME",
    "NOT_FOUND",
    "PKT_BASE",
    "SPEC",
    "TBL_NAME",
    "build_lb_module",
    "classify_lb_path",
    "generate_lb_contract",
    "lb_adversarial",
    "lb_control_stimulus",
    "lb_data_stimulus",
    "lb_harness",
    "lb_registry",
    "lb_replay_env",
    "lb_symbolic_inputs",
    "make_lb_state",
]

#: Entry function of the load balancer.
LB_FUNCTION = "lb_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + minimal IPv4 header + the two L4 port fields.
MIN_LB_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_LB_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: The ``cmd`` scalar: 0 = data frame, 1/2 = control-plane backend churn.
CMD_DATA = 0
CMD_ADD = 1
CMD_REMOVE = 2
#: Valid commands are [0, MAX_CMD).
MAX_CMD = 3

#: Structure instance names (also the PCV namespaces: ``lb_tbl.f``, ``conn.t``).
TBL_NAME = "lb_tbl"
CONN_NAME = "conn"

#: Bench geometry: connection-table capacity and timeout (ticks), Maglev
#: slots (prime) and the backend ceiling.
BENCH_CAPACITY = 16
BENCH_TIMEOUT = 50
BENCH_TABLE_SIZE = 13
BENCH_MAX_BACKENDS = 4

#: Drop/acknowledge codes returned by the LB.
DROP_SHORT = 0xFFC0
DROP_NON_IP = 0xFFC1
DROP_NO_BACKENDS = 0xFFC2
CTRL_DONE = 0xFFC8


def make_lb_state(
    capacity: int = 64,
    timeout: int = 300,
    *,
    table_size: int = 13,
    max_backends: int = 4,
) -> Tuple[MaglevTable, ExpiringMap]:
    """Build the LB's state: Maglev lookup table and connection table.

    Args:
        capacity: live-flow capacity of the connection table.
        timeout: flow-affinity timeout in ticks.
        table_size: Maglev lookup slots (prime).
        max_backends: backend pool ceiling (fixes the ``lb_tbl.f`` bound).
    """
    tbl = MaglevTable(
        TBL_NAME, table_size=table_size, max_backends=max_backends, value_bound=1 << 16
    )
    conn = ExpiringMap(CONN_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 16)
    return tbl, conn


def lb_registry(
    capacity: int = 64,
    timeout: int = 300,
    *,
    table_size: int = 13,
    max_backends: int = 4,
) -> PCVRegistry:
    """PCVs of the LB contract: both instances' namespaced registries."""
    return StructureModel(
        *make_lb_state(capacity, timeout, table_size=table_size, max_backends=max_backends)
    ).registry()


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_lb_module() -> Module:
    """Build (and validate) the load balancer NFIL module."""
    module = Module("lb")
    tbl, conn = make_lb_state()
    for structure in (tbl, conn):
        structure.declare(module)

    b = FunctionBuilder(LB_FUNCTION, params=("pkt", "len", "cmd", "arg", "time"))
    b.call(conn.extern_name("expire"), b.param("time"), void=True)
    is_data = b.eq(b.param("cmd"), CMD_DATA)
    b.br(is_data, "datapath", "control")

    # -- control plane: backend churn repopulates the Maglev table ------- #
    b.block("control")
    is_add = b.eq(b.param("cmd"), CMD_ADD)
    b.br(is_add, "ctrl_add", "ctrl_remove")

    b.block("ctrl_add")
    b.call(tbl.extern_name("add"), b.param("arg"), void=True)
    b.ret(CTRL_DONE)

    b.block("ctrl_remove")
    b.call(tbl.extern_name("remove"), b.param("arg"), void=True)
    b.ret(CTRL_DONE)

    # -- data plane ------------------------------------------------------ #
    b.block("datapath")
    short = b.ult(b.param("len"), MIN_LB_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "parse", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("parse")
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
    cached = b.call(conn.extern_name("get"), flow, name="cached")
    hit = b.ne(cached, NOT_FOUND)
    b.br(hit, "check_alive", "select")

    # Affinity hit: honour it only while the backend still serves traffic.
    b.block("check_alive")
    alive = b.call(tbl.extern_name("active"), cached, name="alive")
    ok = b.ne(alive, 0)
    b.br(ok, "existing", "reselect")

    b.block("existing")
    b.call(conn.extern_name("put"), flow, cached, void=True)
    b.store(b.add(pkt, 0), cached, size=2)  # steer: backend into dst MAC
    b.ret(cached)

    # Affinity to a drained backend: re-select and rebind.
    b.block("reselect")
    fresh = b.call(tbl.extern_name("lookup"), flow, name="fresh")
    refound = b.ne(fresh, NOT_FOUND)
    b.br(refound, "rebind", "drop_no_backends")

    b.block("rebind")
    b.call(conn.extern_name("put"), flow, fresh, void=True)
    b.store(b.add(pkt, 0), fresh, size=2)  # steer: backend into dst MAC
    b.ret(fresh)

    # No affinity: consistent-hash to a backend and install it.
    b.block("select")
    chosen = b.call(tbl.extern_name("lookup"), flow, name="chosen")
    found = b.ne(chosen, NOT_FOUND)
    b.br(found, "bind", "drop_no_backends")

    b.block("bind")
    b.call(conn.extern_name("put"), flow, chosen, void=True)
    b.store(b.add(pkt, 0), chosen, size=2)  # steer: backend into dst MAC
    b.ret(chosen)

    b.block("drop_no_backends")
    b.ret(DROP_NO_BACKENDS)

    module.add_function(b.build())
    return validate_module(module)


# --------------------------------------------------------------------------- #
# Contract generation and concrete replay glue
# --------------------------------------------------------------------------- #
def lb_symbolic_inputs() -> Tuple[List[BV], SymbolicMemory, List[BV]]:
    """Symbolic initial state of one LB invocation.

    The packet bytes are fresh symbols at :data:`PKT_BASE`, the scalars
    are ``len`` / ``cmd`` / ``arg`` / ``time``; the command is assumed
    valid and the backend argument a 16-bit id.
    """
    memory = SymbolicMemory()
    memory.write_symbolic(PKT_BASE, PKT_SYM_BYTES, "pkt")
    cmd = Sym("cmd", 64)
    arg = Sym("arg", 64)
    args: List[BV] = [
        Const(PKT_BASE, 64),
        Sym("len", 64),
        cmd,
        arg,
        Sym("time", 64),
    ]
    constraints = [
        E.ult(cmd, Const(MAX_CMD, 64)),
        E.ult(arg, Const(1 << 16, 64)),
    ]
    return args, memory, constraints


_CLASS_DESCRIPTIONS = {
    "reconfig": "control frame; backend added/removed, table repopulated",
    "short": "frame shorter than Ethernet+IPv4+ports; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "new_flow": "no affinity; backend selected via the Maglev table, bound",
    "existing_flow": "live affinity to an active backend; refreshed",
    "backend_drained": "affinity to a drained backend; re-selected, rebound",
    "no_backends": "selection needed but no backends are active; dropped",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_NO_BACKENDS: "no_backends",
    CTRL_DONE: "reconfig",
}


def classify_lb_path(path: Path) -> InputClass:
    """Map one explored LB path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        name = _DROP_CLASSES[path.returned.value]
    else:
        called = {call.name for call in path.calls}
        if f"{TBL_NAME}_active" in called and f"{TBL_NAME}_lookup" in called:
            name = "backend_drained"
        elif f"{TBL_NAME}_active" in called:
            name = "existing_flow"
        else:
            name = "new_flow"
    return InputClass(name, description=_CLASS_DESCRIPTIONS[name])


def generate_lb_contract(
    capacity: int = 64,
    timeout: int = 300,
    *,
    table_size: int = 13,
    max_backends: int = 4,
    config: Optional[BoltConfig] = None,
) -> PerformanceContract:
    """Run BOLT end-to-end on the load balancer and return its contract."""
    module = build_lb_module()
    if config is None:
        config = BoltConfig(classifier=classify_lb_path)
    elif config.classifier is None:
        config.classifier = classify_lb_path
    model = StructureModel(
        *make_lb_state(capacity, timeout, table_size=table_size, max_backends=max_backends)
    )
    bolt = Bolt(
        module,
        LB_FUNCTION,
        model=model,
        registry=model.registry(),
        config=config,
    )
    args, memory, constraints = lb_symbolic_inputs()
    return bolt.generate(args, memory=memory, constraints=constraints)


def lb_replay_env(
    packet: bytes,
    length: int,
    cmd: int,
    arg: int,
    time: int,
    trace: ExecutionTrace,
) -> Dict[str, int]:
    """Build the symbol assignment a concrete LB execution matches."""
    return replay_env(packet, PKT_SYM_BYTES, trace, len=length, cmd=cmd, arg=arg, time=time)


# --------------------------------------------------------------------------- #
# Bench harness and workloads
# --------------------------------------------------------------------------- #
def lb_bench_contract() -> PerformanceContract:
    """The LB contract at bench geometry."""
    return generate_lb_contract(
        BENCH_CAPACITY,
        BENCH_TIMEOUT,
        table_size=BENCH_TABLE_SIZE,
        max_backends=BENCH_MAX_BACKENDS,
    )


def lb_harness() -> NFHarness:
    """A fresh Maglev-style load balancer at bench geometry, wired for replay.

    Backends arrive through the replayed control frames, never host-side:
    the repopulation cost (``lb_tbl.f``) must land in traces for the
    adversarial bound check to observe it.
    """
    tbl, conn = make_lb_state(
        BENCH_CAPACITY,
        BENCH_TIMEOUT,
        table_size=BENCH_TABLE_SIZE,
        max_backends=BENCH_MAX_BACKENDS,
    )
    handler = ExternHandler().merge(tbl).merge(conn)
    return NFHarness(
        "lb",
        build_lb_module(),
        LB_FUNCTION,
        handler=handler,
        structures=(tbl, conn),
        pkt_base=PKT_BASE,
        sym_bytes=PKT_SYM_BYTES,
        scalar_order=("len", "cmd", "arg", "time"),
    )


def lb_control_stimulus(cmd: int, backend: int, time: int, note: str = "ctrl") -> Stimulus:
    """A control frame: no packet bytes, the command in the scalars.

    Public because the service-graph churn events
    (:mod:`repro.net.churn`) inject exactly these frames mid-stream.
    """
    return Stimulus(packet=b"", scalars={"cmd": cmd, "arg": backend, "time": time}, note=note)


def lb_data_stimulus(packet: bytes, time: int, note: str = "data") -> Stimulus:
    """A data frame: ``cmd = CMD_DATA``, the flow in the packet bytes."""
    return Stimulus(packet=packet, scalars={"cmd": CMD_DATA, "arg": 0, "time": time}, note=note)


def _draw_flows_and_backends(
    rng: random.Random,
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Twelve random LAN flows, then ``max_backends`` random backend ids."""
    flows = draw_flows(rng)
    return flows, rng.sample(range(1, 1 << 16), BENCH_MAX_BACKENDS)


def _lb_mixed(
    rng: random.Random,
    indices: List[int],
    keys: Tuple[Sequence[Tuple[int, int]], Sequence[int]],
    note: str,
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix covering every class.

    Starts by activating every backend (``reconfig``), then streams
    LAN-side flows; every 17th frame is truncated (``short``), every 11th
    carries a non-IPv4 EtherType (``non_ip``), and every 29th is a
    control frame alternately draining and re-activating a rotating
    backend — flows bound to the drained backend re-select on their next
    packet (``backend_drained``).
    """
    flows, backends = keys
    stimuli: List[Stimulus] = [
        lb_control_stimulus(CMD_ADD, backend, 0, note) for backend in backends
    ]
    churn = 0
    for n, index in enumerate(indices):
        src_ip, src_port = flows[index]
        time = n * 3
        if n % 29 == 14:
            backend = backends[(churn // 2) % len(backends)]
            cmd = CMD_REMOVE if churn % 2 == 0 else CMD_ADD
            churn += 1
            stimuli.append(lb_control_stimulus(cmd, backend, time, note))
            continue
        if n % 17 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)[: rng.randrange(0, 37)]
        elif n % 11 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        else:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(lb_data_stimulus(packet, time, note))
    return stimuli


def lb_sampled(family: str, seed: int, packets: int) -> Workload:
    """The ``uniform`` or ``zipf`` stream over twelve flows and random backends."""
    stimuli = sampled_stimuli(
        family, seed, packets, population=12, draw=_draw_flows_and_backends, mix=_lb_mixed
    )
    return Workload(family, lb_harness(), stimuli)


def lb_adversarial() -> Workload:
    """The LB worst-case stream: data-plane *and* control-plane bounds.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``ctrl_fill`` — activate ``max_backends`` backends whose permutation
       parameters all collide: each repopulation performs exactly the
       worst-case fill count for its backend count, and the last one pins
       ``lb_tbl.f`` to its declared (proven-tight) bound.
    2. ``churn`` — drain and re-activate one backend: the removal phase
       the repopulation contract exists for, and the re-add hits the
       ``lb_tbl.f`` bound a second time.
    3. ``fill`` — ``capacity`` flows whose keys collide in the connection
       table are bound, building one maximal chain.
    4. ``worst_t`` — a frame from the *last* bound flow: the affinity
       lookup and refresh walk ``conn.t = capacity`` links.
    5. ``drained`` — the tail flow's backend is drained, then the tail
       flow re-selects and rebinds (class ``backend_drained``).
    6. ``no_backends`` — every remaining backend is drained; a fresh flow
       (select path) and the tail flow (reselect path) are both dropped.
    7. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``conn.w = wheel_slots`` slots and
       expires all ``conn.e = capacity`` affinity entries.
    """
    harness = lb_harness()
    tbl, conn = harness.structures
    wheel_slots = conn.wheel_slots
    backends = colliding_backends(BENCH_MAX_BACKENDS, table_size=BENCH_TABLE_SIZE)
    flows = colliding_keys(BENCH_CAPACITY, buckets=BENCH_CAPACITY)
    flow_set = set(flows)

    stimuli: List[Stimulus] = [
        lb_control_stimulus(CMD_ADD, backend, 0, "ctrl_fill") for backend in backends
    ]
    stimuli.append(lb_control_stimulus(CMD_REMOVE, backends[0], 0, "churn"))
    stimuli.append(lb_control_stimulus(CMD_ADD, backends[0], 0, "churn"))
    for i, key in enumerate(flows, start=1):
        stimuli.append(
            lb_data_stimulus(nat_frame(key >> 16, key & 0xFFFF, WAN_SERVER, 80), i, "fill")
        )
    tail = flows[-1]
    last = len(flows)
    tail_frame = nat_frame(tail >> 16, tail & 0xFFFF, WAN_SERVER, 80)
    stimuli.append(lb_data_stimulus(tail_frame, last, "worst_t"))
    # Reconstruct the tail flow's backend on a scratch table (repopulation
    # is deterministic in the active set) and drain exactly that backend.
    scratch = MaglevTable(
        "scratch", table_size=BENCH_TABLE_SIZE, max_backends=BENCH_MAX_BACKENDS
    )
    for backend in backends:
        scratch.add_backend(backend)
    drained = scratch.select(tail)
    stimuli.append(lb_control_stimulus(CMD_REMOVE, drained, last, "drained"))
    stimuli.append(lb_data_stimulus(tail_frame, last, "drained"))
    for backend in backends:
        if backend != drained:
            stimuli.append(lb_control_stimulus(CMD_REMOVE, backend, last, "no_backends"))
    fresh = next(k for k in range(1, 1 << 16) if k not in flow_set)
    fresh_frame = nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, 80)
    stimuli.append(lb_data_stimulus(fresh_frame, last, "no_backends"))
    stimuli.append(lb_data_stimulus(tail_frame, last, "no_backends"))
    # Latest deadline: the rebind at time `last` plus the timeout.  Jumping
    # past it by a full revolution makes the sweep advance wheel_slots
    # slots and visit every deadline slot.
    doom = last + BENCH_TIMEOUT + wheel_slots + 1
    stimuli.append(lb_data_stimulus(fresh_frame, doom, "worst_e"))
    return Workload(
        "adversarial",
        harness,
        tuple(stimuli),
        expected_worst={
            conn.pcv_name("t"): BENCH_CAPACITY,
            conn.pcv_name("e"): BENCH_CAPACITY,
            conn.pcv_name("w"): wheel_slots,
            tbl.pcv_name("f"): max_fill_iterations(BENCH_MAX_BACKENDS, BENCH_TABLE_SIZE),
        },
    )


def _lb_fixed_stream(name: str, frames: List[Stimulus]) -> Workload:
    """Activate ``max_backends`` fixed, distinct backends, then ``frames``."""
    stimuli = [
        lb_control_stimulus(CMD_ADD, 101 + 97 * i, 0, "ctrl") for i in range(BENCH_MAX_BACKENDS)
    ]
    return Workload(name, lb_harness(), tuple(stimuli + frames))


def lb_scan_sweep(packets: int) -> Workload:
    """A ZMap-style sweep through the VIP: one fresh flow per frame.

    Every frame selects and binds a brand-new flow (the ``new_flow``
    path, back to back), churning the connection table without a single
    repeat — affinity buys nothing under a scanner.
    """
    frames = [
        lb_data_stimulus(nat_frame(0x2D000000 + n, 33333, WAN_SERVER, 80), n, "scan")
        for n in range(packets)
    ]
    return _lb_fixed_stream("scan_sweep", frames)


def lb_header_flood(packets: int) -> Workload:
    """A crafted-header flood: one flow hammering the VIP at line rate.

    The first data frame binds the flow; every later one rides the
    affinity fast path (``existing_flow``), refreshed far faster than it
    can expire; every 17th frame is a runt.
    """
    frame = nat_frame(0x0A0A0A0A, 55555, WAN_SERVER, 80)
    frames = [
        lb_data_stimulus(frame[: n % 12] if n % 17 == 3 else frame, n, "flood")
        for n in range(packets)
    ]
    return _lb_fixed_stream("header_flood", frames)


SPEC = NFSpec(
    name="lb",
    title="NF: Maglev-style load balancer",
    smoke_contract=generate_lb_contract,
    bench_contract=lb_bench_contract,
    harness=lb_harness,
    workloads={
        "uniform": lambda seed, packets: lb_sampled("uniform", seed, packets),
        "zipf": lambda seed, packets: lb_sampled("zipf", seed, packets),
        "adversarial": lambda seed, packets: lb_adversarial(),
        "scan_sweep": lambda seed, packets: lb_scan_sweep(packets),
        "header_flood": lambda seed, packets: lb_header_flood(packets),
    },
    expected_classes=frozenset(
        {
            "short",
            "non_ip",
            "reconfig",
            "new_flow",
            "existing_flow",
            "backend_drained",
            "no_backends",
        }
    ),
    secret_sets=(
        SecretClassSet(
            "connection affinity",
            ("new_flow", "existing_flow"),
            "whether a flow already has backend affinity (connection-table oracle)",
            LEAK,
        ),
    ),
)
