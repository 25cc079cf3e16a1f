"""Network functions under analysis.

Each NF module provides the stateless NFIL code, a factory for the
:mod:`repro.structures` instances backing its state, and a one-call
contract generator; its module docstring states the NF's input classes,
its (instance-qualified) PCVs, and the workload that provably drives them
to their bounds.  Currently implemented:

* :mod:`repro.nf.bridge` — the MAC learning bridge (paper Table 4), backed
  by an :class:`~repro.structures.ExpiringMap` (PCVs ``bridge_map.t`` /
  ``bridge_map.w`` / ``bridge_map.e``).
* :mod:`repro.nf.router` — a static LPM IPv4 router, backed by an
  :class:`~repro.structures.LpmTrie` (PCV ``rt.d``).
* :mod:`repro.nf.nat` — a VigNAT-style NAT, backed by **two**
  :class:`~repro.structures.ExpiringMap` instances plus a
  :class:`~repro.structures.PortAllocator` (PCVs ``fwd.*`` and ``rev.*``)
  — the multi-instance NF that per-instance PCV namespacing exists for.
* :mod:`repro.nf.lb` — a Maglev-style L4 load balancer, backed by a
  :class:`~repro.structures.MaglevTable` plus an
  :class:`~repro.structures.ExpiringMap` connection table (PCVs
  ``lb_tbl.f`` and ``conn.*``) — the first NF whose dominant cost is a
  control-plane operation (table repopulation on backend churn).

* :mod:`repro.nf.firewall` — a connection-tracking firewall (PCVs
  ``fw_conn.*``).
* :mod:`repro.nf.monitor` — a heavy-hitter monitor over a
  :class:`~repro.structures.CountMinSketch` (no PCVs).

Each NF module also builds its bench harness and its five evaluation
workloads, and registers everything once as its ``SPEC``
(:class:`~repro.nf.workloads.NFSpec`); :mod:`repro.registry` lists the
specs.  Shared replay glue lives in :mod:`repro.nf.replay` (the
:class:`~repro.nf.replay.NFHarness` the traffic replayer drives) and the
shared workload helpers in :mod:`repro.nf.workloads`.

docs/NF_AUTHORING.md is the step-by-step guide to adding an NF, and
docs/STRUCTURES.md its counterpart for structures.
"""

from repro.nf.replay import NFHarness, replay_env
from repro.nf.workloads import NFSpec, Workload
from repro.nf.lb import (
    build_lb_module,
    lb_harness,
    classify_lb_path,
    generate_lb_contract,
    lb_replay_env,
    lb_symbolic_inputs,
    make_lb_state,
)
from repro.nf.bridge import (
    bridge_harness,
    bridge_replay_env,
    bridge_symbolic_inputs,
    build_bridge_module,
    classify_bridge_path,
    generate_bridge_contract,
    make_bridge_table,
)
from repro.nf.nat import (
    build_nat_module,
    classify_nat_path,
    generate_nat_contract,
    make_nat_tables,
    nat_harness,
    nat_replay_env,
    nat_symbolic_inputs,
)
from repro.nf.router import (
    build_router_module,
    classify_router_path,
    generate_router_contract,
    ipv4_packet,
    make_routing_table,
    router_harness,
    router_replay_env,
    router_symbolic_inputs,
)

__all__ = [
    "NFHarness",
    "NFSpec",
    "Workload",
    "bridge_harness",
    "bridge_replay_env",
    "bridge_symbolic_inputs",
    "build_bridge_module",
    "build_lb_module",
    "build_nat_module",
    "build_router_module",
    "classify_bridge_path",
    "classify_lb_path",
    "classify_nat_path",
    "classify_router_path",
    "generate_bridge_contract",
    "generate_lb_contract",
    "generate_nat_contract",
    "generate_router_contract",
    "ipv4_packet",
    "lb_harness",
    "lb_replay_env",
    "lb_symbolic_inputs",
    "make_bridge_table",
    "make_lb_state",
    "make_nat_tables",
    "make_routing_table",
    "nat_harness",
    "nat_replay_env",
    "nat_symbolic_inputs",
    "replay_env",
    "router_harness",
    "router_replay_env",
    "router_symbolic_inputs",
]
