"""The registry of everything the CLI runs: NFs and service graphs.

Each NF registers itself once, as the ``SPEC`` its own module exports
(:class:`repro.nf.workloads.NFSpec`); each service graph as one
:class:`repro.net.workloads.GraphSpec`.  This module only lists them, in
the order the smoke run, the bench and the gates walk them.  Importing it
does not import :mod:`repro.cli`.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.workloads import LB_NAT_FW_ROUTER, LB_NAT_ROUTER, GraphSpec
from repro.nf import bridge, firewall, lb, monitor, nat, router
from repro.nf.workloads import NFSpec

__all__ = ["GRAPH_MATRIX", "NF_MATRIX"]

NF_MATRIX: Tuple[NFSpec, ...] = (
    bridge.SPEC,
    router.SPEC,
    nat.SPEC,
    lb.SPEC,
    firewall.SPEC,
    monitor.SPEC,
)

GRAPH_MATRIX: Tuple[GraphSpec, ...] = (LB_NAT_ROUTER, LB_NAT_FW_ROUTER)
