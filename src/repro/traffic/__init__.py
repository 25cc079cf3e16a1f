"""Traffic workloads and the measured-vs-predicted replay harness (§5).

The evaluation half of the reproduction: packet construction helpers
(:mod:`repro.traffic.packets`), deterministic uniform/Zipf key samplers
(:mod:`repro.traffic.generators`) and the MoonGen-role
:class:`~repro.traffic.replayer.Replayer`, which drives an NF through the
concrete interpreter/tracer and checks every execution — counts and
model-derived cycles — against its performance contract.

Adversarial worst-case streams are NF-specific and live in
:mod:`repro.nf.workloads`.  Capture-derived workloads come from
:mod:`repro.traffic.pcap`, a dependency-free classic-libpcap reader and
writer with adapters that turn a capture into stimulus streams (and loop
small fixtures into long, monotonic-clock benches).
"""

from repro.traffic.generators import Stimulus, uniform_indices, zipf_indices, zipf_weights
from repro.traffic.pcap import (
    Capture,
    CapturedPacket,
    LINKTYPE_ETHERNET,
    PcapFormatError,
    capture_stimuli,
    capture_ticks,
    read_pcap,
    sample_capture,
    write_pcap,
)
from repro.traffic.packets import (
    ETHERNET_HEADER,
    ETHERTYPE_IPV4,
    IPV4_MIN_FRAME,
    NAT_MIN_FRAME,
    ethernet_frame,
    ipv4_address,
    ipv4_frame,
    mac_bytes,
    nat_frame,
)
from repro.traffic.replayer import (
    ClassSummary,
    NFTarget,
    PacketOutcome,
    Replayer,
    ReplayResult,
    TAIL_PERCENTILES,
)

__all__ = [
    "Capture",
    "CapturedPacket",
    "ClassSummary",
    "ETHERNET_HEADER",
    "ETHERTYPE_IPV4",
    "IPV4_MIN_FRAME",
    "LINKTYPE_ETHERNET",
    "NAT_MIN_FRAME",
    "NFTarget",
    "PacketOutcome",
    "PcapFormatError",
    "ReplayResult",
    "Replayer",
    "Stimulus",
    "TAIL_PERCENTILES",
    "capture_stimuli",
    "capture_ticks",
    "ethernet_frame",
    "ipv4_address",
    "ipv4_frame",
    "mac_bytes",
    "nat_frame",
    "read_pcap",
    "sample_capture",
    "uniform_indices",
    "write_pcap",
    "zipf_indices",
    "zipf_weights",
]
