"""Shared workload helpers and the per-NF registration record.

Each NF module (:mod:`repro.nf.bridge`, :mod:`repro.nf.router`, …) builds
its own evaluation streams next to its NFIL program and registers them,
together with its contract generators and harness, in one
:class:`NFSpec` exported as ``SPEC``.  This module holds only what the
NFs share:

* :class:`Workload` — one named stimulus stream bound to a fresh harness
  (state is part of the workload: adversarial streams prime it
  deliberately) plus, for adversarial streams, the instance-qualified PCV
  values the replay must observe for the worst case to count as *hit*;
* :func:`sampled_stimuli` — the uniform and Zipf families, which every NF
  draws from one seeded RNG;
* the collision searches (:func:`colliding_keys` and friends) every
  adversarial stream uses to pin a ``t`` or ``f`` PCV to its bound;
* :func:`worst_case_report`, the bench's hit/missed verdict per PCV.

Every NF registers the same five workload families:

* **uniform** / **zipf** — a sampled key population mixed into frames
  covering every input class;
* **adversarial** — the provably worst-case stream: every PCV of the NF
  driven to the maximum its registry declares;
* **scan_sweep** — a ZMap-style sweep: every frame comes from (or goes
  to) a *distinct* endpoint, an access pattern the hash-collision
  workloads never produce;
* **header_flood** — one fixed (or nearly fixed) header blasted at line
  rate, seasoned with runt frames: it pins *repetition*-driven state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Tuple, TypeVar

from repro.audit.ct import SecretClassSet
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFHarness
from repro.structures import ChainingHashMap, MaglevTable
from repro.traffic.generators import Stimulus, uniform_indices, zipf_indices

__all__ = [
    "NAT_PUBLIC",
    "NFSpec",
    "WAN_CLIENT",
    "WAN_SERVER",
    "Workload",
    "colliding_backends",
    "colliding_keys",
    "colliding_mac_keys",
    "colliding_ports",
    "draw_flows",
    "sampled_stimuli",
    "worst_case_report",
]

#: Fixed WAN-side endpoints of the bench traffic (TEST-NET addresses).
WAN_SERVER = 0xC6336401  # 198.51.100.1, the server internal flows talk to
WAN_CLIENT = 0xCB007163  # 203.0.113.99, the client probing leased ports
NAT_PUBLIC = 0xCB007101  # 203.0.113.1, the NAT's public address


@dataclass(frozen=True)
class Workload:
    """One named stimulus stream bound to a fresh NF harness."""

    name: str
    harness: NFHarness
    stimuli: Tuple[Stimulus, ...]
    #: For adversarial streams: instance-qualified PCV name -> value the
    #: replay must observe (each is that PCV's declared upper bound for
    #: the configured NF), e.g. ``{"fwd.t": 16, "rev.t": 16}``.
    expected_worst: Mapping[str, int] = field(default_factory=dict)


#: A workload factory: ``(seed, packets) -> Workload``.  Streams that are
#: not sampled ignore the seed; fixed-length ones ignore ``packets``.
WorkloadFactory = Callable[[int, int], Workload]


@dataclass(frozen=True)
class NFSpec:
    """One NF's single registration point, exported by its module as ``SPEC``.

    Attributes:
        name: short NF name (bench report key, workload harness name).
        title: section title printed by the smoke/bench runs.
        smoke_contract: contract generator at default geometry (smoke).
        bench_contract: contract generator at the NF's bench geometry.
        harness: a fresh bench-geometry harness; gates and distilled
            views price memory against its structure instances.
        workloads: ordered ``name -> (seed, packets) -> Workload`` map
            whose streams must jointly cover ``expected_classes``; the
            first entry also feeds the tail calibration.
        expected_classes: input classes the contract and the replayed
            workloads must keep covering.
        secret_sets: the class sets ``ct-audit`` proves or refutes
            cycle-indistinguishable, each with its declared expectation.
    """

    name: str
    title: str
    smoke_contract: Callable[[], PerformanceContract]
    bench_contract: Callable[[], PerformanceContract]
    harness: Callable[[], NFHarness]
    workloads: Mapping[str, WorkloadFactory]
    expected_classes: FrozenSet[str]
    secret_sets: Tuple[SecretClassSet, ...] = ()


K = TypeVar("K")


def sampled_stimuli(
    family: str,
    seed: int,
    packets: int,
    *,
    population: int,
    draw: Callable[[random.Random], K],
    mix: Callable[[random.Random, List[int], K, str], List[Stimulus]],
) -> Tuple[Stimulus, ...]:
    """Build the ``uniform`` or ``zipf`` stream of one NF at ``seed``.

    Both families share one ``random.Random(seed)``: ``draw`` picks the
    key material first, then the uniform stream is sampled and mixed into
    frames, then the Zipf stream.  The Zipf stream therefore consumes the
    uniform draws before its own, so a stream depends only on
    ``(family, seed, packets)`` — never on whether its sibling was
    replayed.
    """
    rng = random.Random(seed)
    keys = draw(rng)
    stimuli = mix(rng, uniform_indices(rng, population, packets), keys, "uniform")
    if family == "zipf":
        stimuli = mix(rng, zipf_indices(rng, population, packets), keys, "zipf")
    return tuple(stimuli)


def draw_flows(rng: random.Random) -> List[Tuple[int, int]]:
    """Twelve random ``(source address, source port)`` flows: the key
    population of every flow-keyed NF's sampled streams."""
    return [(rng.randrange(1 << 32), rng.randrange(1024, 1 << 16)) for _ in range(12)]


def colliding_keys(
    count: int, *, buckets: int, start: int = 1, stop: int = 1 << 48
) -> List[int]:
    """Find ``count`` keys in ``[start, stop)`` sharing one hash bucket.

    Keys sharing a bucket of a :class:`ChainingHashMap` pile into one
    chain, so an operation on the chain's tail inspects ``count`` links —
    the lever every map-based adversarial stream uses to pin an
    instance's ``t`` PCV to its declared bound.
    """
    probe = ChainingHashMap("probe", capacity=max(count, 1), buckets=buckets)
    target = probe._hash(start)
    keys: List[int] = []
    candidate = start
    while len(keys) < count:
        if probe._hash(candidate) == target:
            keys.append(candidate)
        candidate += 1
        if candidate >= stop:  # pragma: no cover - defensive
            raise RuntimeError("could not find enough colliding keys")
    return keys


def colliding_mac_keys(capacity: int) -> List[int]:
    """Find ``capacity`` 48-bit keys that share one MAC-table bucket.

    The bridge's table chains inside a :class:`ChainingHashMap` with
    ``capacity`` buckets, so these keys build a single maximal chain and a
    tail lookup inspects ``capacity`` links — the declared maximum of the
    table's ``t`` PCV.
    """
    return colliding_keys(capacity, buckets=capacity)


def colliding_ports(capacity: int, *, start: int = 1024) -> List[int]:
    """Find ``capacity`` 16-bit ports that share one reverse-table bucket.

    Used as the NAT's adversarial lease pool: every leased port chains
    into one bucket of the reverse flow table, so refreshing the last
    lease inspects ``capacity`` links (``rev.t`` at its bound).
    """
    return colliding_keys(capacity, buckets=capacity, start=start, stop=1 << 16)


def colliding_backends(count: int, *, table_size: int) -> List[int]:
    """Find ``count`` backend ids whose Maglev permutations are identical.

    Backend ids sharing one ``(offset, skip)`` pair walk the same slot
    permutation, which makes the round-robin fill perform *exactly* its
    proven worst-case iteration count (see
    :func:`repro.structures.max_fill_iterations`) — the lever the LB
    adversarial stream uses to pin ``lb_tbl.f`` to its declared bound.
    """
    probe = MaglevTable("probe", table_size=table_size, max_backends=max(count, 1))
    target = probe.permutation_params(1)
    ids: List[int] = []
    candidate = 1
    while len(ids) < count:
        if probe.permutation_params(candidate) == target:
            ids.append(candidate)
        candidate += 1
        if candidate >= 1 << 16:  # pragma: no cover - defensive
            raise RuntimeError("could not find enough colliding backend ids")
    return ids


def worst_case_report(
    result_max_pcvs: Mapping[str, int], expected: Mapping[str, int]
) -> Dict[str, Dict[str, object]]:
    """Compare observed PCV maxima against the promised worst case."""
    report: Dict[str, Dict[str, object]] = {}
    for pcv, bound in expected.items():
        observed = result_max_pcvs.get(pcv, 0)
        report[pcv] = {"observed": observed, "bound": bound, "hit": observed >= bound}
    return report
