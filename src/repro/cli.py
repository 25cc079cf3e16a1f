"""Command-line entry points: contract validation and the evaluation bench.

``python -m repro.cli [smoke]``
    Runs the full pipeline for everything shipped in the repository and
    prints the artefacts a human (or a CI log reader) needs to spot a
    regression in generated bounds: every library structure's
    hand-derived per-operation contract cross-validated against Bolt, and
    the generated contracts of every NF with per-path feasibility.

``python -m repro.cli bench``
    Closes the evaluation loop (§5 of the paper): for every NF in
    :data:`NF_MATRIX`, replays its registered workloads (uniform, Zipf,
    adversarial, scan sweep, header flood), derives cycle predictions
    under the conservative, realistic and cache-simulated hardware
    models, asserts **measured ≤ predicted on every packet** (counts and
    cycles) — which, by sorted dominance, also keeps every class's
    measured p50/p95/p99 cycle tails under the predicted envelopes the
    report records beside them — checks that the adversarial
    streams actually drive every instance-qualified PCV to its declared
    bound, and writes the whole record to a ``BENCH_*.json`` CI archives
    as an artifact.
    ``--models`` restricts the cycle pricing to named hardware models.

    The bench is throughput-grade: each row (an NF or a service graph) is
    one independent job that generates the row's contract once and builds
    each workload only when it replays it, from a per-cell seed, so the
    rows fan out across a ``--workers``-sized process pool (default: all
    CPUs) and the report is bit-identical for every worker count.  Cells
    record their wall clock and replay rate; ``--profile`` runs one row
    under cProfile instead of the full matrix.  Alongside the per-NF rows
    the bench replays every registered *service graph*
    (:data:`GRAPH_MATRIX`) end to end — per-hop and composed-route checks,
    with mid-stream churn — into ``report["graphs"]``; ``--nf`` / ``--graph``
    restrict the matrix to named rows and write a partial report.

``python -m repro.cli graph``
    Replays the registered service graphs on their own (see
    :mod:`repro.net`): a pcap-derived stream enters the graph's entry
    node, every hop is scored against that NF's contract, every complete
    journey against the composed route contract, and the churn schedule
    reconfigures the deployment mid-stream.  Exits non-zero on any
    violation or on missing per-hop class coverage.

``python -m repro.cli contract-diff``
    The regression gate: regenerates every NF's bench-geometry contract
    plus every service graph's composed contract and diffs them (term by
    term, exact Fractions) against the golden snapshots checked in under
    ``tests/golden/``.  Exits non-zero on any drift, naming the drifted
    classes and the derived-cycle consequence under every hardware model.
    NF goldens carry the calibrated p50/p95/p99 tail columns (schema
    ``repro-contract/2``), so a tail regression is drift like any other.
    ``--update`` regenerates the goldens — the acknowledgement step for
    an intentional bound change.

``python -m repro.cli ct-audit``
    The constant-time audit: for every NF's declared secret-dependent
    class sets (its ``SPEC.secret_sets``), proves
    cycle-indistinguishability under every hardware model (polynomial
    identity) or reports the leaking class pair with its symbolic cycle
    delta and a concrete witness.  Proven-constant-time pairs whose
    *measured tail distributions* nonetheless diverge under the cache
    simulator get an informational note (cache-state variance is not a
    contract leak, but a remote observer may still see it).  Exits
    non-zero when a computed verdict contradicts its declared expectation
    (``--strict``: on any leak).

The smoke structures (:func:`smoke_structures`), the NF matrix
(:data:`NF_MATRIX`) and the graph matrix (:data:`GRAPH_MATRIX`) are
module-level registries.  Each NF registers itself once, as the ``SPEC``
its own module exports (geometry, contract generators, harness,
workloads, expected classes, secret class sets); :mod:`repro.registry`
lists the specs, so adding an NF or a graph means appending one entry
there, and ``tools/check_docs.py`` walks the same registries to keep the
documentation in sync with what actually runs.

Both commands print section by section as output is produced, so even a
crash mid-run leaves the already-validated tables in the job log, and exit
non-zero on any failure so CI fails loudly instead of shipping
silently-changed bounds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import zlib
from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import repro.structures as structures_pkg
from repro.audit import audit_contract
from repro.core import Distiller, diff_contracts, dump_contract, load_contract
from repro.core.contract import TAIL_METRICS, PerformanceContract
from repro.core.perfexpr import PerfExpr
from repro.hw import (
    ConservativeModel,
    CycleModel,
    RealisticModel,
    SimulatedModel,
    model_to_json,
)
from repro.net.replay import GraphReplayer
from repro.nf.workloads import NFSpec, worst_case_report
from repro.registry import GRAPH_MATRIX, NF_MATRIX
from repro.structures import (
    ChainingHashMap,
    CountMinSketch,
    ExpiringMap,
    LpmTrie,
    MaglevTable,
    PortAllocator,
    Structure,
    StructureContractError,
    validate_structure_contract,
)
from repro.sym.solver import Solver
from repro.traffic import Replayer
from repro.traffic.replayer import TAIL_PERCENTILES

#: Bench defaults: per-workload packet budget, seed and report path.
BENCH_PACKETS = 10_000
BENCH_SEED = 2019
BENCH_OUTPUT = "BENCH_eval.json"
#: Packets replayed per NF by the deterministic tail-calibration pass
#: that derives the golden contracts' p50/p95/p99 cycle columns.
TAIL_CALIBRATION_PACKETS = 400
#: Default stream length for the standalone ``graph`` subcommand (the
#: bench replays graphs at the full ``--packets`` budget).
GRAPH_PACKETS = 1_000
#: Where the golden contract snapshots live (``contract-diff`` default).
GOLDEN_DIR = os.path.join("tests", "golden")

#: Every CLI subcommand with its exit-code semantics, in registration
#: order.  ``tools/check_docs.py`` walks this to require a README row per
#: subcommand, so adding one here without documenting it fails CI.
SUBCOMMANDS: Tuple[Tuple[str, str], ...] = (
    ("smoke", "0 = every contract validates; 1 = any validation failure"),
    (
        "bench",
        "0 = measured <= predicted everywhere and every bound hit; "
        "1 = violation or missed worst case; 2 = unknown --nf/--graph row",
    ),
    ("graph", "0 = clean end-to-end replay; 1 = violation or missing coverage; 2 = unknown graph"),
    (
        "contract-diff",
        "0 = no drift against the goldens; 1 = any bound drift; "
        "2 = missing golden or unknown name",
    ),
    (
        "ct-audit",
        "0 = every verdict matches its declared expectation; "
        "1 = unexpected leak/proof (or any leak with --strict); 2 = unknown NF",
    ),
)


def smoke_structures() -> List[Structure]:
    """One representative instance per library structure, for the smoke run."""
    return [
        ChainingHashMap("flow_map", capacity=64, value_bound=64),
        ExpiringMap("mac_table", capacity=64, timeout=300, value_bound=64),
        LpmTrie("fib", value_bound=64),
        PortAllocator("nat_ports", pool=range(49152, 49216)),
        MaglevTable("lb_tbl", table_size=13, max_backends=4, value_bound=1 << 16),
        CountMinSketch("flow_sketch", depth=4, width=32, counter_max=255),
    ]


def _section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


# --------------------------------------------------------------------------- #
# smoke: structure + contract validation
# --------------------------------------------------------------------------- #
def run_structure_validation(structures: Optional[Sequence[Structure]] = None) -> int:
    """Validate every library structure's contract against Bolt.

    With the default list, also guard against a structure being added to
    the library but forgotten here: every exported Structure subclass must
    be smoke-validated.  (An explicit ``structures`` list skips the guard;
    the caller owns coverage then.)
    """
    failures = 0
    if structures is None:
        structures = smoke_structures()
        exported = {
            cls
            for name in structures_pkg.__all__
            if isinstance(cls := getattr(structures_pkg, name), type)
            and issubclass(cls, Structure)
            and cls is not Structure
        }
        covered = {type(structure) for structure in structures}
        if exported - covered:
            missing = sorted(cls.__name__ for cls in exported - covered)
            print(f"FAIL: structures not covered by the smoke run: {missing}")
            failures += 1
    for structure in structures:
        _section(f"structure {structure.name} ({structure.kind})")
        print(structure.operation_contract().render())
        try:
            checks = validate_structure_contract(structure)
        except StructureContractError as error:
            failures += 1
            print(f"FAIL: {error}")
            continue
        for check in checks:
            overhead = ", ".join(
                f"{metric}+{int(constant)}" for metric, constant in check.driver_overhead.items()
            )
            print(f"  {check.method}: Bolt agrees (driver overhead {overhead})")
    return failures


def run_nf_contracts(specs: Optional[Sequence[NFSpec]] = None) -> int:
    """Generate and render every NF contract; check their input classes."""
    failures = 0
    before = replace(Solver.TOTALS)
    for spec in NF_MATRIX if specs is None else specs:
        _section(spec.title)
        contract = spec.smoke_contract()
        print(contract.render())
        feasibility = {path.feasibility for entry in contract for path in entry.paths}
        print(f"path feasibility: {sorted(feasibility)}")
        missing = spec.expected_classes - set(contract.class_names())
        if missing:
            failures += 1
            print(f"FAIL: contract lost input classes {sorted(missing)}")
    # Each generator builds its own solver; the class-level aggregate is
    # how the memoisation layer stays observable from out here.
    totals = Solver.TOTALS
    print(
        "\nsolver cache across contract generation: "
        f"{totals.cache_hits - before.cache_hits} hits, "
        f"{totals.cache_misses - before.cache_misses} misses, "
        f"{totals.dedup_dropped - before.dedup_dropped} duplicates dropped, "
        f"{totals.simplify_reused - before.simplify_reused} simplifications reused"
    )
    return failures


def run_smoke() -> int:
    failures = run_structure_validation()
    failures += run_nf_contracts()
    print()
    print("SMOKE FAILED" if failures else "SMOKE OK")
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# bench: measured vs predicted under workloads and hardware models
# --------------------------------------------------------------------------- #
def _bench_models(names: Optional[Sequence[str]] = None) -> List[CycleModel]:
    """Fresh hardware-model instances for one bench cell (or gate run).

    Fresh per call because the simulated model carries cache state: a
    shared instance would leak one cell's working set into the next cell
    and break the report's worker-count bit-identity.  ``names`` filters
    the set (the ``--models`` flag); ``None`` means all three.
    """
    models: List[CycleModel] = [ConservativeModel(), RealisticModel(), SimulatedModel()]
    if names is None:
        return models
    selected = set(names)
    return [model for model in models if model.name in selected]


def _cell_seed(seed: int, row_name: str, workload_name: str) -> int:
    """Derive one bench cell's workload seed.

    A cell's stimuli depend only on the bench seed and the cell's own
    identity — never on which worker ran it or in what order — so the
    report is bit-identical for every ``--workers`` value.
    """
    return zlib.crc32(f"{seed}:{row_name}:{workload_name}".encode()) & 0x7FFFFFFF


def _replay_lines(result, wall: float, hops: str = "") -> List[str]:
    """The terminal lines of one replayed cell: table, rate, violations."""
    lines = [
        "",
        result.table(),
        f"  throughput: {result.packets} packets{hops} in {wall:.3f}s "
        f"({result.packets / wall:,.0f} pkt/s)",
    ]
    return lines + [f"FAIL: {message}" for message in result.violations[:10]]


def _timed_payload(result, wall: float) -> Dict[str, object]:
    payload = result.to_json()
    payload["wall_clock_s"] = round(wall, 6)
    payload["packets_per_sec"] = round(result.packets / wall, 3)
    return payload


def _nf_row(name: str, seed: int, packets: int, model_names: Tuple[str, ...]) -> Dict[str, object]:
    """Run one NF's bench row; return its report record and terminal text.

    The row generates its contract once and builds each workload only
    when it replays it.  Runs in a pool worker: everything destined for
    the terminal comes back as ``text`` so the parent prints rows in
    matrix order regardless of completion order.
    """
    spec = next(spec for spec in NF_MATRIX if spec.name == name)
    contract = spec.bench_contract()
    workloads: Dict[str, object] = {}
    lines: List[str] = []
    classes_seen: Set[str] = set()
    failures = 0
    total = 0
    for workload_name, build in spec.workloads.items():
        workload = build(_cell_seed(seed, name, workload_name), packets)
        started = time.perf_counter()
        result = Replayer(workload.harness, contract, models=_bench_models(model_names)).replay(
            workload.stimuli, workload=workload.name
        )
        wall = max(time.perf_counter() - started, 1e-9)
        failures += len(result.violations)
        lines += _replay_lines(result, wall)
        payload = _timed_payload(result, wall)
        if workload.expected_worst:
            worst = worst_case_report(result.max_pcvs, workload.expected_worst)
            payload["worst_case"] = worst
            for pcv, check in worst.items():
                status = "hit" if check["hit"] else "MISSED"
                lines.append(
                    f"  adversarial worst case for {pcv}: observed "
                    f"{check['observed']} / bound {check['bound']} -> {status}"
                )
                if not check["hit"]:
                    failures += 1
        workloads[workload_name] = payload
        classes_seen.update(cls for cls in result.classes_seen() if cls != "<unclassified>")
        total += result.packets
    missing = spec.expected_classes - classes_seen
    if missing:
        failures += 1
        lines.append(f"FAIL: {name} workloads never exercised classes {sorted(missing)}")
    # Show what the hardware models make of the contract, distilled.
    structures = tuple(spec.harness().structures)
    for model in _bench_models(model_names):
        lines += ["", Distiller(contract).distill_cycles(model, structures=structures).render()]
    record = {
        "contract_classes": contract.class_names(),
        "workloads": workloads,
        "classes_seen": sorted(classes_seen),
        "failures": failures,
    }
    return {"record": record, "text": "\n".join(lines), "failures": failures, "packets": total}


def _graph_row(
    name: str, seed: int, packets: int, model_names: Tuple[str, ...]
) -> Dict[str, object]:
    """Run one service graph's bench row: end-to-end replay with churn.

    Violations at *either* level — a hop exceeding its own contract, or a
    journey exceeding the composed route bound — and missing per-hop
    class coverage all count as failures.
    """
    spec = next(spec for spec in GRAPH_MATRIX if spec.name == name)
    workloads: Dict[str, object] = {}
    lines: List[str] = []
    hop_classes: Dict[str, Set[str]] = {}
    failures = 0
    total = 0
    for workload in spec.bench_workloads(seed, packets):
        started = time.perf_counter()
        replayer = GraphReplayer(workload.graph, models=_bench_models(model_names))
        result = replayer.replay(
            workload.stream, schedule=workload.schedule, workload=workload.name
        )
        wall = max(time.perf_counter() - started, 1e-9)
        failures += len(result.violations)
        lines += _replay_lines(result, wall, f" ({result.hop_executions} hop executions)")
        seen = result.hop_classes_seen()
        for node, expected in sorted(workload.expected_hop_classes.items()):
            missing = sorted(set(expected) - set(seen.get(node, [])))
            if missing:
                failures += 1
                lines.append(f"FAIL: hop {node!r} never exercised classes {missing}")
        for node, classes in seen.items():
            hop_classes.setdefault(node, set()).update(classes)
        workloads[workload.name] = _timed_payload(result, wall)
        total += result.packets
    record = {
        "workloads": workloads,
        "hop_classes_seen": {
            node: sorted(classes) for node, classes in sorted(hop_classes.items())
        },
        "failures": failures,
    }
    return {"record": record, "text": "\n".join(lines), "failures": failures, "packets": total}


def _run_rows(
    nf_names: List[str], graph_names: List[str], workers: int, **row_args
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Run bench rows, fanning out across processes when it can help.

    Fork is required (not just preferred): workers must see the parent's
    live registry — tests swap :data:`NF_MATRIX` for doctored specs — and
    a spawned interpreter would re-import the pristine module.  Without
    fork (or with one worker) the rows run inline, in order.
    """
    nf_row = partial(_nf_row, **row_args)
    graph_row = partial(_graph_row, **row_args)
    jobs = len(nf_names) + len(graph_names)
    if workers > 1 and jobs > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(min(workers, jobs)) as pool:
            nf_rows = pool.map_async(nf_row, nf_names, chunksize=1)
            graph_rows = pool.map_async(graph_row, graph_names, chunksize=1)
            return nf_rows.get(), graph_rows.get()
    return [nf_row(name) for name in nf_names], [graph_row(name) for name in graph_names]


def _profile_row(title: str, row: Callable[[], Dict[str, object]]) -> int:
    """Run one bench row under cProfile; print the top cumulative entries."""
    import cProfile
    import pstats

    _section(f"profile: {title}")
    profiler = cProfile.Profile()
    profiler.enable()
    result = row()
    profiler.disable()
    print(result["text"])
    print()
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(20)
    return 0


def run_bench(
    *,
    output: str = BENCH_OUTPUT,
    packets: int = BENCH_PACKETS,
    seed: int = BENCH_SEED,
    workers: Optional[int] = None,
    profile: bool = False,
    nfs: Optional[Sequence[str]] = None,
    graphs: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
) -> int:
    """Replay every NF and service graph; write the BENCH_*.json report.

    ``nfs`` / ``graphs`` restrict the matrix to the named rows (the
    ``--nf`` / ``--graph`` flags): naming either makes the run *partial*
    — only named rows of either kind execute, and the report records the
    filters so consumers can tell a partial artifact from a full one.
    ``models`` (the ``--models`` flag) restricts the cycle pricing to
    the named hardware models; counts are checked regardless.
    """
    started = time.perf_counter()
    workers = workers if workers is not None else os.cpu_count() or 1
    known_models = {model.name for model in _bench_models()}
    unknown_models = sorted(set(models or ()) - known_models)
    if unknown_models:
        print(f"FAIL: unknown hardware models {unknown_models} (known: {sorted(known_models)})")
        return 2
    selected_models = _bench_models(models)
    model_names = tuple(model.name for model in selected_models)
    unknown = sorted(set(nfs or ()) - {spec.name for spec in NF_MATRIX})
    unknown += sorted(set(graphs or ()) - {spec.name for spec in GRAPH_MATRIX})
    if unknown:
        print(f"FAIL: unknown bench rows {unknown}")
        return 2
    filtered = nfs is not None or graphs is not None
    nf_selected = [
        spec for spec in NF_MATRIX if not filtered or (nfs and spec.name in set(nfs))
    ]
    graph_selected = [
        spec for spec in GRAPH_MATRIX if not filtered or (graphs and spec.name in set(graphs))
    ]
    if not nf_selected and not graph_selected:
        print("FAIL: the --nf/--graph filters selected no bench rows")
        return 2
    row_args = dict(seed=seed, packets=packets, model_names=model_names)
    if profile:
        name = nf_selected[0].name if nf_selected else graph_selected[0].name
        row = _nf_row if nf_selected else _graph_row
        return _profile_row(f"{name} at {packets} packets", partial(row, name, **row_args))
    nf_rows, graph_rows = _run_rows(
        [spec.name for spec in nf_selected],
        [spec.name for spec in graph_selected],
        workers,
        **row_args,
    )

    report: Dict[str, object] = {
        "schema": "repro-bench/1",
        "command": "python -m repro.cli bench",
        "seed": seed,
        "packets_per_workload": packets,
        "filters": {
            "nfs": sorted(nfs or ()),
            "graphs": sorted(graphs or ()),
            "models": sorted(models or ()),
        },
        "hw_models": {model.name: model_to_json(model) for model in selected_models},
        "nfs": {},
        "graphs": {},
    }
    failures = 0
    total_packets = 0
    for kind, prefix, specs, rows in (
        ("nfs", "NF: ", nf_selected, nf_rows),
        ("graphs", "graph: ", graph_selected, graph_rows),
    ):
        for spec, row in zip(specs, rows):
            _section(f"bench: {spec.title.removeprefix(prefix)}")
            print(row["text"])
            report[kind][spec.name] = row["record"]  # type: ignore[index]
            failures += row["failures"]  # type: ignore[operator]
            total_packets += row["packets"]  # type: ignore[operator]

    elapsed = max(time.perf_counter() - started, 1e-9)
    # Timing lives under one key so consumers comparing reports across
    # worker counts can drop the only legitimately varying subtree.
    report["timing"] = {
        "packets_total": total_packets,
        "packets_per_sec": round(total_packets / elapsed, 3),
        "wall_clock_s": round(elapsed, 6),
        "workers": workers,
    }
    report["ok"] = failures == 0
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(
        f"replayed {total_packets} packets in {elapsed:.2f}s "
        f"({total_packets / elapsed:,.0f} pkt/s, workers={workers})"
    )
    print(f"wrote {output}")
    print("BENCH FAILED" if failures else "BENCH OK: measured <= predicted on every packet")
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# graph: standalone end-to-end service-graph replay
# --------------------------------------------------------------------------- #
def run_graph(
    *,
    graph: Optional[str] = None,
    packets: int = GRAPH_PACKETS,
    seed: int = BENCH_SEED,
    output: Optional[str] = None,
) -> int:
    """Replay the registered service graphs end to end, with churn.

    Prints each graph's per-route table, throughput and the head of its
    churn log; optionally writes the full per-workload payloads to
    ``output``.  Exits non-zero on any per-hop or end-to-end violation,
    or when a hop misses its expected input-class coverage.
    """
    specs = [spec for spec in GRAPH_MATRIX if graph is None or spec.name == graph]
    if not specs:
        known = ", ".join(spec.name for spec in GRAPH_MATRIX)
        print(f"FAIL: unknown graph {graph!r} (registered: {known})")
        return 2
    failures = 0
    report: Dict[str, object] = {}
    model_names = tuple(model.name for model in _bench_models())
    for spec in specs:
        _section(spec.title)
        row = _graph_row(spec.name, seed=seed, packets=packets, model_names=model_names)
        print(row["text"])
        workloads = row["record"]["workloads"]  # type: ignore[index]
        for payload in workloads.values():
            churn = payload["churn"]
            for line in churn["log"][:8]:
                print(f"  churn {line}")
            if churn["events"] > 8:
                print(f"  ... {churn['events'] - 8} more churn events")
        failures += row["failures"]  # type: ignore[operator]
        report[spec.name] = workloads
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {output}")
    print()
    print(
        "GRAPH FAILED"
        if failures
        else "GRAPH OK: measured <= predicted at every hop and end to end"
    )
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# contract-diff: golden-contract regression gate
# --------------------------------------------------------------------------- #
def _simulated_calibration(spec: NFSpec, contract: PerformanceContract):
    """Replay one NF's calibration stream under the cache simulator.

    The stream is a pure function of the bench seed and the NF's name —
    the NF's first registered workload, built at a dedicated ``<tails>``
    seed and :data:`TAIL_CALIBRATION_PACKETS` packets — so every caller
    (golden regeneration, golden diffing, the ct-audit note) observes
    the identical per-class cycle distributions.

    Returns:
        ``(model, result)``: the fresh :class:`~repro.hw.SimulatedModel`
        the replay priced cycles under, and its
        :class:`~repro.traffic.ReplayResult`.
    """
    calibration = next(iter(spec.workloads.values()))
    workload = calibration(
        _cell_seed(BENCH_SEED, spec.name, "<tails>"), TAIL_CALIBRATION_PACKETS
    )
    model = SimulatedModel()
    result = Replayer(workload.harness, contract, models=[model]).replay(
        workload.stimuli, workload=workload.name
    )
    return model, result


def _attach_tail_columns(spec: NFSpec, contract: PerformanceContract) -> None:
    """Attach the p50/p95/p99 cycle columns to an NF's gate contract.

    Each exercised class's column is the nearest-rank percentile of the
    calibration replay's *predicted* per-packet cycle population under
    the cache simulator — the same envelope the bench holds measured
    tails under — recorded as an exact constant expression.  Classes the
    calibration stream never reaches keep no tail columns (an empty
    population has no percentiles).
    """
    model, result = _simulated_calibration(spec, contract)
    scale = result.cycle_scale
    for index, entry in enumerate(contract.entries):
        summary = result.summaries.get(entry.input_class.name)
        if summary is None:
            continue
        envelope = summary.cycle_tail_envelopes.get(model.name)
        if not envelope:
            continue
        exprs = dict(entry.exprs)
        for metric, percentile in zip(TAIL_METRICS, TAIL_PERCENTILES):
            exprs[metric] = PerfExpr.constant(Fraction(envelope[percentile], scale))
        contract.entries[index] = replace(entry, exprs=exprs)


def _gate_targets(
    names: Optional[Sequence[str]] = None,
) -> List[Tuple[str, PerformanceContract, Tuple[Structure, ...]]]:
    """Regenerate every gated contract at bench geometry.

    One target per NF in :data:`NF_MATRIX` (its bench contract, with the
    calibrated tail columns attached) plus one per service graph in
    :data:`GRAPH_MATRIX` (its *composed* contract, one entry per
    reachable route; route populations mix per-hop classes, so composed
    contracts stay tail-free).  Each target ships the structure
    instances behind its PCVs so cycle deltas price memory per owner.
    """
    selected = set(names) if names else None
    targets: List[Tuple[str, PerformanceContract, Tuple[Structure, ...]]] = []
    for spec in NF_MATRIX:
        if selected is not None and spec.name not in selected:
            continue
        contract = spec.bench_contract()
        _attach_tail_columns(spec, contract)
        targets.append((spec.name, contract, tuple(spec.harness().structures)))
    for graph_spec in GRAPH_MATRIX:
        if selected is not None and graph_spec.name not in selected:
            continue
        graph = graph_spec.graph()
        targets.append((graph_spec.name, graph.compose(), graph.structures()))
    return targets


def run_contract_diff(
    *,
    golden_dir: str = GOLDEN_DIR,
    update: bool = False,
    names: Optional[Sequence[str]] = None,
) -> int:
    """Diff freshly generated contracts against the checked-in goldens.

    With ``--update``, (re)write the goldens instead — the acknowledgement
    step for an *intentional* bound change.  Exit codes: 0 no drift,
    1 any drift (the drifted classes are named), 2 a golden file is
    missing or a ``--nf`` name is unknown.
    """
    known = {spec.name for spec in NF_MATRIX} | {spec.name for spec in GRAPH_MATRIX}
    unknown = sorted(set(names or ()) - known)
    if unknown:
        print(f"FAIL: unknown contract-diff targets {unknown} (known: {sorted(known)})")
        return 2
    targets = _gate_targets(names)
    if update:
        os.makedirs(golden_dir, exist_ok=True)
        for name, contract, _ in targets:
            path = os.path.join(golden_dir, f"{name}.json")
            dump_contract(contract, path)
            print(f"wrote golden contract {path} ({len(contract)} classes)")
        return 0
    models = _bench_models()
    drifted = 0
    missing = 0
    for name, contract, structures in targets:
        _section(f"contract-diff: {name}")
        path = os.path.join(golden_dir, f"{name}.json")
        if not os.path.exists(path):
            missing += 1
            print(
                f"FAIL: no golden contract at {path} "
                "(run `python -m repro.cli contract-diff --update` and commit it)"
            )
            continue
        diff = diff_contracts(load_contract(path), contract, models=models, structures=structures)
        print(diff.render())
        if not diff.ok:
            drifted += 1
            names = diff.worsened_classes or sorted(d.class_name for d in diff.drifted)
            print(f"drifted classes: {names}")
    print()
    if missing:
        print("CONTRACT DIFF FAILED: goldens missing")
        return 2
    print(
        "CONTRACT DIFF FAILED: bounds drifted against the goldens "
        "(intentional? regenerate with --update and commit)"
        if drifted
        else "CONTRACT DIFF OK: every contract matches its golden"
    )
    return 1 if drifted else 0


# --------------------------------------------------------------------------- #
# ct-audit: constant-time audit of secret-dependent input classes
# --------------------------------------------------------------------------- #
def _simulated_tails(
    spec: NFSpec, contract: PerformanceContract
) -> Dict[str, Dict[int, float]]:
    """Measured per-class cycle tails of the NF's calibration replay."""
    model, result = _simulated_calibration(spec, contract)
    scale = result.cycle_scale
    return {
        name: {p: tails[p] / scale for p in TAIL_PERCENTILES}
        for name, summary in result.summaries.items()
        if (tails := summary.cycle_tails.get(model.name))
    }


def run_ct_audit(*, names: Optional[Sequence[str]] = None, strict: bool = False) -> int:
    """Audit every NF's secret class sets under every hardware model.

    A pair proven constant-time is a *polynomial* identity: the bound is
    the same for both classes under every model.  The measured
    distributions can still differ — cache state depends on the whole
    stream, so two identically-bounded classes may sit at different
    simulated tails — which is worth surfacing (a remote observer times
    actual executions, not bounds) but is not a contract leak; those
    pairs get an informational ``note:`` line, never a failure.

    Exit codes: 0 every computed verdict matches its declared expectation
    (known leaks stay documented, claimed constant-time pairs stay
    proven), 1 a verdict contradicts its declaration — or, with
    ``--strict``, any leak at all — and 2 an unknown ``--nf`` name.
    """
    known = {spec.name for spec in NF_MATRIX}
    unknown = sorted(set(names or ()) - known)
    if unknown:
        print(f"FAIL: unknown NFs {unknown} (known: {sorted(known)})")
        return 2
    models = _bench_models()
    failures = 0
    audited = 0
    for spec in NF_MATRIX:
        if names and spec.name not in set(names):
            continue
        _section(f"ct-audit: {spec.name}")
        if not spec.secret_sets:
            print(f"no secret class sets declared for {spec.name}")
            continue
        contract = spec.bench_contract()
        findings = audit_contract(
            contract,
            spec.secret_sets,
            models=models,
            structures=tuple(spec.harness().structures),
        )
        for finding in findings:
            audited += 1
            for line in finding.render(contract.registry):
                print(line)
            if not finding.matches_expectation:
                failures += 1
                print(
                    f"FAIL: {spec.name}/{finding.secret_set.name} is "
                    f"{finding.verdict} but declared "
                    f"{finding.secret_set.expectation} — update the NF's "
                    "SPEC.secret_sets if this is intentional"
                )
            elif strict and finding.leaks:
                failures += 1
                print(f"FAIL (--strict): {spec.name}/{finding.secret_set.name} leaks")
        proven = [finding for finding in findings if not finding.leaks]
        if proven:
            tails = _simulated_tails(spec, contract)
            for finding in proven:
                classes = finding.secret_set.classes
                for index, class_a in enumerate(classes):
                    for class_b in classes[index + 1 :]:
                        tails_a = tails.get(class_a)
                        tails_b = tails.get(class_b)
                        if not tails_a or not tails_b or tails_a == tails_b:
                            continue
                        print(
                            f"  note: {class_a} vs {class_b} measured tails diverge "
                            f"under simulation (p99 {tails_a[99]:.1f} vs "
                            f"{tails_b[99]:.1f} cycles) — cache-state variance "
                            "across the stream, not a contract leak"
                        )
    print()
    print(
        "CT AUDIT FAILED"
        if failures
        else f"CT AUDIT OK: {audited} secret class sets match their declarations"
    )
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def _count(text: str) -> int:
    """``argparse`` type of the ``--packets`` / ``--workers`` flags: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="BOLT reproduction: contract validation and evaluation bench.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("smoke", help="validate structure and NF contracts (default)")
    bench = sub.add_parser("bench", help="measured-vs-predicted evaluation bench")
    bench.add_argument("--output", default=BENCH_OUTPUT, help="report path (BENCH_*.json)")
    bench.add_argument(
        "--packets", type=_count, default=BENCH_PACKETS, help="packets per uniform/zipf workload"
    )
    bench.add_argument("--seed", type=int, default=BENCH_SEED, help="workload RNG seed")
    bench.add_argument(
        "--workers",
        type=_count,
        default=None,
        help="bench rows run in parallel (default: all CPUs); the report "
        "is bit-identical for every value",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="profile one bench row under cProfile and exit",
    )
    bench.add_argument(
        "--nf",
        action="append",
        metavar="NAME",
        help="bench only this NF (repeatable; makes the report partial)",
    )
    bench.add_argument(
        "--graph",
        action="append",
        metavar="NAME",
        help="bench only this service graph (repeatable; makes the report partial)",
    )
    bench.add_argument(
        "--models",
        action="append",
        metavar="NAME",
        help="price cycles only under this hardware model (repeatable; "
        "default: conservative, realistic and simulated)",
    )
    graph = sub.add_parser(
        "graph", help="end-to-end service-graph replay with mid-stream churn"
    )
    graph.add_argument(
        "--graph", default=None, metavar="NAME", help="graph name (default: all registered)"
    )
    graph.add_argument(
        "--packets", type=_count, default=GRAPH_PACKETS, help="stream length to replay"
    )
    graph.add_argument("--seed", type=int, default=BENCH_SEED, help="cell seed")
    graph.add_argument(
        "--output", default=None, help="optionally write the replay payloads as JSON"
    )
    diff = sub.add_parser(
        "contract-diff",
        help="diff regenerated contracts against the golden snapshots",
    )
    diff.add_argument(
        "--golden",
        default=GOLDEN_DIR,
        metavar="DIR",
        help=f"golden snapshot directory (default: {GOLDEN_DIR})",
    )
    diff.add_argument(
        "--update",
        action="store_true",
        help="regenerate the goldens (acknowledge an intentional bound change)",
    )
    diff.add_argument(
        "--nf",
        action="append",
        metavar="NAME",
        help="diff only this NF or graph (repeatable; default: all)",
    )
    audit = sub.add_parser(
        "ct-audit",
        help="constant-time audit: prove or refute class cycle-indistinguishability",
    )
    audit.add_argument(
        "--nf",
        action="append",
        metavar="NAME",
        help="audit only this NF (repeatable; default: all)",
    )
    audit.add_argument(
        "--strict",
        action="store_true",
        help="fail on any leak, even ones declared as accepted",
    )
    args = parser.parse_args(argv)
    if args.command == "bench":
        return run_bench(
            output=args.output,
            packets=args.packets,
            seed=args.seed,
            workers=args.workers,
            profile=args.profile,
            nfs=args.nf,
            graphs=args.graph,
            models=args.models,
        )
    if args.command == "graph":
        return run_graph(
            graph=args.graph,
            packets=args.packets,
            seed=args.seed,
            output=args.output,
        )
    if args.command == "contract-diff":
        return run_contract_diff(golden_dir=args.golden, update=args.update, names=args.nf)
    if args.command == "ct-audit":
        return run_ct_audit(names=args.nf, strict=args.strict)
    return run_smoke()


if __name__ == "__main__":
    sys.exit(main())
