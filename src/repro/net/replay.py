"""End-to-end graph replay: every hop scored, every journey re-scored.

:class:`GraphReplayer` drives one packet stream through a whole
:class:`~repro.net.graph.Graph` and checks the contract story at *two*
levels on every packet:

1. **Per hop** — each node execution is scored by that node's own
   :class:`~repro.traffic.replayer.Replayer` (via its per-packet
   :meth:`~repro.traffic.replayer.Replayer.score` primitive) against the
   node's generated contract: classification, count bounds, cycle bounds
   under every hardware model.
2. **End to end** — the hops a packet actually traversed name a route
   (:func:`repro.core.composition.route_class_name`), the composed
   contract (:meth:`~repro.net.graph.Graph.compose`) holds one entry per
   reachable route, and the packet's *cumulative* measured cost is
   checked against that entry evaluated at the union of the hops'
   observed PCVs.

The end-to-end comparison is exact: the composed expression is evaluated
as a scaled integer (one clearing denominator per entry) and compared
against the raw measured totals — never against per-hop ceilings, whose
sum can legitimately exceed the ceiling of the sum.  Measured cycles are
summed as :class:`~fractions.Fraction` for the same reason.

Churn (:mod:`repro.net.churn`) interleaves with the stream: events fire
between packets, injected control frames are scored at their node like
any stimulus (their cost is part of the deployment's story), host-side
mutations and clock jumps take effect before the next packet replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.composition import route_class_name
from repro.core.contract import ContractEntry, Metric, PerformanceContract
from repro.core.report import format_table
from repro.hw.model import CycleModel
from repro.net.churn import ChurnSchedule
from repro.net.graph import Graph
from repro.traffic.replayer import COUNT_METRICS, ClassSummary, PacketOutcome, Replayer

__all__ = ["GraphFrame", "GraphPacketOutcome", "GraphReplayResult", "GraphReplayer", "RouteSummary"]


@dataclass(frozen=True)
class GraphFrame:
    """One stream packet entering the graph: bytes plus stream metadata."""

    packet: bytes
    time: int
    note: str = ""
    #: Extra entry-node scalars (e.g. the NAT's ``in_port`` when a NAT is
    #: the entry); merged into the metadata handed to every ingress.
    scalars: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class GraphPacketOutcome:
    """One packet's full journey: per-hop outcomes plus the composed check."""

    index: int
    note: str
    #: ``(node name, hop outcome)`` in traversal order.
    hops: Tuple[Tuple[str, PacketOutcome], ...]
    #: Composed-entry name of the traversed route (None when a hop failed
    #: to classify, so no route exists to check).
    route_name: Optional[str]
    #: Cumulative counts over all hops.
    measured: Mapping[Metric, int]
    #: The composed entry's exact per-metric bound at the merged PCVs.
    predicted: Mapping[Metric, Fraction]
    #: model name -> (summed measured cycles, composed predicted cycles).
    cycles: Mapping[str, Tuple[Fraction, Fraction]]
    #: Every violation of this packet: per-hop ones prefixed with the node
    #: name, then the end-to-end ones.
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def hop_count(self) -> int:
        return len(self.hops)


@dataclass
class RouteSummary:
    """Aggregate over every packet that traversed one route."""

    route_name: str
    packets: int = 0
    max_measured: Dict[Metric, int] = field(default_factory=dict)
    max_predicted: Dict[Metric, Fraction] = field(default_factory=dict)
    max_cycles: Dict[str, Tuple[Fraction, Fraction]] = field(default_factory=dict)
    violations: int = 0

    def absorb(self, outcome: GraphPacketOutcome) -> None:
        self.packets += 1
        if not outcome.ok:
            self.violations += 1
        for metric, value in outcome.measured.items():
            self.max_measured[metric] = max(self.max_measured.get(metric, 0), value)
        for metric, value in outcome.predicted.items():
            self.max_predicted[metric] = max(
                self.max_predicted.get(metric, Fraction(0)), value
            )
        for model, (measured, predicted) in outcome.cycles.items():
            prev = self.max_cycles.get(model, (Fraction(0), Fraction(0)))
            self.max_cycles[model] = (max(prev[0], measured), max(prev[1], predicted))


def _summary_json(summary: ClassSummary) -> Dict[str, object]:
    return {
        "packets": summary.packets,
        "violations": summary.violations,
        "max_measured": {str(m): v for m, v in summary.max_measured.items()},
        "max_predicted": {str(m): v for m, v in summary.max_predicted.items()},
        "max_cycles": {
            model: {"measured": float(meas), "predicted": float(pred)}
            for model, (meas, pred) in summary.max_cycles.items()
        },
    }


@dataclass
class GraphReplayResult:
    """Everything one graph replay produced."""

    graph_name: str
    workload: str
    outcomes: List[GraphPacketOutcome]
    #: Churn-injected control executions: ``(node name, outcome)``.
    control_outcomes: List[Tuple[str, PacketOutcome]]
    #: node name -> input class -> per-hop aggregate (includes injected
    #: control executions at their node).
    hop_summaries: Dict[str, Dict[str, ClassSummary]]
    #: composed route name -> end-to-end aggregate.
    route_summaries: Dict[str, RouteSummary]
    #: Human-readable record of every churn event, in firing order.
    churn_log: List[str]
    #: Largest observation of each instance-qualified PCV, graph-wide.
    max_pcvs: Dict[str, int]

    @property
    def packets(self) -> int:
        return len(self.outcomes)

    @property
    def hop_executions(self) -> int:
        return sum(outcome.hop_count for outcome in self.outcomes) + len(self.control_outcomes)

    @property
    def violations(self) -> List[str]:
        messages = [m for o in self.outcomes for m in o.violations]
        messages += [
            f"{node}: {m}" for node, o in self.control_outcomes for m in o.violations
        ]
        return messages

    @property
    def ok(self) -> bool:
        return not self.violations

    def hop_classes_seen(self) -> Dict[str, List[str]]:
        """Input classes each node's executions actually fell into."""
        return {node: sorted(classes) for node, classes in self.hop_summaries.items()}

    def routes_seen(self) -> List[str]:
        return sorted(self.route_summaries)

    def table(self) -> str:
        """Render the per-route end-to-end summary table."""
        models = sorted(
            {model for s in self.route_summaries.values() for model in s.max_cycles}
        )
        headers = ["route", "packets", "instr max meas≤pred", "mem max meas≤pred"]
        headers += [f"{model} cycles" for model in models]
        rows: List[List[str]] = []
        for name in sorted(self.route_summaries):
            summary = self.route_summaries[name]
            row = [name, str(summary.packets)]
            for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
                row.append(
                    f"{summary.max_measured.get(metric, 0)} ≤ "
                    f"{float(summary.max_predicted.get(metric, Fraction(0))):.0f}"
                )
            for model in models:
                measured, predicted = summary.max_cycles.get(
                    model, (Fraction(0), Fraction(0))
                )
                row.append(f"{float(measured):.0f} ≤ {float(predicted):.0f}")
            rows.append(row)
        title = (
            f"{self.graph_name} / {self.workload}: {self.packets} packets, "
            f"{self.hop_executions} hop executions, "
            f"{len(self.churn_log)} churn events, "
        )
        title += "no violations" if self.ok else f"{len(self.violations)} VIOLATIONS"
        lines = [title, format_table(headers, rows)]
        coverage = "; ".join(
            f"{node}: {', '.join(classes)}"
            for node, classes in sorted(self.hop_classes_seen().items())
        )
        lines.append(f"per-hop coverage — {coverage}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """Serialise for the ``BENCH_*.json`` report."""
        routes: Dict[str, object] = {}
        for name, summary in self.route_summaries.items():
            routes[name] = {
                "packets": summary.packets,
                "violations": summary.violations,
                "max_measured": {str(m): v for m, v in summary.max_measured.items()},
                "max_predicted": {
                    str(m): float(v) for m, v in summary.max_predicted.items()
                },
                "max_cycles": {
                    model: {"measured": float(meas), "predicted": float(pred)}
                    for model, (meas, pred) in summary.max_cycles.items()
                },
            }
        hops: Dict[str, object] = {
            node: {name: _summary_json(summary) for name, summary in classes.items()}
            for node, classes in self.hop_summaries.items()
        }
        return {
            "packets": self.packets,
            "hop_executions": self.hop_executions,
            "ok": self.ok,
            "violations": self.violations[:20],
            "routes": routes,
            "hops": hops,
            "max_pcvs": dict(self.max_pcvs),
            "churn": {"events": len(self.churn_log), "log": list(self.churn_log)},
        }


class GraphReplayer:
    """Replays packet streams through a service graph, checking both levels.

    Args:
        graph: the validated topology.
        models: hardware models per-hop *and* end-to-end cycles are
            priced under.  The composed cycle expressions are derived
            with every structure of the graph in scope, so the composed
            bound dominates the sum of per-hop measurements (constant
            monomials price at the most expensive structure in scope).
    """

    def __init__(self, graph: Graph, *, models: Sequence[CycleModel] = ()) -> None:
        self.graph = graph
        self.models = tuple(models)
        self.replayers: Dict[str, Replayer] = {
            name: Replayer(node.harness, node.contract, models=models)
            for name, node in graph.nodes.items()
        }
        self.composed: PerformanceContract = graph.compose()
        self._structures = graph.structures()
        self._entries_by_route: Dict[str, ContractEntry] = {
            entry.input_class.name: entry for entry in self.composed.entries
        }
        self._zero_pcvs = {name: 0 for name in self.composed.variables()}
        # Composed entries are numerous (every reachable route) but a
        # replay only traverses a handful, so their evaluators compile
        # lazily, memoised by route name.
        self._count_cache: Dict[str, List[Tuple[Metric, Callable[..., int], int]]] = {}
        self._cycle_cache: Dict[str, List[Tuple[str, Callable[..., int], int]]] = {}

    # ------------------------------------------------------------------ #
    # Composed-entry evaluators
    # ------------------------------------------------------------------ #
    def _count_programs(self, entry: ContractEntry) -> List[Tuple[Metric, Callable[..., int], int]]:
        name = entry.input_class.name
        programs = self._count_cache.get(name)
        if programs is None:
            programs = []
            for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
                expr = entry.expr(metric)
                denom = expr.denominator_lcm()
                programs.append((metric, expr.compile_scaled(denom), denom))
            self._count_cache[name] = programs
        return programs

    def _cycle_programs(self, entry: ContractEntry) -> List[Tuple[str, Callable[..., int], int]]:
        name = entry.input_class.name
        programs = self._cycle_cache.get(name)
        if programs is None:
            programs = []
            for model in self.models:
                expr = model.cycles_expr(entry, structures=self._structures)
                denom = expr.denominator_lcm()
                programs.append((model.name, expr.compile_scaled(denom), denom))
            self._cycle_cache[name] = programs
        return programs

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def replay(
        self,
        stream: Sequence[GraphFrame],
        *,
        schedule: Optional[ChurnSchedule] = None,
        workload: str = "stream",
    ) -> GraphReplayResult:
        """Replay the stream, firing churn events between packets.

        Never raises on a violation — every check failure is recorded on
        its packet's outcome, mirroring the single-NF replayer.
        """
        schedule = schedule if schedule is not None else ChurnSchedule()
        outcomes: List[GraphPacketOutcome] = []
        control_outcomes: List[Tuple[str, PacketOutcome]] = []
        hop_summaries: Dict[str, Dict[str, ClassSummary]] = {}
        route_summaries: Dict[str, RouteSummary] = {}
        churn_log: List[str] = []
        max_pcvs: Dict[str, int] = dict(self._zero_pcvs)

        def absorb_hop(node: str, outcome: PacketOutcome) -> None:
            key = outcome.class_name if outcome.class_name is not None else "<unclassified>"
            summaries = hop_summaries.setdefault(node, {})
            summary = summaries.get(key)
            if summary is None:
                summary = summaries[key] = ClassSummary(key, outcome.cycle_scale)
            summary.absorb(outcome)
            for name, value in outcome.pcvs.items():
                if value > max_pcvs.get(name, 0):
                    max_pcvs[name] = value

        clock_offset = 0
        for index, frame in enumerate(stream):
            for event in schedule.at(index):
                if event.jump:
                    clock_offset += event.jump
                if event.mutate is not None:
                    event.mutate(self.graph.nodes[event.node])
                if event.inject is not None:
                    stimulus = event.inject(frame.time + clock_offset)
                    outcome = self.replayers[event.node].score(stimulus, index)
                    control_outcomes.append((event.node, outcome))
                    absorb_hop(event.node, outcome)
                churn_log.append(f"@{index}: {event.describe}")

            meta: Dict[str, int] = dict(frame.scalars)
            meta["time"] = frame.time + clock_offset
            node_name: Optional[str] = self.graph.entry
            packet = frame.packet
            hops: List[Tuple[str, PacketOutcome]] = []
            violations: List[str] = []
            classified = True
            while node_name is not None:
                node = self.graph.nodes[node_name]
                stimulus = node.make_stimulus(packet, meta)
                outcome = self.replayers[node_name].score(stimulus, index)
                hops.append((node_name, outcome))
                absorb_hop(node_name, outcome)
                violations.extend(f"{node_name}: {m}" for m in outcome.violations)
                if outcome.class_name is None:
                    classified = False
                    break
                packet = node.harness.last_packet
                node_name = self.graph.next_hop(node_name, outcome.class_name)

            instructions = accesses = 0
            cycle_sums: Dict[str, Fraction] = {model.name: Fraction(0) for model in self.models}
            bindings = dict(self._zero_pcvs)
            for _, hop_outcome in hops:
                hop_instructions, hop_accesses = hop_outcome.counts
                instructions += hop_instructions
                accesses += hop_accesses
                for model_name, (meas, _) in hop_outcome.cycles.items():
                    cycle_sums[model_name] += meas
                bindings.update(hop_outcome.pcvs)
            measured: Dict[Metric, int] = dict(zip(COUNT_METRICS, (instructions, accesses)))

            route_name: Optional[str] = None
            predicted: Dict[Metric, Fraction] = {}
            cycles: Dict[str, Tuple[Fraction, Fraction]] = {}
            if classified:
                route = tuple((node, o.class_name) for node, o in hops)
                route_name = route_class_name(route)  # type: ignore[arg-type]
                entry = self._entries_by_route.get(route_name)
                if entry is None:
                    violations.append(
                        f"packet {index}: route {route_name!r} has no composed entry"
                    )
                else:
                    for metric, evaluate, denom in self._count_programs(entry):
                        scaled = evaluate(bindings)
                        predicted[metric] = Fraction(scaled, denom)
                        if measured[metric] * denom > scaled:
                            violations.append(
                                f"packet {index} ({route_name}): end-to-end measured "
                                f"{metric} {measured[metric]} exceeds composed bound "
                                f"{float(predicted[metric]):.1f}"
                            )
                    for model_name, evaluate, denom in self._cycle_programs(entry):
                        bound = Fraction(evaluate(bindings), denom)
                        total = cycle_sums[model_name]
                        cycles[model_name] = (total, bound)
                        if total > bound:
                            violations.append(
                                f"packet {index} ({route_name}): end-to-end {model_name} "
                                f"measured {float(total):.1f} cycles exceeds composed "
                                f"bound {float(bound):.1f}"
                            )

            graph_outcome = GraphPacketOutcome(
                index=index,
                note=frame.note,
                hops=tuple(hops),
                route_name=route_name,
                measured=measured,
                predicted=predicted,
                cycles=cycles,
                violations=tuple(violations),
            )
            outcomes.append(graph_outcome)
            if route_name is not None:
                route_summaries.setdefault(route_name, RouteSummary(route_name)).absorb(
                    graph_outcome
                )

        return GraphReplayResult(
            graph_name=self.graph.name,
            workload=workload,
            outcomes=outcomes,
            control_outcomes=control_outcomes,
            hop_summaries=hop_summaries,
            route_summaries=route_summaries,
            churn_log=churn_log,
            max_pcvs=max_pcvs,
        )
