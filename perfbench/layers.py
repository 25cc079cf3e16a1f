"""Spans and work counters around the public calls of each repro layer.

The benchmark observes the program from the outside.  :meth:`Recorder.install`
replaces public methods and factory functions of the ``repro`` package with
wrappers defined here, inside the benchmark process only; nothing under
``src/`` is edited.

Two modes share one recorder:

* untraced (``traced=False``): only ``Replayer.replay`` and
  ``GraphReplayer.replay`` are wrapped, to time the replay calls (the
  end-to-end ``setup_s`` / ``pkts_per_s`` split) and to sum the
  conservative predicted and measured cycles of every scored packet;
* traced (``traced=True``): every layer boundary records a span
  ``(id, name, start, end, parent id, packet id)`` kept in memory, plus the
  deterministic work counters; :meth:`Recorder.layer_metrics` turns them
  into the per-layer metrics once the run has ended.

A layer's *self* time is its spans' durations minus the time covered by
their direct child spans.  ``busy`` time is the spans' whole duration.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

#: Packet ids are ``replay sequence number * PACKET_STRIDE + packet index``,
#: so spans of one packet share an id and ids never collide across replays.
PACKET_STRIDE = 1 << 24

#: Every bench row the benchmark can run; each gets a ``cell.<row>.pkts_per_s``.
NF_ROWS = ("bridge", "router", "nat", "lb", "firewall", "monitor")
GRAPH_ROWS = ("lb_nat_router", "lb_nat_fw_router")

#: Hardware models whose compiled pricing closures get their own span.
HW_MODELS = ("conservative", "realistic", "simulated")

#: The counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC_COUNTERS = (
    "bolt.calls",
    "workloads.calls",
    "workloads.stimuli_built",
    "replayer.score_samples",
    "nfil.steps",
    "nfil.accesses_recorded",
    "structures.calls",
    "cachesim.accesses",
    "cachesim.l1_hits",
    "cachesim.llc_hits",
    "graph.hop_executions",
    "graph.churn_events",
    "trace.spans",
)

Span = Tuple[int, str, float, float, int, int]


class Recorder:
    """Collects replay timing, accuracy sums and (traced) spans for one run.

    Args:
        traced: wrap every layer, not just the two replay entry points.
        inject_s: busy-wait this long inside every ``ExternHandler.handle``
            span (the attribution self-check); 0 in measured runs.
        sampler: the run's :class:`speed.SpeedSampler`; its handler time
            is taken off the replay and bookkeeping clocks.
    """

    def __init__(self, *, traced: bool, sampler, inject_s: float = 0.0) -> None:
        self.traced = traced
        self.inject_s = inject_s
        self.sampler = sampler
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.packet = -1
        self.replay_s = 0.0
        self.replays = 0
        self.packets = 0
        self.frames = 0
        #: row name -> [items replayed, seconds inside its replay calls]
        self.rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.predicted = Fraction(0)
        self.measured = Fraction(0)
        #: Seconds spent in this recorder's own replay bookkeeping, which
        #: the child subtracts from the run's wall time.
        self.bookkeeping_s = 0.0
        self._stack: List[int] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def span(
        self,
        name: str,
        fn: Callable,
        *,
        after: Optional[Callable] = None,
        delay: float = 0.0,
    ) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``.

        ``after(args, result)`` runs once the span has closed, so counter
        bookkeeping is charged to the parent span, not to the layer.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            ident = self._next_id
            self._next_id = ident + 1
            parent = stack[-1] if stack else -1
            stack.append(ident)
            start = clock()
            try:
                if delay:
                    while clock() - start < delay:
                        pass
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((ident, name, start, end, parent, self.packet))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers of the already-imported ``repro`` package."""
        import repro.cli as cli
        from repro.net.replay import GraphReplayer
        from repro.traffic.replayer import Replayer

        nf_replay = Replayer.replay
        graph_replay = GraphReplayer.replay
        if self.traced:
            nf_replay = self.span("replayer.replay", nf_replay)
            graph_replay = self.span("graph.replay", graph_replay)
            self._install_layers(cli, Replayer, GraphReplayer)
        Replayer.replay = self._timed_replay(nf_replay, graph=False)
        GraphReplayer.replay = self._timed_replay(graph_replay, graph=True)

    def _timed_replay(self, inner: Callable, *, graph: bool) -> Callable:
        clock = time.perf_counter

        sampler = self.sampler

        def replay(replayer, *args, **kwargs):
            self.replays += 1
            sampled = sampler.overhead_in_s
            sampler.inside = True
            start = clock()
            try:
                result = inner(replayer, *args, **kwargs)
            finally:
                end = clock()
                sampler.inside = False
            elapsed = end - start - (sampler.overhead_in_s - sampled)
            self.replay_s += elapsed
            self.packet = -1
            sampled = sampler.overhead_s
            self._absorb(replayer, result, elapsed, graph=graph)
            # The child takes the sampler's own time off the wall clock.
            self.bookkeeping_s += clock() - end - (sampler.overhead_s - sampled)
            return result

        return replay

    def _absorb(self, replayer, result, elapsed: float, *, graph: bool) -> None:
        """Book one finished replay: accuracy sums and, traced, row rate and counters."""
        if graph:
            row = result.graph_name
            self.frames += result.packets
            for outcome in result.outcomes:
                cycles = outcome.cycles.get("conservative")
                if cycles is not None:
                    self.measured += cycles[0]
                    self.predicted += cycles[1]
        else:
            row = result.nf_name
            self.packets += result.packets
            measured = predicted = 0
            for outcome in result.outcomes:
                cycles = outcome.cycles_scaled.get("conservative")
                if cycles is not None:
                    measured += cycles[0]
                    predicted += cycles[1]
            self.measured += Fraction(measured, result.cycle_scale)
            self.predicted += Fraction(predicted, result.cycle_scale)
        if not self.traced:
            return
        if graph:
            self.counts["graph.hop_executions"] += result.hop_executions
            self.counts["graph.churn_events"] += len(result.churn_log)
        cell = self.rows[row]
        cell[0] += result.packets
        cell[1] += elapsed
        for model in replayer.models:
            hierarchy = getattr(model, "hierarchy", None)
            if hierarchy is not None:
                self.counts["cachesim.accesses"] += hierarchy.l1.accesses
                self.counts["cachesim.l1_hits"] += hierarchy.l1.hits
                self.counts["cachesim.llc_accesses"] += hierarchy.llc.accesses
                self.counts["cachesim.llc_hits"] += hierarchy.llc.hits

    def _install_layers(self, cli, Replayer, GraphReplayer) -> None:
        from repro.core.bolt import Bolt
        from repro.hw.model import CycleModel, SimulatedModel
        from repro.nf.replay import NFHarness
        from repro.nfil.interpreter import ExternHandler, Interpreter

        counts = self.counts
        Bolt.generate = self.span("bolt", Bolt.generate)

        def built(args, workloads) -> None:
            for workload in workloads:
                stimuli = getattr(workload, "stimuli", None)
                counts["workloads.stimuli_built"] += len(
                    stimuli if stimuli is not None else workload.stream
                )

        # The NF specs' lambdas look their factories up in the cli namespace.
        for name in [name for name in vars(cli) if name.endswith("_workloads")]:
            setattr(cli, name, self.span("workloads", getattr(cli, name), after=built))
        # GRAPH_MATRIX holds the graph factories themselves, not their names.
        cli.GRAPH_MATRIX = tuple(
            dataclasses.replace(
                spec, bench_workloads=self.span("workloads", spec.bench_workloads, after=built)
            )
            for spec in cli.GRAPH_MATRIX
        )

        Replayer.__init__ = self.span("replayer.init", Replayer.__init__)
        score = self.span("replayer.score", Replayer.score)

        def scored(replayer, stimulus, index=0):
            self.packet = self.replays * PACKET_STRIDE + index
            return score(replayer, stimulus, index)

        Replayer.score = scored
        GraphReplayer.__init__ = self.span("graph.init", GraphReplayer.__init__)
        NFHarness.run = self.span("harness.run", NFHarness.run)
        NFHarness.env = self.span("harness.env", NFHarness.env)

        def stepped(args, result) -> None:
            trace = result[1]
            counts["nfil.steps"] += trace.instructions
            counts["nfil.accesses_recorded"] += len(trace.accesses)

        Interpreter.run = self.span("nfil", Interpreter.run, after=stepped)
        ExternHandler.handle = self.span("structures", ExternHandler.handle, delay=self.inject_s)
        for model_cls in (CycleModel, SimulatedModel):
            compile_measure = model_cls.__dict__["compile_measure"]
            model_cls.compile_measure = self._priced(compile_measure)

    def _priced(self, compile_measure: Callable) -> Callable:
        def wrapped(model, *args, **kwargs):
            return self.span(f"hw.{model.name}", compile_measure(model, *args, **kwargs))

        return wrapped

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def overestimate_pct(self) -> float:
        """Σ predicted ÷ Σ measured conservative cycles − 1, in percent."""
        if not self.measured:
            return 0.0
        return float((self.predicted / self.measured - 1) * 100)

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Aggregate the spans and counters of a finished traced run."""
        from repro.traffic.replayer import _nearest_rank

        child: Dict[int, float] = defaultdict(float)
        for ident, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        busy: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        top_level = 0.0
        score_us: List[float] = []
        for ident, name, start, end, parent, _ in self.spans:
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            own[name] += duration - child.get(ident, 0.0)
            if parent < 0:
                top_level += duration
            if name == "replayer.score":
                score_us.append(duration * 1e6)
        score_us.sort()
        counts = self.counts
        steps = counts["nfil.steps"]
        handled = calls["structures"]
        l1 = counts["cachesim.accesses"]
        llc = counts["cachesim.llc_accesses"]
        built = counts["workloads.stimuli_built"]
        metrics: Dict[str, float] = {
            "bolt.calls": calls["bolt"],
            "bolt.busy_s": busy["bolt"],
            "workloads.calls": calls["workloads"],
            "workloads.busy_s": own["workloads"],
            "workloads.stimuli_built": built,
            "workloads.used_ratio": (self.packets + self.frames) / built if built else 0.0,
            "replayer.compile_s": busy["replayer.init"],
            "replayer.score.self_s": own["replayer.score"],
            "replayer.aggregate_s": own["replayer.replay"],
            "replayer.score_us_p50": _nearest_rank(score_us, 50) if score_us else 0.0,
            "replayer.score_us_p99": _nearest_rank(score_us, 99) if score_us else 0.0,
            "replayer.score_samples": len(score_us),
            "harness.run.self_s": own["harness.run"],
            "harness.env_s": busy["harness.env"],
            "nfil.self_s": own["nfil"],
            "nfil.steps": steps,
            "nfil.ns_per_step": own["nfil"] / steps * 1e9 if steps else 0.0,
            "nfil.accesses_recorded": counts["nfil.accesses_recorded"],
            "structures.calls": handled,
            "structures.busy_s": busy["structures"],
            "structures.us_per_call": busy["structures"] / handled * 1e6 if handled else 0.0,
        }
        for model in HW_MODELS:
            metrics[f"hw.{model}.busy_s"] = busy[f"hw.{model}"]
        metrics.update(
            {
                "cachesim.accesses": l1,
                "cachesim.l1_hits": counts["cachesim.l1_hits"],
                "cachesim.llc_hits": counts["cachesim.llc_hits"],
                "cachesim.l1_hit_ratio": counts["cachesim.l1_hits"] / l1 if l1 else 0.0,
                "cachesim.llc_hit_ratio": counts["cachesim.llc_hits"] / llc if llc else 0.0,
                "graph.compose_s": own["graph.init"],
                "graph.handoff_s": own["graph.replay"],
                "graph.hop_executions": counts["graph.hop_executions"],
                "graph.hops_per_pkt": (
                    counts["graph.hop_executions"] / self.frames if self.frames else 0.0
                ),
                "graph.churn_events": counts["graph.churn_events"],
                "cli.other_s": wall_s - top_level,
            }
        )
        for row in NF_ROWS + GRAPH_ROWS:
            items, seconds = self.rows.get(row, (0, 0.0))
            metrics[f"cell.{row}.pkts_per_s"] = items / seconds if seconds else 0.0
        metrics["trace.spans"] = len(self.spans)
        return metrics
