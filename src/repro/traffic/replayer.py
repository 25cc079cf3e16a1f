"""The MoonGen-role replayer: measured-vs-predicted curves per workload.

The paper validates contracts by replaying traffic through the
instrumented NF and checking every execution against the prediction of
the contract entry it falls into (§3.2, §5).  :class:`Replayer` automates
that loop over a stimulus stream:

1. run the stimulus through the NF harness (concrete interpreter + tracer),
2. match the trace back to a contract entry (via the replay environment),
3. evaluate the entry at the observed PCVs → predicted instruction and
   memory counts, and through each :class:`~repro.hw.CycleModel` →
   predicted cycles,
4. price the trace under the same models → "measured" cycles,
5. record any violation of measured ≤ predicted.

The result aggregates per input class and renders as the
measured-vs-predicted table ``python -m repro.cli bench`` prints, and
serialises to the ``BENCH_*.json`` schema CI archives.

The loop is built for throughput: everything that depends only on the
(harness, contract, models) triple is resolved at construction time —
path predicates compile to closures (:func:`repro.sym.expr.
compile_conjunction`), contract polynomials and cycle pricing compile to
scaled-integer evaluators (:meth:`repro.core.perfexpr.PerfExpr.
compile_scaled`, :meth:`repro.hw.model.CycleModel.compile_measure`) — so
the per-packet work is one interpreter run plus straight-line integer
arithmetic.  Outcomes and class summaries keep cycles as scaled integers;
their ``cycles`` / ``max_cycles`` properties build exact
:class:`~fractions.Fraction` values only when a report reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.core.contract import ContractEntry, Metric, PerformanceContract
from repro.core.perfexpr import PerfExpr
from repro.core.report import format_table
from repro.hw.model import CycleModel
from repro.nfil.tracer import ExecutionTrace
from repro.structures.base import Structure
from repro.sym.expr import compile_conjunction
from repro.traffic.generators import Stimulus

__all__ = [
    "COUNT_METRICS",
    "ClassSummary",
    "NFTarget",
    "PacketOutcome",
    "Replayer",
    "ReplayResult",
    "TAIL_PERCENTILES",
]

#: The percentiles the tail-latency contract columns cover.
TAIL_PERCENTILES = (50, 95, 99)

#: The metrics of a positional ``(instructions, memory accesses)`` count pair.
COUNT_METRICS = (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES)


def _by_metric(counts: Optional[Sequence[int]]) -> Dict[Metric, int]:
    """A positional count pair as a :class:`Metric`-keyed dict (``{}`` for None)."""
    return {} if counts is None else dict(zip(COUNT_METRICS, counts))


def _nearest_rank(ordered: Sequence[int], percentile: int) -> int:
    """Nearest-rank percentile of an ascending-sorted, non-empty sample set.

    ``index = ceil(percentile·n/100) − 1`` — exact integer arithmetic, no
    interpolation, so percentile values are always members of the sample
    population and stay exact in the scaled-integer domain.
    """
    return ordered[-(-percentile * len(ordered) // 100) - 1]


class NFTarget(Protocol):
    """What the replayer needs from an NF harness.

    :class:`repro.nf.replay.NFHarness` is the canonical implementation.
    """

    name: str
    structures: Tuple[Structure, ...]

    def run(self, stimulus: Stimulus) -> Tuple[Optional[int], ExecutionTrace]:
        """Execute one stimulus; return (NF return value, trace)."""
        ...

    def env(self, stimulus: Stimulus, trace: ExecutionTrace) -> Dict[str, int]:
        """Build the symbol assignment the execution corresponds to."""
        ...


def _unscaled(
    scaled: Mapping[str, Tuple[int, int]], scale: int
) -> Dict[str, Tuple[Fraction, Fraction]]:
    """Turn scaled-integer (measured, predicted) cycle pairs into Fractions."""
    return {
        model: (Fraction(measured, scale), Fraction(predicted, scale))
        for model, (measured, predicted) in scaled.items()
    }


@dataclass(frozen=True)
class PacketOutcome:
    """Measured-vs-predicted record of one replayed stimulus.

    Counts are kept as positional ``(instructions, memory accesses)``
    pairs (:data:`COUNT_METRICS`); :attr:`measured` and :attr:`predicted`
    present them keyed by :class:`Metric`.
    """

    index: int
    note: str
    class_name: Optional[str]
    pcvs: Mapping[str, int]
    #: Measured ``(instructions, memory accesses)``.
    counts: Tuple[int, int]
    #: Predicted ``(instructions, memory accesses)``; None when unclassified.
    predicted_counts: Optional[Tuple[int, int]]
    violations: Tuple[str, ...]
    #: model name -> (measured, predicted) in scaled-integer cycles — the
    #: exact per-packet samples the tail percentiles aggregate over.
    cycles_scaled: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    #: The denominator of every ``cycles_scaled`` value.
    cycle_scale: int = 1

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def measured(self) -> Dict[Metric, int]:
        return _by_metric(self.counts)

    @property
    def predicted(self) -> Dict[Metric, int]:
        """The class's predicted counts; empty when unclassified."""
        return _by_metric(self.predicted_counts)

    @property
    def cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        """model name -> (measured cycles, predicted cycles), exact."""
        return _unscaled(self.cycles_scaled, self.cycle_scale)


def _pairwise_max(best: Optional[Tuple[int, int]], counts: Tuple[int, int]) -> Tuple[int, int]:
    """Element-wise maximum of two count pairs; ``best`` may be None."""
    return counts if best is None else tuple(map(max, best, counts))


@dataclass
class ClassSummary:
    """Aggregate over every packet that fell into one input class."""

    class_name: str
    #: The denominator of every scaled cycle value below.
    cycle_scale: int = 1
    packets: int = 0
    #: Largest measured ``(instructions, memory accesses)``; None before
    #: the first packet.
    max_counts: Optional[Tuple[int, int]] = None
    #: Largest predicted counts; None while no classified packet landed.
    max_predicted_counts: Optional[Tuple[int, int]] = None
    #: model name -> (max measured, max predicted) per-packet cycles (scaled).
    max_cycles_scaled: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    violations: int = 0
    #: model name -> measured per-packet cycle samples (scaled integers).
    cycle_samples: Dict[str, List[int]] = field(default_factory=dict)
    #: model name -> predicted per-packet cycle samples (scaled integers).
    predicted_samples: Dict[str, List[int]] = field(default_factory=dict)
    #: model name -> {percentile: measured value} (scaled), filled by
    #: :meth:`compute_tails` once the class population is complete.
    cycle_tails: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: model name -> {percentile: predicted envelope} (scaled).
    cycle_tail_envelopes: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def absorb(self, outcome: PacketOutcome) -> None:
        self.packets += 1
        if outcome.violations:
            self.violations += 1
        self.max_counts = _pairwise_max(self.max_counts, outcome.counts)
        if outcome.predicted_counts is not None:
            self.max_predicted_counts = _pairwise_max(
                self.max_predicted_counts, outcome.predicted_counts
            )
        for model, (measured, predicted) in outcome.cycles_scaled.items():
            prev = self.max_cycles_scaled.get(model, (0, 0))
            self.max_cycles_scaled[model] = (max(prev[0], measured), max(prev[1], predicted))
            self.cycle_samples.setdefault(model, []).append(measured)
            self.predicted_samples.setdefault(model, []).append(predicted)

    @property
    def max_measured(self) -> Dict[Metric, int]:
        return _by_metric(self.max_counts)

    @property
    def max_predicted(self) -> Dict[Metric, int]:
        """Largest predicted counts; empty for ``<unclassified>``."""
        return _by_metric(self.max_predicted_counts)

    @property
    def max_cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        """model name -> (max measured, max predicted) cycles, exact."""
        return _unscaled(self.max_cycles_scaled, self.cycle_scale)

    def compute_tails(self) -> None:
        """Aggregate the per-packet samples into measured tails + envelopes.

        Percentiles are nearest-rank over the class's complete observed
        packet population.  The envelope at percentile *q* is the same
        percentile of the class's **predicted** per-packet cycles.  It
        needs no check of its own: the replay already asserts measured ≤
        predicted per packet, and ``a_i ≤ b_i`` pointwise implies
        ``sorted(a)_k ≤ sorted(b)_k`` at every rank (sorted dominance),
        so every measured percentile sits inside its envelope whenever
        the per-packet check passes.  Both are kept as report data.
        """
        for model, samples in self.cycle_samples.items():
            ordered = sorted(samples)
            self.cycle_tails[model] = {
                p: _nearest_rank(ordered, p) for p in TAIL_PERCENTILES
            }
            predicted = sorted(self.predicted_samples.get(model, ()))
            self.cycle_tail_envelopes[model] = {
                p: _nearest_rank(predicted, p) for p in TAIL_PERCENTILES
            }


@dataclass
class ReplayResult:
    """Everything one workload replay produced."""

    nf_name: str
    workload: str
    outcomes: List[PacketOutcome]
    summaries: Dict[str, ClassSummary]
    #: Largest observation of each PCV across the whole workload.
    max_pcvs: Dict[str, int]
    #: Worst-case cycle envelopes per model (PCV bounds, all entries).
    envelopes: Dict[str, Fraction]
    #: The scaled-integer denominator of every ``*_scaled`` cycle value.
    cycle_scale: int = 1

    @property
    def packets(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> List[str]:
        return [m for outcome in self.outcomes for m in outcome.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def classes_seen(self) -> List[str]:
        return sorted(self.summaries)

    def table(self) -> str:
        """Render the per-class measured-vs-predicted summary table."""
        models = sorted({model for s in self.summaries.values() for model in s.max_cycles})
        tailed = sorted({model for s in self.summaries.values() for model in s.cycle_tails})
        headers = ["input class", "packets", "instr max meas≤pred", "mem max meas≤pred"]
        headers += [f"{model} cycles" for model in models]
        headers += [f"{model} p99 meas≤env" for model in tailed]
        scale = self.cycle_scale
        rows: List[List[str]] = []
        for name in sorted(self.summaries):
            summary = self.summaries[name]
            row = [name, str(summary.packets)]
            for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
                row.append(
                    f"{summary.max_measured.get(metric, 0)} ≤ "
                    f"{summary.max_predicted.get(metric, 0)}"
                )
            for model in models:
                measured, predicted = summary.max_cycles.get(model, (Fraction(0), Fraction(0)))
                row.append(f"{float(measured):.0f} ≤ {float(predicted):.0f}")
            for model in tailed:
                tails = summary.cycle_tails.get(model)
                envelope = summary.cycle_tail_envelopes.get(model, {})
                if not tails:
                    row.append("-")
                    continue
                row.append(
                    f"{tails[99] / scale:.0f} ≤ {envelope.get(99, 0) / scale:.0f}"
                )
            rows.append(row)
        title = f"{self.nf_name} / {self.workload}: {self.packets} packets, "
        title += "no violations" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return title + "\n" + format_table(headers, rows)

    def to_json(self) -> Dict[str, object]:
        """Serialise for the ``BENCH_*.json`` report."""
        classes: Dict[str, object] = {}
        scale = self.cycle_scale
        for name, summary in self.summaries.items():
            record: Dict[str, object] = {
                "packets": summary.packets,
                "violations": summary.violations,
                "max_measured": {str(m): v for m, v in summary.max_measured.items()},
                "max_predicted": {str(m): v for m, v in summary.max_predicted.items()},
                "max_cycles": {
                    model: {"measured": float(meas), "predicted": float(pred)}
                    for model, (meas, pred) in summary.max_cycles.items()
                },
            }
            if summary.cycle_tails:
                record["cycle_tails"] = {
                    model: {
                        **{f"p{p}": tails[p] / scale for p in TAIL_PERCENTILES},
                        "max": float(summary.max_cycles[model][0]),
                    }
                    for model, tails in summary.cycle_tails.items()
                }
                record["cycle_tail_envelopes"] = {
                    model: {f"p{p}": envelope[p] / scale for p in TAIL_PERCENTILES}
                    for model, envelope in summary.cycle_tail_envelopes.items()
                }
            classes[name] = record
        return {
            "packets": self.packets,
            "ok": self.ok,
            "violations": self.violations[:20],
            "classes": classes,
            "max_pcvs": dict(self.max_pcvs),
            "cycle_envelopes": {model: float(v) for model, v in self.envelopes.items()},
        }


class Replayer:
    """Replays workloads through an NF and scores them against its contract.

    Args:
        harness: the NF under test (module + instrumented state + glue).
        contract: the generated contract predictions are read from.
        models: hardware models to derive/price cycles with; counts are
            always checked even with no models.
    """

    def __init__(
        self,
        harness: NFTarget,
        contract: PerformanceContract,
        *,
        models: Sequence[CycleModel] = (),
    ) -> None:
        self.harness = harness
        self.contract = contract
        self.models = tuple(models)
        # A cache-simulating model prices the per-access address stream;
        # switch the harness's (off-by-default) recording on for it.
        if any(model.requires_access_stream for model in self.models) and hasattr(
            harness, "record_accesses"
        ):
            harness.record_accesses = True
        # Entries charge PCVs their path never observed at zero.
        self._zero_pcvs = {name: 0 for name in contract.variables()}
        # Harness, contract and models are fixed here, so derive each
        # entry's cycle expression (and the worst-case envelopes) once
        # instead of rebuilding them for every replayed packet.
        structures = tuple(harness.structures)
        self._cycle_exprs: Dict[str, Dict[str, PerfExpr]] = {
            model.name: {
                entry.input_class.name: model.cycles_expr(entry, structures=structures)
                for entry in contract.entries
            }
            for model in self.models
        }
        bounds = contract.registry.default_bounds()
        self._envelopes: Dict[str, Fraction] = {
            name: max([Fraction(0)] + [expr.upper_bound(bounds) for expr in exprs.values()])
            for name, exprs in self._cycle_exprs.items()
        }
        # ---- batched-replay programs (built once, run per packet) ---- #
        # Classification: the flattened (compiled predicate, entry) list
        # preserves `contract.classify` order — first entry whose class
        # predicate (or any of whose paths) matches wins.
        self._classify_program: List[Tuple[Callable[[Mapping[str, int]], bool], ContractEntry]]
        self._classify_program = []
        for entry in contract.entries:
            if entry.paths:
                for path in entry.paths:
                    self._classify_program.append(
                        (compile_conjunction(path.constraints), entry)
                    )
            else:
                self._classify_program.append((entry.input_class.matches, entry))
        # Count predictions: ceil(expr) per entry, instructions then
        # memory accesses, exact.
        self._count_programs: Dict[int, Tuple[Callable[..., int], Callable[..., int]]] = {
            id(entry): (
                entry.expr(Metric.INSTRUCTIONS).compile_ceil(),
                entry.expr(Metric.MEMORY_ACCESSES).compile_ceil(),
            )
            for entry in contract.entries
        }
        # Cycles: one global scale clears every model price and every
        # derived cycle coefficient, so measured/predicted stay exact
        # integers and compare without Fraction arithmetic.
        scale = 1
        for model in self.models:
            scale = math.lcm(scale, model.price_denominator(structures))
            for expr in self._cycle_exprs[model.name].values():
                scale = math.lcm(scale, expr.denominator_lcm())
        self._cycle_scale = scale
        self._cycle_programs: List[
            Tuple[str, Callable[[ExecutionTrace], int], Dict[str, Callable[..., int]]]
        ] = [
            (
                model.name,
                model.compile_measure(structures, scale=scale),
                {
                    name: expr.compile_scaled(scale)
                    for name, expr in self._cycle_exprs[model.name].items()
                },
            )
            for model in self.models
        ]

    def score(self, stimulus: Stimulus, index: int = 0) -> PacketOutcome:
        """Run ONE stimulus and score it against the contract.

        This is the per-packet primitive :meth:`replay` iterates — and
        what the service-graph replayer (:mod:`repro.net`) calls per hop,
        where each hop of a packet's journey is scored against that NF's
        own contract before the cumulative trace is checked against the
        composed one.  Violations are recorded on the outcome, never
        raised.
        """
        _, trace = self.harness.run(stimulus)
        env = self.harness.env(stimulus, trace)
        entry = None
        for predicate, candidate in self._classify_program:
            if predicate(env):
                entry = candidate
                break
        cycle_scale = self._cycle_scale
        violations: List[str] = []
        counts = (trace.total_instructions(), trace.total_memory_accesses())
        predicted: Optional[Tuple[int, int]] = None
        cycles_scaled: Dict[str, Tuple[int, int]] = {}
        observed = trace.pcv_bindings()
        if entry is None:
            violations.append(f"packet {index}: no contract entry covers the execution")
            class_name = None
        else:
            class_name = entry.input_class.name
            bindings = dict(self._zero_pcvs)
            bindings.update(observed)
            count_instructions, count_accesses = self._count_programs[id(entry)]
            predicted = (count_instructions(bindings), count_accesses(bindings))
            for metric, value, bound in zip(COUNT_METRICS, counts, predicted):
                if value > bound:
                    violations.append(
                        f"packet {index} ({class_name}): measured {metric} "
                        f"{value} exceeds predicted {bound}"
                    )
            for model_name, measure, predictors in self._cycle_programs:
                measured_scaled = measure(trace)
                predicted_scaled = predictors[class_name](bindings)
                cycles_scaled[model_name] = (measured_scaled, predicted_scaled)
                if measured_scaled > predicted_scaled:
                    violations.append(
                        f"packet {index} ({class_name}): {model_name} measured "
                        f"{measured_scaled / cycle_scale:.1f} cycles exceeds predicted "
                        f"{predicted_scaled / cycle_scale:.1f}"
                    )
        return PacketOutcome(
            index=index,
            note=stimulus.note,
            class_name=class_name,
            pcvs=observed,
            counts=counts,
            predicted_counts=predicted,
            violations=tuple(violations),
            cycles_scaled=cycles_scaled,
            cycle_scale=cycle_scale,
        )

    def replay(self, stimuli: Iterable[Stimulus], *, workload: str = "workload") -> ReplayResult:
        """Run every stimulus; never raises on a violation — records it."""
        outcomes: List[PacketOutcome] = []
        summaries: Dict[str, ClassSummary] = {}
        max_pcvs: Dict[str, int] = dict(self._zero_pcvs)
        score = self.score
        for index, stimulus in enumerate(stimuli):
            outcome = score(stimulus, index)
            for name, value in outcome.pcvs.items():
                if value > max_pcvs.get(name, 0):
                    max_pcvs[name] = value
            outcomes.append(outcome)
            key = outcome.class_name if outcome.class_name is not None else "<unclassified>"
            summary = summaries.get(key)
            if summary is None:
                summary = summaries[key] = ClassSummary(key, self._cycle_scale)
            summary.absorb(outcome)
        for summary in summaries.values():
            summary.compute_tails()
        return ReplayResult(
            nf_name=self.harness.name,
            workload=workload,
            outcomes=outcomes,
            summaries=summaries,
            max_pcvs=max_pcvs,
            envelopes=dict(self._envelopes),
            cycle_scale=self._cycle_scale,
        )
