"""The BOLT contract generator (§3, Algorithm 2 of the paper).

BOLT derives a performance contract for an NF in three steps:

1. **Explore** — symbolically execute the stateless NF code with the
   stateful data structures replaced by their symbolic models
   (:class:`repro.sym.engine.SymbolicEngine`).  Each resulting
   :class:`~repro.sym.paths.Path` carries its exact stateless
   instruction/memory counts and one :class:`~repro.sym.paths.CallRecord`
   per stateful call.
2. **Cost** — for every path and metric, sum the (constant) stateless cost
   with the PCV-parameterised contract terms of each stateful call,
   yielding one :class:`~repro.core.perfexpr.PerfExpr` per path.
3. **Merge** — group paths into input classes (via the configured
   classifier) and merge each group with
   :func:`~repro.core.contract.upper_envelope`, producing one contract
   entry per class.  The merged entry keeps its paths, so concrete
   executions can be classified and cross-checked later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.contract import (
    ContractEntry,
    Metric,
    PerformanceContract,
    upper_envelope,
)
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.core.perfexpr import PerfExpr
from repro.nfil.program import Module
from repro.sym.engine import SymbolicEngine, SymbolicModel
from repro.sym.expr import BV
from repro.sym.paths import Path
from repro.sym.solver import Solver, SolverStats
from repro.sym.state import SymbolicMemory

__all__ = ["Bolt", "BoltConfig"]

#: Maps a path to its input class: a name or a full InputClass.
Classifier = Callable[[Path], Union[str, InputClass]]


def _default_classifier(path: Path) -> str:
    """Fallback grouping: every path lands in one catch-all class."""
    return "all"


@dataclass
class BoltConfig:
    """Tuning knobs for contract generation.

    Attributes:
        metrics: which metrics the generated contract covers.
        classifier: maps each explored path to its input class; None (the
            default) groups every path into a single catch-all class.
        max_paths: path budget for symbolic exploration.
        max_steps: per-path step budget for symbolic exploration.
        solver: solver instance (shared between feasibility checks and
            model generation); a default one is created when omitted.
        solve_models: ask the solver for a concrete witness per path, so
            paths can be replayed through the concrete interpreter.
        keep_infeasible_unknown: keep paths whose feasibility the solver
            could not establish (conservative, the paper's choice).  When
            False, only solver-verified ("sat") paths enter the contract.
    """

    metrics: Tuple[Metric, ...] = (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES)
    classifier: Optional[Classifier] = None
    max_paths: int = 256
    max_steps: int = 10_000
    solver: Optional[Solver] = None
    solve_models: bool = True
    keep_infeasible_unknown: bool = True


class Bolt:
    """Generates a performance contract for one NFIL entry function."""

    def __init__(
        self,
        module: Module,
        function: str,
        *,
        model: Optional[SymbolicModel] = None,
        registry: Optional[PCVRegistry] = None,
        config: Optional[BoltConfig] = None,
    ) -> None:
        self.module = module
        self.function = function
        self.model = model or SymbolicModel()
        self.registry = registry or PCVRegistry()
        self.config = config or BoltConfig()
        self.paths: List[Path] = []
        self._solver: Optional[Solver] = None

    @property
    def solver(self) -> Solver:
        """The solver used by exploration, created lazily and retained.

        Retention matters: the solver memoises canonical constraint forms
        by node identity and caches verdicts per exact constraint keyset
        (see :class:`repro.sym.solver.Solver`), so repeated explorations
        of the same module reuse each other's verdicts instead of
        re-solving from scratch.
        """
        if self.config.solver is not None:
            return self.config.solver
        if self._solver is None:
            self._solver = Solver()
        return self._solver

    @property
    def solver_stats(self) -> SolverStats:
        """Counters of the retained solver (cache hits, prunes, ...)."""
        return self.solver.stats

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #
    def explore(
        self,
        args: Sequence[Union[BV, int]],
        *,
        memory: Optional[SymbolicMemory] = None,
        constraints: Sequence[BV] = (),
    ) -> List[Path]:
        """Run symbolic exploration; returns (and caches) the paths."""
        engine = SymbolicEngine(
            self.module,
            model=self.model,
            solver=self.solver,
            max_paths=self.config.max_paths,
            max_steps=self.config.max_steps,
        )
        paths = engine.explore(
            self.function,
            args,
            memory=memory,
            constraints=constraints,
            solve_models=self.config.solve_models,
        )
        if not self.config.keep_infeasible_unknown:
            paths = [path for path in paths if path.feasibility == "sat"]
        self.paths = paths
        return paths

    def path_cost(self, path: Path, metric: Metric) -> PerfExpr:
        """Stateless constant cost + the contract terms of each call."""
        if metric is Metric.INSTRUCTIONS:
            total = PerfExpr.constant(path.instructions)
        elif metric is Metric.MEMORY_ACCESSES:
            total = PerfExpr.constant(path.memory_accesses)
        else:  # pragma: no cover - defensive for future metrics
            total = PerfExpr.zero()
        for call in path.calls:
            term = call.cost.get(metric)
            if term is not None:
                total = total + PerfExpr.coerce(term)
        return total

    def generate(
        self,
        args: Sequence[Union[BV, int]],
        *,
        memory: Optional[SymbolicMemory] = None,
        constraints: Sequence[BV] = (),
    ) -> PerformanceContract:
        """Produce the performance contract for the configured function.

        Args:
            args: symbolic initial values, one per function parameter.
            memory: initial symbolic memory (symbolic packet buffer etc.).
            constraints: initial assumptions on the inputs.
        """
        paths = self.explore(args, memory=memory, constraints=constraints)
        classifier = self.config.classifier or _default_classifier
        groups: Dict[str, List[Path]] = {}
        classes: Dict[str, InputClass] = {}
        for path in paths:
            assigned = classifier(path)
            if isinstance(assigned, InputClass):
                name = assigned.name
                classes.setdefault(name, assigned)
            else:
                name = assigned
                classes.setdefault(name, InputClass(name))
            groups.setdefault(name, []).append(path)

        contract = PerformanceContract(self.function, registry=self.registry)
        for name in sorted(groups):
            group = groups[name]
            exprs = {
                metric: upper_envelope(self.path_cost(path, metric) for path in group)
                for metric in self.config.metrics
            }
            contract.add_entry(
                ContractEntry(
                    input_class=classes[name],
                    exprs=exprs,
                    paths=tuple(group),
                )
            )
        return contract
