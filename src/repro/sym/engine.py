"""Symbolic path exploration over NFIL programs.

:class:`SymbolicEngine` enumerates the execution paths of the stateless NF
code (§3.1 of the paper).  At every symbolic branch it forks, asks the
:class:`repro.sym.solver.Solver` whether each side is feasible, and — being
conservative — keeps any side the solver cannot *prove* infeasible
(UNKNOWN counts as feasible, so contracts never silently drop a path).

Calls to externs (the stateful data-structure methods) are not executed;
they are abstracted by a :class:`SymbolicModel` (§3.2: the library's
contracts stand in for its code).  The default model havocs: it returns a
fresh symbol named ``"{extern}#{call index}"`` and charges no cost.  Real
models — :class:`repro.structures.StructureModel` over any set of library
structures — additionally constrain the output and charge the
PCV-parameterised cost the structure's operation contract promises, which
BOLT folds into the generated contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.nfil.instructions import (
    BinOp,
    Br,
    Call,
    Cmp,
    ConstInstr,
    Imm,
    Instruction,
    Jmp,
    Load,
    Operand,
    Reg,
    Ret,
    Select,
    Store,
    WORD_BITS,
)
from repro.nfil.program import ExternDecl, Module
from repro.sym import expr as E
from repro.sym.expr import BV, Const, Sym
from repro.sym.paths import CallRecord, Path
from repro.sym.simplify import simplify
from repro.sym.solver import Solver
from repro.sym.state import Frame, SymbolicMemory, SymbolicState

__all__ = [
    "EngineError",
    "ExplorationLimit",
    "ModelOutcome",
    "SymbolicEngine",
    "SymbolicModel",
]


class EngineError(RuntimeError):
    """The engine met an ill-formed program or an unsupported construct."""


class ExplorationLimit(EngineError):
    """Exploration exceeded the configured path or step budget."""


@dataclass(frozen=True)
class ModelOutcome:
    """What a symbolic model produces for one extern call.

    Attributes:
        value: symbolic return value (None for void externs).
        constraints: assumptions about the output (conjoined to the path
            condition), e.g. "the returned port is valid or the sentinel".
        cost: per-metric symbolic cost of the call — an opaque mapping
            (metric -> PerfExpr) forwarded untouched to BOLT.
        pcvs: names of the PCVs the cost is written over.
    """

    value: Optional[BV] = None
    constraints: Tuple[BV, ...] = ()
    cost: Mapping[Any, Any] = field(default_factory=dict)
    pcvs: Tuple[str, ...] = ()


class SymbolicModel:
    """Base symbolic model for externs; subclass to add semantics and cost.

    The default behaviour havocs every call: value-returning externs yield
    a fresh 64-bit symbol named ``"{extern}#{index}"`` (the concrete tracer
    numbers extern calls identically, which is what lets a concrete
    execution be matched to its symbolic path), void externs yield nothing,
    and no cost is charged.
    """

    def fresh(self, decl: ExternDecl, index: int, width: int = WORD_BITS) -> Sym:
        """Return the canonical fresh output symbol for call ``index``."""
        return Sym(f"{decl.name}#{index}", width)

    def apply(
        self,
        decl: ExternDecl,
        args: Tuple[BV, ...],
        state: SymbolicState,
        index: int,
    ) -> ModelOutcome:
        """Model one extern call; override in subclasses."""
        if decl.returns_value:
            return ModelOutcome(value=self.fresh(decl, index))
        return ModelOutcome()


class SymbolicEngine:
    """Path explorer for NFIL functions."""

    def __init__(
        self,
        module: Module,
        *,
        model: Optional[SymbolicModel] = None,
        solver: Optional[Solver] = None,
        max_paths: int = 256,
        max_steps: int = 10_000,
    ) -> None:
        self.module = module
        self.model = model or SymbolicModel()
        self.solver = solver or Solver()
        self.max_paths = max_paths
        self.max_steps = max_steps
        # id(register value) -> (value, branch condition).  ``_as_bool`` is
        # pure, and forked states share register nodes, so memoising by
        # identity both skips re-simplification and maximises node sharing
        # across sibling states — which is what makes the solver's
        # canonical-key and verdict caches hit (see repro.sym.solver).
        self._bool_memo: dict[int, Tuple[BV, BV]] = {}
        # id(condition) -> (condition, negation), for the same reason.
        self._not_memo: dict[int, Tuple[BV, BV]] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def explore(
        self,
        function_name: str,
        args: Sequence[Union[BV, int]],
        *,
        memory: Optional[SymbolicMemory] = None,
        constraints: Sequence[BV] = (),
        solve_models: bool = True,
    ) -> List[Path]:
        """Explore every path of ``function_name`` from symbolic inputs.

        Args:
            function_name: entry function of the analysis.
            args: one initial value per parameter; ints become constants,
                narrower expressions are zero-extended to 64 bits.
            memory: initial symbolic memory (e.g. a symbolic packet buffer
                installed with
                :meth:`repro.sym.state.SymbolicMemory.write_symbolic`).
            constraints: initial assumptions (e.g. ``in_port < 64``).
            solve_models: when True (default), ask the solver for a concrete
                input assignment per completed path so the path can be
                replayed by the concrete interpreter.

        Returns:
            The completed paths in deterministic discovery order.
        """
        function = self.module.functions.get(function_name)
        if function is None:
            raise EngineError(f"unknown function {function_name!r}")
        if len(args) != len(function.params):
            raise EngineError(
                f"{function_name} expects {len(function.params)} args, got {len(args)}"
            )
        registers = {param.name: self._coerce(value) for param, value in zip(function.params, args)}
        state = SymbolicState(
            memory=memory if memory is not None else SymbolicMemory(),
            frames=[Frame(function, function.entry, 0, registers)],
        )
        for constraint in constraints:
            state.assume(constraint)

        worklist: List[SymbolicState] = [state]
        paths: List[Path] = []
        while worklist:
            current = worklist.pop()
            while not current.finished:
                if current.steps >= self.max_steps:
                    raise ExplorationLimit(
                        f"path exceeded {self.max_steps} steps in {function_name}"
                    )
                self._step(current, worklist, paths)
            if self._dropped(current):
                continue
            paths.append(self._finalise(current, function_name, len(paths), solve_models))
        return paths

    @staticmethod
    def _dropped(state: SymbolicState) -> bool:
        """True for states whose path condition collapsed to literal false."""
        return any(isinstance(c, Const) and c.value == 0 for c in state.path_condition)

    # ------------------------------------------------------------------ #
    # Machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(value: Union[BV, int]) -> BV:
        if isinstance(value, BV):
            return E.zext(value, WORD_BITS) if value.width < WORD_BITS else value
        return Const(int(value), WORD_BITS)

    def _operand(self, operand: Operand, state: SymbolicState) -> BV:
        if isinstance(operand, Imm):
            return Const(operand.value, WORD_BITS)
        if isinstance(operand, Reg):
            return state.get_reg(operand.name)
        raise EngineError(f"bad operand {operand!r}")  # pragma: no cover

    def _as_bool(self, value: BV) -> BV:
        """Turn a 64-bit register value into a width-1 branch condition."""
        memo = self._bool_memo.get(id(value))
        if memo is not None:
            return memo[1]
        condition = self._as_bool_uncached(value)
        self._bool_memo[id(value)] = (value, condition)
        return condition

    @staticmethod
    def _as_bool_uncached(value: BV) -> BV:
        condition = simplify(E.ne(value, Const(0, value.width)))
        # simplify() narrows `zext(x) != 0` to `x != 0`; for width-1 x that
        # comparison *is* x, which keeps path conditions readable.
        if (
            isinstance(condition, E.Cmp)
            and condition.op == "ne"
            and isinstance(condition.b, Const)
            and condition.b.value == 0
            and condition.a.width == 1
        ):
            return condition.a
        return condition

    def _fetch(self, state: SymbolicState) -> Instruction:
        frame = state.frame
        block = frame.function.blocks.get(frame.block)
        if block is None:
            raise EngineError(f"{frame.function.name}: unknown block {frame.block!r}")
        if frame.index >= len(block.instructions):
            raise EngineError(
                f"{frame.function.name}:{frame.block} fell through without terminator"
            )
        instruction = block.instructions[frame.index]
        frame.index += 1
        return instruction

    def _step(
        self,
        state: SymbolicState,
        worklist: List[SymbolicState],
        paths: List[Path],
    ) -> None:
        instruction = self._fetch(state)
        state.steps += 1
        state.instructions += 1
        frame = state.frame
        if isinstance(instruction, ConstInstr):
            state.set_reg(instruction.dest, Const(instruction.value, WORD_BITS))
        elif isinstance(instruction, BinOp):
            a = self._operand(instruction.a, state)
            b = self._operand(instruction.b, state)
            state.set_reg(instruction.dest, E.binop(instruction.op, a, b))
        elif isinstance(instruction, Cmp):
            a = self._operand(instruction.a, state)
            b = self._operand(instruction.b, state)
            state.set_reg(instruction.dest, E.zext(E.cmp(instruction.op, a, b), WORD_BITS))
        elif isinstance(instruction, Select):
            condition = self._as_bool(self._operand(instruction.cond, state))
            a = self._operand(instruction.a, state)
            b = self._operand(instruction.b, state)
            state.set_reg(instruction.dest, E.ite(condition, a, b))
        elif isinstance(instruction, Load):
            addr = self._operand(instruction.addr, state)
            state.set_reg(instruction.dest, state.load(addr, instruction.size))
        elif isinstance(instruction, Store):
            addr = self._operand(instruction.addr, state)
            value = self._operand(instruction.value, state)
            state.store(addr, value, instruction.size)
        elif isinstance(instruction, Br):
            self._branch(instruction, state, worklist, paths)
        elif isinstance(instruction, Jmp):
            frame.block = instruction.label
            frame.index = 0
        elif isinstance(instruction, Call):
            self._call(instruction, state)
        elif isinstance(instruction, Ret):
            self._return(instruction, state)
        else:  # pragma: no cover - defensive
            raise EngineError(f"cannot execute {type(instruction).__name__}")

    def _branch(
        self,
        instruction: Br,
        state: SymbolicState,
        worklist: List[SymbolicState],
        paths: List[Path],
    ) -> None:
        condition = self._as_bool(self._operand(instruction.cond, state))
        frame = state.frame
        if isinstance(condition, Const):
            frame.block = (
                instruction.then_label if condition.value else instruction.else_label
            )
            frame.index = 0
            return
        memo = self._not_memo.get(id(condition))
        if memo is not None:
            negated = memo[1]
        else:
            negated = E.bnot(condition)
            self._not_memo[id(condition)] = (condition, negated)
        # Conservative feasibility: keep a side unless the solver proves it
        # infeasible (UNKNOWN => keep).  Both queries flow through the
        # solver's memoisation layer: the shared path-condition prefix is
        # canonicalised once (by node identity), and the verdict cached
        # for this exact conjunction is what `_finalise` reuses when it
        # asks for the surviving side's model.
        then_ok = self.solver.is_feasible(state.path_condition + [condition])
        else_ok = self.solver.is_feasible(state.path_condition + [negated])
        if not then_ok and not else_ok:
            # Both sides refuted: the path condition itself is infeasible.
            # Drop the state entirely (it contributes no path).
            state.finished = True
            state.returned = None
            state.path_condition.append(Const(0, 1))
            return
        if then_ok and else_ok:
            if len(paths) + len(worklist) + 2 > self.max_paths:
                raise ExplorationLimit(
                    f"exceeded {self.max_paths} paths exploring "
                    f"{frame.function.name}"
                )
            fork = state.clone()
            fork.assume(negated)
            fork.frame.block = instruction.else_label
            fork.frame.index = 0
            worklist.append(fork)
            state.assume(condition)
            frame.block = instruction.then_label
        elif then_ok:
            state.assume(condition)
            frame.block = instruction.then_label
        else:
            state.assume(negated)
            frame.block = instruction.else_label
        frame.index = 0

    def _call(self, instruction: Call, state: SymbolicState) -> None:
        args = tuple(self._operand(arg, state) for arg in instruction.args)
        if self.module.is_extern(instruction.callee):
            decl = self.module.externs[instruction.callee]
            if len(args) != decl.arity:
                raise EngineError(f"extern {decl.name} expects {decl.arity} args, got {len(args)}")
            index = len(state.calls)
            outcome = self.model.apply(decl, args, state, index)
            state.calls.append(
                CallRecord(
                    index=index,
                    name=decl.name,
                    args=args,
                    result=outcome.value,
                    cost=outcome.cost,
                    pcvs=tuple(outcome.pcvs),
                    structure=decl.structure,
                    method=decl.method,
                )
            )
            for constraint in outcome.constraints:
                state.assume(constraint)
            if instruction.dest is not None:
                if outcome.value is None:
                    raise EngineError(
                        f"extern {decl.name} produced no value for %{instruction.dest}"
                    )
                state.set_reg(instruction.dest, outcome.value)
            return
        callee = self.module.functions.get(instruction.callee)
        if callee is None:
            raise EngineError(f"call to unknown symbol {instruction.callee!r}")
        if len(args) != len(callee.params):
            raise EngineError(f"{callee.name} expects {len(callee.params)} args, got {len(args)}")
        state.frame.ret_dest = instruction.dest
        registers = {param.name: value for param, value in zip(callee.params, args)}
        state.frames.append(Frame(callee, callee.entry, 0, registers))

    def _return(self, instruction: Ret, state: SymbolicState) -> None:
        value = (
            self._operand(instruction.value, state)
            if instruction.value is not None
            else None
        )
        state.frames.pop()
        if not state.frames:
            state.returned = value
            state.finished = True
            return
        caller = state.frame
        if caller.ret_dest is not None:
            if value is None:
                raise EngineError("void return into a destination register")
            caller.registers[caller.ret_dest] = value
            caller.ret_dest = None

    def _finalise(
        self,
        state: SymbolicState,
        function_name: str,
        pid: int,
        solve_models: bool,
    ) -> Path:
        model: Optional[dict] = None
        feasibility = "unknown"
        if solve_models:
            model = self.solver.model(state.path_condition)
            if model is not None:
                feasibility = "sat"
        return Path(
            pid=pid,
            function=function_name,
            constraints=tuple(state.path_condition),
            calls=tuple(state.calls),
            returned=state.returned,
            instructions=state.instructions,
            memory_accesses=state.memory_accesses,
            model=model,
            feasibility=feasibility,
        )
