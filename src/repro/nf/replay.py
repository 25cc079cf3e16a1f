"""One input layout per NF: the shared symbolic and concrete glue.

Bolt's symbolic analysis and the traced concrete replay both drive the
NF's NFIL entry function, whose first parameter is the packet pointer and
whose remaining parameters are the scalar inputs (``len``, ``in_port``,
``time``, ...).  Each NF states the rest once, as an :class:`InputLayout`:
where the packet buffer lives, how many leading packet bytes are
symbolic, and the domain of any bounded scalar.  Both sides derive
everything else from that layout plus the function's declared params:

* the symbolic side (:func:`symbolic_inputs`, :func:`generate_nf_contract`)
  makes the packet bytes the symbols ``pkt[i]`` and each scalar the
  symbol named after its parameter, constrained to its declared domain;
* the concrete side (:class:`NFHarness`, :func:`replay_env`) calls the
  function with the scalars in parameter order and maps an execution
  back onto the same names, with each value-returning extern call bound
  to the model-output symbol ``"{extern}#{index}"`` (the symbolic engine
  and the concrete tracer number extern calls identically).

:class:`NFHarness` is the object the :class:`repro.traffic.replayer.
Replayer` drives: it owns the interpreter, writes each stimulus packet
into NF memory, builds the argument list, and reconstructs the replay
environment that matches the execution back to a symbolic path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.bolt import Bolt, BoltConfig, Classifier
from repro.core.contract import PerformanceContract
from repro.nfil.interpreter import ExternHandler, Interpreter, Memory
from repro.nfil.program import Module
from repro.nfil.tracer import ExecutionTrace
from repro.structures.base import Structure, StructureModel, check_extern_collisions
from repro.sym import expr as E
from repro.sym.expr import BV, Const, Sym
from repro.sym.state import SymbolicMemory
from repro.traffic.generators import Stimulus

__all__ = [
    "InputLayout",
    "NFHarness",
    "generate_nf_contract",
    "replay_env",
    "symbolic_inputs",
]


@dataclass(frozen=True)
class InputLayout:
    """How one NF's entry function receives its inputs.

    Attributes:
        pkt_base: address the packet buffer is written to (the value of
            the function's first, pointer parameter).
        sym_bytes: how many leading packet bytes are symbolic during
            contract generation (the replay environment covers exactly
            those).
        domain: exclusive upper bound of each bounded scalar parameter
            (e.g. ``{"in_port": MAX_PORTS}``); the contract assumes
            ``name < bound``.  Scalars not listed are unconstrained.
    """

    pkt_base: int
    sym_bytes: int
    domain: Mapping[str, int] = field(default_factory=dict)


def _scalar_params(module: Module, function: str) -> Tuple[str, ...]:
    """The scalar parameters of ``function``, in call order (after ``pkt``)."""
    return tuple(module.functions[function].param_names()[1:])


def symbolic_inputs(
    module: Module, function: str, layout: InputLayout
) -> Tuple[List[BV], SymbolicMemory, List[BV]]:
    """Symbolic initial state of one invocation of ``function``.

    Returns ``(args, memory, constraints)``: the packet bytes are fresh
    symbols ``pkt[i]`` at ``layout.pkt_base``, each scalar is the symbol
    named after its parameter, and each bounded scalar is assumed inside
    its domain (constraints in parameter order).
    """
    memory = SymbolicMemory()
    memory.write_symbolic(layout.pkt_base, layout.sym_bytes, "pkt")
    scalars = [Sym(name, 64) for name in _scalar_params(module, function)]
    args: List[BV] = [Const(layout.pkt_base, 64), *scalars]
    # One Sym object per scalar serves as both argument and constrained
    # term: the solver's normalisation caches are keyed by node identity.
    constraints = [
        E.ult(scalar, Const(layout.domain[scalar.name], 64))
        for scalar in scalars
        if scalar.name in layout.domain
    ]
    return args, memory, constraints


def generate_nf_contract(
    module: Module,
    function: str,
    structures: Sequence[Structure],
    layout: InputLayout,
    classifier: Classifier,
    *,
    config: Optional[BoltConfig] = None,
) -> PerformanceContract:
    """Run BOLT end-to-end on one NF and return its contract.

    ``structures`` back the NF's state (a :class:`StructureModel` over all
    of them supplies the symbolic model and the merged PCV registry);
    ``classifier`` groups paths into input classes unless ``config``
    names its own.  The caller's ``config`` is never modified.
    """
    if config is None:
        config = BoltConfig(classifier=classifier)
    elif config.classifier is None:
        config = replace(config, classifier=classifier)
    model = StructureModel(*structures)
    bolt = Bolt(module, function, model=model, registry=model.registry(), config=config)
    args, memory, constraints = symbolic_inputs(module, function, layout)
    return bolt.generate(args, memory=memory, constraints=constraints)


# The ``pkt[i]`` symbol names, interned once: replay builds one env per
# packet, and formatting the same key strings 10^4+ times per workload is
# measurable.  The list only ever grows.
_PKT_KEYS: List[str] = []


def _pkt_keys(count: int) -> List[str]:
    while len(_PKT_KEYS) < count:
        _PKT_KEYS.append(f"pkt[{len(_PKT_KEYS)}]")
    return _PKT_KEYS


# The ``"{extern}#{index}"`` model-output names, interned the same way:
# extern name -> the names of its calls at index 0, 1, ...
_CALL_KEYS: Dict[str, List[str]] = {}


def _call_key(name: str, index: int) -> str:
    keys = _CALL_KEYS.setdefault(name, [])
    while len(keys) <= index:
        keys.append(f"{name}#{len(keys)}")
    return keys[index]


def replay_env(
    packet: bytes,
    sym_bytes: int,
    trace: ExecutionTrace,
    **scalars: int,
) -> Dict[str, int]:
    """Build the symbol assignment a concrete execution corresponds to.

    Args:
        packet: the concrete packet buffer (only the first ``sym_bytes``
            bytes were symbolic during analysis).
        sym_bytes: how many leading packet bytes the NF made symbolic.
        trace: the execution's trace; extern results become the
            ``"{extern}#{index}"`` model-output bindings.
        **scalars: concrete values of the NF's scalar inputs, keyed by
            their symbol names (e.g. ``len=60, in_port=3``).
    """
    env: Dict[str, int] = dict(zip(_pkt_keys(sym_bytes), packet[:sym_bytes]))
    env.update(scalars)
    for call in trace.extern_calls:
        if call.result is not None:
            env[_call_key(call.name, call.index)] = call.result
    return env


class NFHarness:
    """One NF wired for concrete replay: module, state, and input layout.

    Args:
        name: NF name used in replay results and bench reports.
        module: the NF's (validated) NFIL module.
        function: entry function to invoke per stimulus.
        structures: the structure instances backing the NF's state.  Their
            handlers merge into the interpreter's one extern dispatch
            table, and the hardware models use them to attribute extern
            memory accesses.
        layout: the NF's :class:`InputLayout`.  The scalar arguments
            follow ``function``'s declared params (after ``pkt``); a
            stimulus that omits ``len`` gets the literal packet length.
        capture_output: when True, each :meth:`run` also reads the packet
            buffer back out of NF memory into :attr:`last_packet` — the
            post-rewrite bytes a downstream hop of a service graph
            receives.  Off by default: single-NF replay never looks at
            the egress bytes and the copy would cost on the bench's hot
            loop.
    """

    def __init__(
        self,
        name: str,
        module: Module,
        function: str,
        *,
        structures: Tuple[Structure, ...],
        layout: InputLayout,
        capture_output: bool = False,
    ) -> None:
        # Refuse ambiguous extern manglings up front (`a_b`+`c` vs `a`+`b_c`):
        # a collision here would cross-wire cost attribution silently.
        check_extern_collisions(structures)
        self.name = name
        self.module = module
        self.function = function
        self.structures = structures
        self.layout = layout
        self.scalar_order = _scalar_params(module, function)
        self.capture_output = capture_output
        #: Egress packet bytes of the last :meth:`run` (post NF rewrites);
        #: only populated when ``capture_output`` is on.
        self.last_packet: bytes = b""
        #: Whether :meth:`run` materialises the per-access address stream
        #: (``ExecutionTrace.addrs``).  Off by default — counts are all
        #: plain replay needs — and switched on by the replayer when a
        #: cache-simulating hardware model is in the model set.
        self.record_accesses: bool = False
        handler = ExternHandler()
        for structure in structures:
            handler.merge(structure)
        self._interpreter = Interpreter(module, handler=handler)
        self._scalar_memo: Optional[Tuple[Stimulus, Dict[str, int]]] = None

    def scalars_for(self, stimulus: Stimulus) -> Dict[str, int]:
        """Resolve the stimulus scalars, defaulting ``len`` to the buffer.

        The replayer resolves the same stimulus twice per packet (once to
        run it, once to build its replay environment), so the last
        resolution is memoised by stimulus identity.
        """
        memo = self._scalar_memo
        if memo is not None and memo[0] is stimulus:
            return memo[1]
        scalars = dict(stimulus.scalars)
        if "len" in self.scalar_order:
            scalars.setdefault("len", len(stimulus.packet))
        missing = [name for name in self.scalar_order if name not in scalars]
        if missing:
            raise KeyError(f"{self.name}: stimulus missing scalars {missing}")
        self._scalar_memo = (stimulus, scalars)
        return scalars

    def run(self, stimulus: Stimulus) -> Tuple[Optional[int], ExecutionTrace]:
        """Execute one stimulus against the live NF state."""
        scalars = self.scalars_for(stimulus)
        pkt_base = self.layout.pkt_base
        memory = Memory()
        memory.write_bytes(pkt_base, stimulus.packet)
        args = [pkt_base] + [scalars[name] for name in self.scalar_order]
        # Plain replay only consumes aggregate counts; the address stream
        # is materialised only when a cache simulator will consume it.
        trace = ExecutionTrace(record_accesses=self.record_accesses)
        result = self._interpreter.run(self.function, args, memory=memory, trace=trace)
        if self.capture_output:
            self.last_packet = memory.read_bytes(pkt_base, len(stimulus.packet))
        return result

    def env(self, stimulus: Stimulus, trace: ExecutionTrace) -> Dict[str, int]:
        """Build the replay environment of one executed stimulus."""
        scalars = self.scalars_for(stimulus)
        return replay_env(stimulus.packet, self.layout.sym_bytes, trace, **scalars)
