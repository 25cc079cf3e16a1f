"""Per-instance PCV namespacing: collisions that must no longer exist.

The satellite coverage for the namespacing refactor: two same-kind
instances in one NF produce disjoint PCVs, disjoint contract columns and
independent adversarial bounds; extern-name manglings that would alias
dispatch are rejected; and the name/rename primitives behave.
"""

import pytest

from repro.core import Metric, PerfExpr, qualify_name, split_name
from repro.core.pcv import PCV
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.nfil.validate import validate_module
from repro.core.bolt import Bolt, BoltConfig
from repro.nf.replay import InputLayout, NFHarness
from repro.nfil import ExternHandler
from repro.structures import (
    ExpiringMap,
    OpSpec,
    Structure,
    StructureModel,
    check_extern_collisions,
    linear_cost,
)
from repro.sym.expr import Sym


# --------------------------------------------------------------------------- #
# Name primitives
# --------------------------------------------------------------------------- #
def test_qualify_and_split_roundtrip():
    assert qualify_name("fwd", "t") == "fwd.t"
    assert split_name("fwd.t") == ("fwd", "t")
    assert split_name("t") == (None, "t")
    with pytest.raises(ValueError):
        qualify_name("fwd", "rev.t")  # already qualified
    with pytest.raises(ValueError):
        qualify_name("f wd", "t")


def test_pcv_accepts_qualified_names_and_qualifies():
    local = PCV("t", "traversals", max_value=8)
    qualified = local.qualify("fwd")
    assert qualified.name == "fwd.t"
    assert qualified.instance == "fwd"
    assert qualified.symbol == "t"
    assert qualified.structure == "fwd"
    assert qualified.max_value == 8
    # Re-homing an already-qualified PCV replaces the namespace.
    assert qualified.qualify("rev").name == "rev.t"
    with pytest.raises(ValueError):
        PCV("fwd.rev.t", "too many dots")
    with pytest.raises(ValueError):
        PCV(".t", "empty instance")


def test_perfexpr_accepts_and_renames_qualified_vars():
    expr = PerfExpr.from_terms(t=6, const=5) + PerfExpr({("t", "e"): 2})
    renamed = expr.rename({"t": "fwd.t", "e": "fwd.e"})
    assert renamed.coefficient("fwd.t") == 6
    assert renamed.coefficient("fwd.t", "fwd.e") == 2
    assert renamed.constant_term() == 5
    assert renamed.variables() == {"fwd.t", "fwd.e"}
    # A renaming that collapses two distinct PCVs is refused — whether
    # they meet inside one product monomial (cross term would become a
    # square) or only across monomials (two variables would merge).
    with pytest.raises(ValueError):
        expr.rename({"t": "x", "e": "x"})
    with pytest.raises(ValueError):
        PerfExpr.from_terms(t=2, w=3).rename({"t": "x", "w": "x"})


# --------------------------------------------------------------------------- #
# Two same-kind instances in one NF
# --------------------------------------------------------------------------- #
def _twin_module(a: ExpiringMap, b: ExpiringMap) -> Module:
    """A toy NF touching two expiring maps: get from each, sum paths."""
    module = Module("twin")
    a.declare(module)
    b.declare(module)
    fb = FunctionBuilder("twin_process", params=("key",))
    va = fb.call(a.extern_name("get"), fb.param("key"), name="va")
    vb = fb.call(b.extern_name("get"), fb.param("key"), name="vb")
    fb.ret(fb.add(va, vb))
    module.add_function(fb.build())
    return validate_module(module)


def test_same_kind_instances_have_disjoint_pcvs_and_columns():
    """Two ExpiringMap instances with different geometries keep separate
    registry bounds and separate contract columns."""
    small = ExpiringMap("small", capacity=4, timeout=10)
    large = ExpiringMap("large", capacity=32, timeout=10)
    model = StructureModel(small, large)
    registry = model.registry()
    assert set(registry.names()) == {
        "small.t", "small.w", "small.e", "large.t", "large.w", "large.e",
    }
    # Independent bounds: what the old shared-PCV widening destroyed.
    assert registry.get("small.t").max_value == 4
    assert registry.get("large.t").max_value == 32

    module = _twin_module(small, large)
    bolt = Bolt(
        module,
        "twin_process",
        model=model,
        registry=registry,
        config=BoltConfig(classifier=lambda path: "all"),
    )
    contract = bolt.generate([Sym("key", 64)])
    entry = contract.entry_for("all")
    instr = entry.expr(Metric.INSTRUCTIONS)
    # One get against each instance: 6 small.t + 6 large.t, never 12 t.
    assert instr.coefficient("small.t") == 6
    assert instr.coefficient("large.t") == 6
    assert instr.coefficient("t") == 0
    # Worst case at bounds uses each instance's own capacity.
    bound = contract.upper_bound(Metric.INSTRUCTIONS)
    stateless = instr.constant_term()
    assert bound == stateless + 6 * 4 + 6 * 32


def test_concrete_traces_report_disjoint_observations():
    """Replaying the twin NF observes each instance's PCVs under its own
    namespace: a long chain in one map never inflates the other's ``t``."""
    small = ExpiringMap("small", capacity=4, timeout=10, buckets=1)  # all collide
    large = ExpiringMap("large", capacity=32, timeout=10)
    for i in range(4):
        small.insert(i, i, now=0)
    large.insert(0, 7, now=0)
    module = _twin_module(small, large)
    from repro.nfil import Interpreter

    handler = ExternHandler().merge(small).merge(large)
    interp = Interpreter(module, handler=handler)
    _, trace = interp.run("twin_process", [3])
    bindings = trace.pcv_bindings()
    assert bindings["small.t"] == 4  # walked the whole crafted chain
    assert bindings["large.t"] <= 1  # the healthy map stayed healthy


def test_duplicate_instance_names_rejected_symbolically_and_concretely():
    """Two distinct instances under one name would alias their PCVs and
    silently rebind extern dispatch; both pipelines must refuse them."""
    a = ExpiringMap("dup", capacity=4, timeout=10)
    b = ExpiringMap("dup", capacity=8, timeout=10)
    with pytest.raises(ValueError):
        ExternHandler().merge(a).merge(b)
    with pytest.raises(ValueError, match="must be unique"):
        StructureModel(a, b)
    with pytest.raises(ValueError, match="must be unique"):
        check_extern_collisions((a, b))
    # The same object twice is harmless and stays accepted.
    check_extern_collisions((a, a))
    assert StructureModel(a, a).registry().get("dup.t").max_value == 4


# --------------------------------------------------------------------------- #
# Extern-mangling collisions (`a_b` + `c` vs `a` + `b_c`)
# --------------------------------------------------------------------------- #
class _OneOp(Structure):
    """Minimal structure with a configurable single method name."""

    kind = "one_op"

    def __init__(self, name: str, method: str) -> None:
        self._method = method
        setattr(self, f"_op_{method}", self._serve)
        super().__init__(name)

    def ops(self):
        return (OpSpec(self._method, 1, False, linear_cost("t", instr=(2, 1), mem=(1, 1)), ("t",)),)

    def pcvs(self):
        return (PCV("t", "steps", structure=self.name, max_value=4),)

    def _serve(self, args, memory):
        return self.charge(self._method, t=0)


def test_mangled_extern_collisions_are_rejected_everywhere():
    colliding = (_OneOp("a_b", "c"), _OneOp("a", "b_c"))  # both mangle to a_b_c
    with pytest.raises(ValueError, match="ambiguous after mangling"):
        check_extern_collisions(colliding)
    with pytest.raises(ValueError, match="ambiguous after mangling"):
        StructureModel(*colliding)
    with pytest.raises(ValueError, match="ambiguous after mangling"):
        NFHarness(
            "toy",
            Module("toy"),
            "f",
            structures=colliding,
            layout=InputLayout(pkt_base=0x1000, sym_bytes=0),
        )
    # The module-level extern declarations refuse the same collision.
    module = Module("collide")
    colliding[0].declare(module)
    with pytest.raises(ValueError, match="conflicting extern declarations"):
        colliding[1].declare(module)
    # Non-colliding underscore names stay fine.
    check_extern_collisions((_OneOp("a_b", "c"), _OneOp("a", "d_c")))
