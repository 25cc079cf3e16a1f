"""Counts-only replay bookkeeping: running trace totals, deferred structure
addresses and positional packet counts must agree with the per-call records
and the Metric-keyed views they replace."""

import pytest

from repro.core import Metric, PerformanceContract
from repro.hw import ConservativeModel
from repro.nf import lb, nat, router
from repro.nfil.interpreter import ExternHandler
from repro.nfil.tracer import ExecutionTrace
from repro.structures.base import Structure
from repro.traffic import Replayer

SEED = 2019


def _workloads(spec, packets=120):
    """A sampled, an adversarial and a scan stream of one NF, each on its own harness."""
    families = ("uniform", "adversarial", "scan_sweep")
    return [spec.workloads[name](SEED, packets) for name in families]


def _traces(spec, *, record_accesses=False):
    for workload in _workloads(spec):
        workload.harness.record_accesses = record_accesses
        for stimulus in workload.stimuli:
            yield workload.harness.run(stimulus)[1]


def _max_in_first_seen_order(trace):
    merged = {}
    for call in trace.extern_calls:
        for name, value in call.pcvs.items():
            merged[name] = max(merged.get(name, 0), value)
    return merged


@pytest.mark.parametrize("spec", [nat.SPEC, lb.SPEC, router.SPEC], ids=lambda s: s.name)
def test_running_totals_equal_the_sums_over_extern_calls(spec):
    traces = 0
    for trace in _traces(spec):
        calls = trace.extern_calls
        assert trace.extern_instructions() == sum(call.instructions for call in calls)
        assert trace.extern_memory_accesses() == sum(call.memory_accesses for call in calls)
        assert trace.total_instructions() == trace.instructions + trace.extern_instructions()
        assert trace.total_memory_accesses() == (
            trace.mem_reads + trace.mem_writes + trace.extern_memory_accesses()
        )
        assert [call.index for call in calls] == list(range(len(calls)))
        traces += 1
    assert traces >= 240


@pytest.mark.parametrize("spec", [nat.SPEC, lb.SPEC, router.SPEC], ids=lambda s: s.name)
def test_pcv_bindings_are_the_per_call_maxima_in_first_seen_order(spec):
    zero_keys = 0
    for trace in _traces(spec):
        expected = _max_in_first_seen_order(trace)
        bindings = trace.pcv_bindings()
        assert list(bindings.items()) == list(expected.items())
        zero_keys += sum(1 for value in bindings.values() if value == 0)
    # PCVs observed only as 0 keep their key (an idle expiry sweep observes
    # w = e = 0; the router's trie depth is never 0).
    assert zero_keys > 0 or spec is router.SPEC


def test_pcv_bindings_keep_zero_observations_and_first_seen_order():
    trace = ExecutionTrace()
    trace.record_extern("a", (), 1, pcvs={"z": 0, "t": 2})
    trace.record_extern("b", (), None, pcvs={"e": 0, "t": 1})
    trace.record_extern("c", (), None)
    trace.record_extern("d", (), None, pcvs={"e": 3})
    assert list(trace.pcv_bindings().items()) == [("z", 0), ("t", 2), ("e", 3)]
    # The result is a copy: mutating it leaves the trace alone.
    trace.pcv_bindings()["t"] = 99
    assert trace.pcv_bindings()["t"] == 2


@pytest.fixture
def slot_addr_calls(monkeypatch):
    """Count every Structure.slot_addr call (what every touched list is built of)."""
    calls = []
    original = Structure.slot_addr

    def counted(self, slot):
        calls.append(slot)
        return original(self, slot)

    monkeypatch.setattr(Structure, "slot_addr", counted)
    return calls


@pytest.mark.parametrize("spec", [nat.SPEC, lb.SPEC, router.SPEC], ids=lambda s: s.name)
def test_counts_only_replay_builds_no_touched_addresses(spec, slot_addr_calls):
    traces = list(_traces(spec, record_accesses=False))
    assert sum(len(trace.extern_calls) for trace in traces) > 100
    assert all(trace.addrs == [] for trace in traces)
    assert slot_addr_calls == []
    # The same replay with recording on does build them.
    list(_traces(spec, record_accesses=True))
    assert slot_addr_calls


@pytest.mark.parametrize("spec", [nat.SPEC, lb.SPEC, router.SPEC], ids=lambda s: s.name)
def test_recorded_stream_interleaves_each_calls_resolved_accesses(spec, monkeypatch):
    resolved = []
    handle = ExternHandler.handle

    def recording(self, name, args, memory):
        result = handle(self, name, args, memory)
        resolved.append((name, result.memory_accesses, result.accesses))
        return result

    monkeypatch.setattr(ExternHandler, "handle", recording)
    checked = 0
    for trace in _traces(spec, record_accesses=True):
        calls, resolved[:] = list(resolved), []
        assert [name for name, _, _ in calls] == [call.name for call in trace.extern_calls]
        externs = {call.name for call in trace.extern_calls}
        structure_stream = [
            addr
            for addr, site in zip(trace.addrs, trace.sites)
            if site[2] in externs and site == (8, "load", site[2])
        ]
        expected = [addr for _, _, accesses in calls for addr in accesses]
        assert structure_stream == expected
        # Each call's tuple is exactly as long as the accesses it charged.
        assert all(len(accesses) == count for _, count, accesses in calls)
        stateless = len(trace.addrs) - len(structure_stream)
        assert stateless == trace.mem_reads + trace.mem_writes
        checked += bool(calls)
    assert checked > 100


def test_charged_accesses_are_built_on_first_read_and_kept():
    structure = nat.SPEC.harness().structures[0]
    method = structure.ops()[0].method
    builds = []

    def touched():
        builds.append(len(builds))
        return [structure.slot_addr(len(builds))]

    result = structure.charge(method, touched=touched)
    assert builds == [] and result.memory_accesses >= 1
    first = result.accesses
    padding = (structure.heap_base,) * (result.memory_accesses - 1)
    assert first == (structure.slot_addr(1),) + padding
    # Later reads return the same snapshot, whatever the structure does next.
    assert result.accesses is first and builds == [0]


def _partial_contract(contract, dropped):
    """``contract`` without the entry of class ``dropped``."""
    partial = PerformanceContract(contract.nf_name, registry=contract.registry)
    for entry in contract.entries:
        if entry.input_class.name != dropped:
            partial.add_entry(entry)
    return partial


def test_positional_counts_match_the_metric_keyed_views():
    workload = nat.SPEC.workloads["uniform"](SEED, 200)
    contract = _partial_contract(nat.SPEC.bench_contract(), "internal_existing")
    result = Replayer(workload.harness, contract, models=[ConservativeModel()]).replay(
        workload.stimuli
    )
    assert "<unclassified>" in result.summaries and len(result.summaries) > 1
    metrics = [Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES]
    by_class = {}
    for outcome in result.outcomes:
        assert outcome.measured == dict(zip(metrics, outcome.counts))
        assert list(outcome.measured) == metrics
        if outcome.class_name is None:
            assert outcome.predicted == {} and outcome.predicted_counts is None
            assert outcome.cycles_scaled == {}
        else:
            assert outcome.predicted == dict(zip(metrics, outcome.predicted_counts))
            assert list(outcome.predicted) == metrics
        key = outcome.class_name or "<unclassified>"
        by_class.setdefault(key, []).append(outcome)
    for name, summary in result.summaries.items():
        outcomes = by_class[name]
        assert summary.max_measured == {
            metric: max(o.measured[metric] for o in outcomes) for metric in metrics
        }
        if name == "<unclassified>":
            assert summary.max_predicted == {}
            assert summary.max_cycles == {} and summary.cycle_tails == {}
        else:
            assert summary.max_predicted == {
                metric: max(o.predicted[metric] for o in outcomes) for metric in metrics
            }
    record = result.to_json()["classes"]["<unclassified>"]
    assert record["max_predicted"] == {} and record["max_cycles"] == {}
    assert set(record["max_measured"]) == {"instructions", "memory_accesses"}
