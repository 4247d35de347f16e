"""Tests of the benchmark's own arithmetic and hooks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench_stats  # noqa: E402
import hooks  # noqa: E402
from hooks import Hook, Span, Tracer, layer_metrics, summarize  # noqa: E402
from oracle_locc import locc, netsim, protocols, quantum  # noqa: E402
from oracle_locc.oracle import FunctionTable  # noqa: E402


# --- tail rule ----------------------------------------------------------------

@pytest.mark.parametrize("n", [11, 20, 57, 100, 1000])
def test_tail_has_exactly_ten_samples_beyond_it(n):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    pct, value = bench_stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_hundred_is_p90():
    assert bench_stats.tail(range(1, 101)) == (90.0, 90.0)


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert bench_stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert bench_stats.tail(range(10)) == (100.0, 9.0)


def test_relative_spread_matches_statistics_quantiles():
    # quantiles(n=4) of 1..9 are 2.5, 5, 7.5
    assert bench_stats.relative_spread(range(1, 10)) == pytest.approx(5.0 / 5.0)


# --- self-time arithmetic -----------------------------------------------------------

def _span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, 0, 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "inner", 1.0, 3.0, parent=1),
        _span(3, "inner", 4.0, 8.0, parent=1),
        _span(4, "leaf", 5.0, 6.0, parent=3),
    ]
    totals = summarize(spans)
    assert totals["outer"] == [1, 10.0, 4.0]
    assert totals["inner"] == [2, 6.0, 5.0]
    assert totals["leaf"] == [1, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, "outer", 0.0, 10.0), _span(2, "a", 1.0, 5.0, 1), _span(3, "b", 3.0, 7.0, 1),
             _span(4, "c", 9.0, 12.0, 1)]
    assert summarize(spans)["outer"][2] == pytest.approx(10.0 - 6.0 - 1.0)


# --- hooks --------------------------------------------------------------------------

def _case(M=4):
    f = FunctionTable(M, M, tuple((3 * x + 1) % M for x in range(M)))
    return f, quantum.random_state((M, M), ("A", "B"), 7)


def test_absent_hooks_are_reported_with_a_reason():
    tracer = Tracer((
        Hook("quantum.gone", ("oracle_locc.quantum:no_such_function",)),
        Hook("oracle.moved", ("oracle_locc.no_such_module:f",)),
        Hook("locc.builders", ("oracle_locc.locc:NO_SUCH_TABLE[*]",)),
        Hook("quantum.apply_local", ("oracle_locc.quantum:apply_local",)),
    ))
    with tracer:
        locc.run_locc(*_case(), 3)
    assert set(tracer.absent) == {"quantum.gone", "oracle.moved", "locc.builders"}
    assert "no_such_function" in tracer.absent["quantum.gone"]
    assert "cannot import" in tracer.absent["oracle.moved"]
    values, missing = layer_metrics(tracer.spans, tracer.absent, 0, 1.0, tracer.hooks)
    assert missing["quantum.gone.calls"] == tracer.absent["quantum.gone"]
    assert "quantum.gone.s" not in values and "quantum.gone.self_s" in missing
    assert values["quantum.apply_local.calls"] == 5  # steps 1, 3, 4, 5 and 7


def test_every_binding_is_patched_and_restored():
    original = quantum.apply_local
    step1 = locc.OPERATOR_BUILDERS["step1_controlled_shift"]
    with Tracer() as tracer:
        wrapped = locc.apply_local
        assert wrapped is not original
        assert netsim.apply_local is wrapped and protocols.apply_local is wrapped
        assert locc.step1_operator is locc.OPERATOR_BUILDERS["step1_controlled_shift"]
        assert locc.step1_operator is not step1
        locc.run_locc(*_case(), 3)
    assert locc.apply_local is original and netsim.apply_local is original
    assert locc.OPERATOR_BUILDERS["step1_controlled_shift"] is step1
    values, missing = layer_metrics(tracer.spans, tracer.absent, 0, 1.0)
    assert not tracer.absent
    # run_locc reaches the builders through the stepN wrappers, not build_step_operator.
    assert values["locc.build_step_operator.calls"] == 5
    assert all(values[f"locc.build_step_operator.step{k}.s"] > 0 for k in hooks.STEPS)
    assert values["oracle.build_partition.calls"] == 9
    assert values["locc.run_locc.self_s"] < values["locc.run_locc.s"]


def test_wire_counts_repeat_between_same_seed_runs():
    f, state = _case()
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            _, transcript = netsim.run_in_process(f, state, 5)
        ledger = transcript.ledger
        bits = ledger.bits_forward_wire + ledger.bits_backward_wire
        values, _ = layer_metrics(tracer.spans, tracer.absent, bits, 1.0)
        runs.append(hooks.counts(values))
        assert 0 < values["netsim.useful_bits_ratio"] < 1
    assert runs[0] == runs[1]
    assert runs[0]["netsim.frames"] == runs[0]["netsim.encode_wire.calls"]
    assert runs[0]["netsim.channel_recv.referee.calls"] > 0
    assert runs[0]["netsim.channel_recv.party.calls"] > 0


# --- BENCHMARK.json agrees with the code --------------------------------------------

def test_benchmark_json_and_spec_name_the_metrics_the_code_reports():
    import run
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == hooks.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    spec = json.loads((HERE / "spec.json").read_text())
    assert [m["name"] for m in spec["end_to_end"] if m["gated"]] == list(run.GATED)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == hooks.per_layer_names()
    for name, workload in workloads.WORKLOADS.items():
        assert list(spec["workloads"][name]["classes"]) == list(workload.classes)
