"""Tests of the benchmark harness itself (not of limitlab's numbers)."""

from __future__ import annotations

import json
import sys

import pytest

import calibrate
import gate
import layers
from spans import Span, Tracer, chrome_trace, self_times, write_chrome_trace
from workloads import ROOT, SRC, WORKLOADS, plan

sys.path.insert(0, str(SRC))


def test_self_times_subtract_children_and_aggregates():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0, child_agg_s=0.5),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 4.0])


def test_tracer_charges_aggregated_calls_to_the_open_span():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.add("leaf", 0.25)
    tracer.add("leaf", 0.25)
    tracer.end(outer)
    assert tracer.aggregates["leaf"].calls == 2
    assert tracer.spans[outer].child_agg_s == pytest.approx(0.5)
    assert self_times(tracer.spans)[0] == pytest.approx(tracer.spans[outer].duration - 0.5)


def test_normalized_wall_cancels_host_speed_but_not_program_speed():
    from worker import normalized_wall

    def one_pass(times, slowdown=1.0):
        return {"times": {exp: t * slowdown for exp, t in times.items()},
                "loops": {exp: calibrate.LOOP_S * slowdown for exp in times}}

    base = {"a": 1.0, "b": 0.5}
    assert normalized_wall([one_pass(base), one_pass(base, 1.3), one_pass(base, 1.3)]) == \
        pytest.approx(1.5)
    assert normalized_wall([one_pass({"a": 0.5, "b": 0.5}, 1.3)]) == pytest.approx(1.0)


@pytest.mark.parametrize("perturbation, passes", [(1e-6, False), (1e-12, True)])
def test_reference_gate_tolerance(perturbation, passes):
    reference = gate.load_reference()["fold"]["prpd-summable"]
    values = {col: list(vals) for col, vals in reference.items()}
    values["observed"][-1] *= 1.0 + perturbation
    worst, misses = gate.compare(values, reference)
    assert (not misses) is passes
    assert worst == pytest.approx(perturbation, rel=1e-3)


def test_reference_gate_rejects_nan_and_missing_rows():
    reference = {"horizon": [10, 100], "predicted": [1.5, 2.5]}
    assert gate.compare({"horizon": [10, 100], "predicted": [1.5, float("nan")]}, reference)[1]
    assert gate.compare({"horizon": [10], "predicted": [1.5]}, reference)[1]
    assert gate.compare({"horizon": [10, 1000], "predicted": [1.5, 2.5]}, reference)[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_parse(name):
    from limitlab import experiments

    reference = gate.load_reference()[name]
    items = plan(WORKLOADS[name], seed=7)
    assert sorted(exp for exp, _ in items) == sorted(exp for exp, _ in WORKLOADS[name].experiments)
    for exp, text in items:
        config = experiments.parse_config(text)
        assert config.experiment == exp
        assert list(config.horizons) == reference[exp]["horizon"]
    assert plan(WORKLOADS[name], seed=7) == items


def test_chrome_trace_is_valid_json(tmp_path):
    tracer = Tracer()
    outer = tracer.begin("experiments.run", n=3)
    inner = tracer.begin("multisum.psi_curve")
    tracer.add("kernels.cond_column", 1e-6)
    tracer.end(inner)
    tracer.end(outer)
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer, {"workload": "test"})
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["experiments.run", "multisum.psi_curve"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0
    assert doc["otherData"]["aggregates"]["kernels.cond_column"]["calls"] == 1
    assert chrome_trace(Tracer())["traceEvents"] == []


def test_layer_wrappers_count_work_and_undo():
    from limitlab import experiments, kernel_power, moments, multisum

    original = multisum.psi_curve
    tracer = Tracer()
    patch = layers.install(tracer)
    try:
        assert experiments.psi_curve is not original
        moments.MomentTable.build(kernel_power(2.0, 1.0), [20, 50], 2)
    finally:
        patch.undo()
    assert experiments.psi_curve is original and moments.psi_curve is original
    metrics = layers.layer_metrics(tracer)
    assert metrics["moments.MomentTable.build.calls"] == 1
    assert metrics["multisum.psi_curve.calls"] == 1
    assert metrics["multisum.psi_curve.pairs"] == 50 * 49 // 2
    assert metrics["kernels.cond_column.calls"] == 49
    assert metrics["multisum.fold.calls"] == 0
    assert set(metrics) <= set(layers.PER_LAYER)


def test_benchmark_json_matches_the_harness():
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
