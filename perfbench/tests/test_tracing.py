"""Tests of the benchmark's own code: self-time arithmetic, clean removal of
the tracing wrappers, and BENCHMARK.json naming what the runs report."""

import numpy as np
import pytest

from perfbench import tracing


def test_self_time_is_duration_minus_union_of_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5) and
    # [8, 9]; the first child has a grandchild [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],
        ["c", 8.0, 9.0, 0],
        ["a.x", 2.0, 3.0, 1],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 1.0])
    agg = tracing.aggregate(spans)
    assert agg["root"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 4.0})
    # self times of a tree without overlap add up to the root's duration
    flat = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["c", 8.0, 9.0, 0],
            ["a.x", 2.0, 3.0, 1]]
    assert sum(tracing.self_times(flat)) == pytest.approx(10.0)


def test_children_are_clipped_to_their_parent():
    spans = [["p", 0.0, 2.0, -1], ["c", 1.0, 5.0, 0]]
    assert tracing.self_times(spans) == pytest.approx([1.0, 4.0])


def test_aggregate_over_a_subtree():
    spans = [["setup", 0.0, 1.0, -1], ["f", 0.2, 0.4, 0],
             ["sweep", 1.0, 3.0, -1], ["f", 1.5, 2.0, 2]]
    agg = tracing.aggregate(spans, roots=("sweep",))
    assert set(agg) == {"sweep", "f"}
    assert agg["f"] == pytest.approx({"calls": 1, "total_s": 0.5, "self_s": 0.5})


def test_generator_wrapper_times_each_next():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    gen = tracer.wrap_generator_method(lambda self: iter([1, 2]), "batches")
    assert list(gen(None)) == [1, 2]
    # two items plus the final StopIteration
    assert [s[0] for s in tracer.spans] == ["batches"] * 3
    assert tracer._stack == []


def test_wrappers_are_removed_after_a_traced_call():
    from qatkit import harness, qat, quantizer
    from qatkit.nn import layers, network

    originals = {
        "optimize_step": quantizer.optimize_step,
        "qat.optimize_step": qat.optimize_step,
        "run_cell": harness.run_cell,
        "fc.forward": layers.FullyConnected.__dict__["forward"],
        "set_params": network.Network.__dict__["set_params"],
        "batches": harness.ClassificationTask.__dict__["batches"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.installed > 0
        assert qat.optimize_step is not originals["optimize_step"]
        assert tracing.wrapped_objects()
        w = np.random.default_rng(0).normal(size=64)
        qat.init_quantization({"W": w}, {"g": ["W"]}, bits=3)
    finally:
        tracer.uninstall()

    names = [s[0] for s in tracer.spans]
    assert "qat.init_quantization" in names and "quantizer.optimize_step" in names
    assert tracer.counters["quantizer.optimize_step.breakpoints"] == 64 * 3
    assert tracer.installed == 0
    assert tracing.wrapped_objects() == []
    assert quantizer.optimize_step is originals["optimize_step"]
    assert qat.optimize_step is originals["qat.optimize_step"]
    assert harness.run_cell is originals["run_cell"]
    assert layers.FullyConnected.__dict__["forward"] is originals["fc.forward"]
    assert network.Network.__dict__["set_params"] is originals["set_params"]
    assert harness.ClassificationTask.__dict__["batches"] is originals["batches"]


def test_layer_metrics_cover_a_small_traced_forward_backward():
    from qatkit.nn import build_network, cross_entropy

    net = build_network([{"kind": "fc", "in": 4, "out": 3}, {"kind": "softmax"}],
                        np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(8, 4))
    y = np.arange(8) % 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("sweep"):
            for _ in range(3):
                out = net.forward(x)
                _, dout = cross_entropy(out, y)
                net.backward(dout)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer)
    assert m["layers.fc.calls"] == 3 and m["layers.softmax.calls"] == 3
    assert m["layers.forward_s"] > 0 and m["layers.backward_s"] > 0
    assert 0.0 < m["trace.coverage_ratio"] <= 1.0
    assert set(tracing.layer_kinds(tracer)) == {"fc", "softmax"}


def test_benchmark_json_names_exactly_the_reported_metrics():
    import json
    import re
    from pathlib import Path

    from perfbench import probe

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_ratio"}
    produced |= {probe.metric_name(n, b) for n in probe.SIZES for b in probe.BITS}
    produced |= {name for kind in probe.LAYER_SHAPES for name in probe.layer_metric_names(kind)}
    assert {m["name"] for m in spec["per_layer"]} == produced
    from perfbench.run import end_to_end
    rep = {"setup_s": 1.0, "float_train_s": 1.0, "retrain_samples": 1, "cells_s": 1.0,
           "sweep_s": 1.0, "float_test_metric": 1.0, "peak_rss_mb": 1.0,
           "cells": [{"failed": False, "test_metric": 1.0}]}
    assert {m["name"] for m in spec["end_to_end"]} == set(end_to_end([rep]))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
