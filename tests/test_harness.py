import copy
import dataclasses
import csv
import inspect
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from qatkit import harness, qat
from qatkit.cli import main as cli_main
from qatkit.data import DATASET_BUILDERS, Splits
from qatkit.harness import EmptyInputError, ExperimentConfig
from qatkit.nn import (
    Checkpoint,
    LrScheduleConfig,
    OptimizerConfig,
    build_network,
    load_checkpoint,
    save_checkpoint,
)
from qatkit.nn.network import LAYER_TYPES

from oracles import assert_bits_equal


def mlp_config(**overrides):
    base = dict(
        task="classification-vector",
        dataset={"kind": "clusters", "n_samples": 400, "classes": 2, "dim": 4,
                 "seed": 11, "spread": 0.25},
        network=[
            {"kind": "fc", "in": 4, "out": 8},
            {"kind": "activation", "fn": "relu"},
            {"kind": "fc", "in": 8, "out": 2},
            {"kind": "softmax"},
        ],
        float_training={"max_epochs": 20, "batch_size": 32,
                        "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.1,
                                      "momentum": 0.9,
                                      "lr_schedule": {"initial_lr": 0.1, "final_lr": 1e-4,
                                                      "decay_factor": 2.0,
                                                      "patience_evals": 3}}},
        retrain={"max_epochs": 3,
                 "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.05,
                               "lr_schedule": {"initial_lr": 0.05, "final_lr": 1e-4,
                                               "decay_factor": 2.0, "patience_evals": 4}}},
        cells=[{"bits": 2, "schedule": "direct"}],
        seeds=[0],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTrainFloat:
    def test_separable_task_reaches_zero_train_error(self):
        cfg = mlp_config()
        ckpt, record = harness.train_float(cfg, seed=0)
        task = harness.make_task(cfg, seed=0)
        net = build_network(cfg.network, np.random.default_rng(0))
        net.set_params(ckpt.params)
        assert task.evaluate(net, "train") == 0.0

    def test_fixed_seed_identical_checkpoints(self):
        cfg = mlp_config()
        a, _ = harness.train_float(cfg, seed=0)
        b, _ = harness.train_float(cfg, seed=0)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_zero_epochs_evaluates_init_params(self):
        cfg = mlp_config(float_training={"max_epochs": 0})
        ckpt, record = harness.train_float(cfg, seed=0)
        task = harness.make_task(cfg, seed=0)
        net = build_network(cfg.network, np.random.default_rng(0))
        for k, v in net.get_params().items():
            np.testing.assert_array_equal(ckpt.params[k], v)
        assert record.final_test_metric == task.evaluate(net, "test")
        assert [(r.epoch, r.split) for r in record.rows] == [(0, "test")]

    def test_char_lm_on_periodic_corpus(self, tmp_path):
        corpus = tmp_path / "ab.txt"
        corpus.write_text("ab" * 500, encoding="utf-8")
        cfg = ExperimentConfig(
            task="char-language-model",
            dataset={"kind": "text", "path": str(corpus)},
            network=[
                {"kind": "lstm", "in": 2, "hidden": 8},
                {"kind": "fc", "in": 8, "out": 2},
                {"kind": "softmax"},
            ],
            float_training={"max_epochs": 25, "unroll": 16, "update_stride": 16,
                            "streams": 8,
                            "optimizer": {"kind": "adadelta", "learning_rate": 1.0,
                                          "lr_schedule": {"initial_lr": 1.0,
                                                          "final_lr": 1e-3,
                                                          "decay_factor": 2.0,
                                                          "patience_evals": 4}}},
            seeds=[0],
        )
        _, record = harness.train_float(cfg, seed=0)
        assert record.final_test_metric < 0.1  # periodic source has ~0 entropy


class TestFloatCheckpointReuse:
    def test_same_config_reuses_checkpoint(self, tmp_path, monkeypatch):
        # tuple fractions come back from the checkpoint as a list
        cfg = mlp_config(dataset={**mlp_config().dataset, "fractions": (0.6, 0.2, 0.2)},
                         float_training={"max_epochs": 1})
        first = harness.ensure_float_checkpoint(cfg, 0, tmp_path)
        monkeypatch.setattr(harness, "train_and_save_float", None)  # must not retrain
        again = harness.ensure_float_checkpoint(cfg, 0, tmp_path)
        for k in first.params:
            np.testing.assert_array_equal(first.params[k], again.params[k])

    @pytest.mark.parametrize("section, change", [
        ("float_training", {"float_training": {"max_epochs": 2}}),
        ("dataset", {"dataset": {**mlp_config().dataset, "spread": 0.5}}),
        ("network", {"network": [{"kind": "fc", "in": 4, "out": 16},
                                 {"kind": "activation", "fn": "relu"},
                                 {"kind": "fc", "in": 16, "out": 2},
                                 {"kind": "softmax"}]}),
    ])
    def test_mismatched_checkpoint_rejected(self, tmp_path, section, change):
        harness.ensure_float_checkpoint(mlp_config(float_training={"max_epochs": 1}),
                                        0, tmp_path)
        with pytest.raises(ValueError, match=f"different {section}"):
            harness.ensure_float_checkpoint(
                mlp_config(**{"float_training": {"max_epochs": 1}, **change}), 0, tmp_path)


class TestSweepAndReport:
    def test_direct_only_sweep_has_no_training_epochs(self, tmp_path):
        cfg = mlp_config(cells=[{"bits": 2, "schedule": "direct"}], seeds=[0, 1])
        records = harness.sweep(cfg, tmp_path)
        assert len(records) == 2
        for r in records:
            assert all(row.split != "train" for row in r.rows)

    def test_report_schema_and_mean(self, tmp_path):
        cfg = mlp_config(
            cells=[{"bits": 2, "schedule": "direct"},
                   {"bits": 2, "schedule": "conventional"},
                   {"bits": 2, "schedule": "adaptive"}],
            seeds=[0, 1, 2],
        )
        harness.sweep(cfg, tmp_path)
        summary = harness.report(tmp_path)
        with open(tmp_path / "results.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["cell_bits", "schedule", "seed", "split", "metric", "value"]
        assert len(rows) - 1 == 9  # 3 cells x 3 seeds
        with open(tmp_path / "trajectory.csv", newline="") as f:
            trows = list(csv.reader(f))
        assert trows[0] == ["run_id", "epoch", "group_id", "delta"]
        assert all(float(r[3]) > 0 for r in trows[1:])
        # mean equals arithmetic mean of seeds
        for key, stats in summary.items():
            vals = list(stats["per_seed"].values())
            assert stats["mean"] == pytest.approx(sum(vals) / len(vals), abs=1e-12)
        with open(tmp_path / "summary.csv", newline="") as f:
            srows = list(csv.reader(f))
        assert srows[0][:4] == ["cell_bits", "schedule", "metric", "mean"]
        for row in srows[1:]:
            seeds = [float(v) for v in row[4:] if v]
            assert float(row[3]) == pytest.approx(sum(seeds) / len(seeds), abs=1e-12)

    def test_sweep_determinism_byte_identical(self, tmp_path):
        cfg = mlp_config(cells=[{"bits": 2, "schedule": "adaptive"}], seeds=[0, 1])
        for d in ("a", "b"):
            harness.sweep(cfg, tmp_path / d)
            harness.report(tmp_path / d)
        for name in ("results.csv", "summary.csv", "trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sweep_records_failures_and_continues(self, tmp_path):
        cfg = mlp_config(cells=[{"bits": 2, "schedule": "direct"}], seeds=[0])
        # inject a failing cell after construction (bits too low bypasses validation)
        cfg.cells.append({"bits": 1, "schedule": "direct"})
        records = harness.sweep(cfg, tmp_path)
        with open(tmp_path / "failures.json") as f:
            failures = json.load(f)
        assert len(records) == 1 and len(failures) == 1
        assert failures[0]["cell"] == {"bits": 1, "schedule": "direct"}
        assert "got 1" in failures[0]["error"]

    def test_report_empty_dir_raises(self, tmp_path):
        with pytest.raises(EmptyInputError):
            harness.report(tmp_path)

    def test_retraining_builds_the_checkpoint_network(self):
        # the task comes from a relu config, the checkpoint holds a tanh network
        def network(fn):
            return [{"kind": "lstm", "in": 4, "hidden": 8}, {"kind": "activation", "fn": fn},
                    {"kind": "fc", "in": 8, "out": 4}, {"kind": "softmax"}]

        task = harness.make_task(char_lm_config(network=network("relu")), 0)
        params = build_network(network("tanh"), np.random.default_rng(5)).get_params()
        _, record = qat.run(qat.RetrainConfig(schedule="direct", bits=8),
                            Checkpoint(layer_cfgs=network("tanh"), params=params), task)
        scores = {}
        for fn in ("tanh", "relu"):
            net = build_network(network(fn), np.random.default_rng(0))
            net.set_params(params)
            net.set_params(qat.init_quantization(net.get_params(), net.quant_group_map(),
                                                 8).quantized)
            scores[fn] = task.evaluate(net, "test")
        assert record.final_test_metric == scores["tanh"] != scores["relu"]

    def test_conventional_and_exhaustive_cells_at_one_width(self, tmp_path):
        cfg = mlp_config(cells=[{"bits": 2, "schedule": "conventional"},
                                {"bits": 2, "schedule": "exhaustive"}])
        records = harness.sweep(cfg, tmp_path)
        assert [(r.run_id, r.schedule) for r in records] == [
            ("b2_conventional_s0", "conventional"), ("b2_exhaustive_s0", "exhaustive")]
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            "b2_conventional_s0", "b2_exhaustive_s0"]

    def test_direct_cell_matches_independent_quantized_eval(self, tmp_path):
        cfg = mlp_config(cells=[{"bits": 3, "schedule": "direct"}], seeds=[0])
        records = harness.sweep(cfg, tmp_path)
        ckpt = load_checkpoint(harness.float_checkpoint_path(tmp_path, 0))
        task = harness.make_task(cfg, 0)
        from qatkit import qat

        net = build_network(cfg.network, np.random.default_rng(0))
        net.set_params(ckpt.params)
        shadow = qat.init_quantization(net.get_params(), net.quant_group_map(), 3)
        net.set_params(shadow.quantized)
        assert records[0].final_test_metric == pytest.approx(task.evaluate(net, "test"))


def char_lm_config(**overrides):
    base = dict(
        task="char-language-model",
        dataset={"kind": "synthetic-text", "n_chars": 2000, "vocab_size": 4, "seed": 3},
        network=[
            {"kind": "lstm", "in": 4, "hidden": 8},
            {"kind": "fc", "in": 8, "out": 4},
            {"kind": "softmax"},
        ],
        float_training={"max_epochs": 1, "unroll": 16, "update_stride": 16, "streams": 8},
        retrain={"max_epochs": 1},
        cells=[{"bits": 2, "schedule": "adaptive"}],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def bn_mlp_config(**overrides):
    """mlp_config with a batch-norm layer first."""
    network = [{"kind": "batchnorm", "features": 4}, *mlp_config().network]
    return mlp_config(**{"network": network, **overrides})


def bn_overlap_config(**overrides):
    """bn_mlp_config on overlapping clusters: the float test error is not 0,
    and evaluating without the batch-norm statistics raises it."""
    return bn_mlp_config(**{"dataset": {**mlp_config().dataset, "spread": 0.5}, **overrides})


class TestBatchNormBuffers:
    def test_reloaded_float_checkpoint_reproduces_its_record(self, tmp_path):
        cfg = bn_overlap_config()
        _, record = harness.train_and_save_float(cfg, 0, tmp_path)
        assert record.final_test_metric > 0
        ckpt = load_checkpoint(harness.float_checkpoint_path(tmp_path, 0))
        assert sorted(ckpt.buffers) == ["batchnorm0.running_mean", "batchnorm0.running_var"]
        net = build_network(ckpt.layer_cfgs, np.random.default_rng(1))
        net.set_params(ckpt.params)
        net.set_buffers(ckpt.buffers)
        assert harness.make_task(cfg, 0).evaluate(net, "test") == record.final_test_metric

    def test_direct_8_bit_lands_near_float(self, tmp_path):
        [direct] = harness.sweep(bn_overlap_config(cells=[{"bits": 8, "schedule": "direct"}]),
                                 tmp_path)
        [float_record] = harness.collect_records(tmp_path / "float")
        assert abs(direct.final_test_metric - float_record.final_test_metric) < 0.5

    def test_checkpoint_without_buffers_fails_naming_them(self, tmp_path):
        # a batch-norm checkpoint written before checkpoints held buffers
        cfg = bn_overlap_config(float_training={"max_epochs": 1})
        ckpt = harness.ensure_float_checkpoint(cfg, 0, tmp_path)
        ckpt.buffers = {}
        save_checkpoint(harness.float_checkpoint_path(tmp_path, 0), ckpt)
        with pytest.raises(ValueError, match=r"set_buffers: missing keys "
                                             r"\['batchnorm0.running_mean', 'batchnorm0.running_var'\]"):
            harness.run_cell(cfg, {"bits": 2, "schedule": "direct"}, 0, tmp_path)

    def test_checkpoint_without_buffers_rejected_before_training(self, tmp_path, monkeypatch):
        cfg = bn_mlp_config(float_training={"max_epochs": 1},
                            cells=[{"bits": 2, "schedule": "direct"},
                                   {"bits": 2, "schedule": "conventional"}])
        ckpt = harness.ensure_float_checkpoint(cfg, 0, tmp_path)
        path = harness.float_checkpoint_path(tmp_path, 0)
        save_checkpoint(path, dataclasses.replace(ckpt, buffers={}))
        monkeypatch.setattr(harness.qat, "run", None)  # nothing may train
        message = (rf"{re.escape(str(path))} does not hold the buffers of its network "
                   r"\(.*'batchnorm0.running_mean'.*\); delete it or use another output directory")
        with pytest.raises(ValueError, match=message):
            harness.ensure_float_checkpoint(cfg, 0, tmp_path)
        assert harness.sweep(cfg, tmp_path) == []
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert len(failures) == 2
        assert all(re.search(message, f["error"]) for f in failures)

    def test_checkpoint_with_misshapen_buffer_rejected(self, tmp_path):
        cfg = bn_mlp_config(float_training={"max_epochs": 1})
        ckpt = harness.ensure_float_checkpoint(cfg, 0, tmp_path)
        path = harness.float_checkpoint_path(tmp_path, 0)
        save_checkpoint(path, dataclasses.replace(
            ckpt, buffers={**ckpt.buffers, "batchnorm0.running_mean": np.zeros(1)}))
        message = (rf"{re.escape(str(path))} does not hold the buffers of its network "
                   r"\(set_buffers: batchnorm0.running_mean has shape \(1,\), the layer's "
                   r"\(4,\)\)")
        with pytest.raises(ValueError, match=message):
            harness.ensure_float_checkpoint(cfg, 0, tmp_path)


CNN_DIGITS = [{"kind": "conv2d", "in_ch": 1, "out_ch": 12, "kernel": 3, "padding": 1},
              {"kind": "batchnorm", "features": 12}, {"kind": "activation", "fn": "relu"},
              {"kind": "maxpool2d", "size": 2}, {"kind": "flatten"},
              {"kind": "fc", "in": 192, "out": 10}, {"kind": "softmax"}]
WIDE_FC = [{"kind": "fc", "in": 32, "out": 256}, {"kind": "activation", "fn": "relu"},
           {"kind": "fc", "in": 256, "out": 256}, {"kind": "activation", "fn": "relu"},
           {"kind": "fc", "in": 256, "out": 10}, {"kind": "softmax"}]


class RecordingNet:
    """A network whose forward calls are kept: (rows, train, output)."""

    def __init__(self, net):
        self.net, self.calls = net, []

    def forward(self, x, train=True):
        out = self.net.forward(x, train=train)
        self.calls.append((x.shape[0], train, out))
        return out


@pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 263, 3250])
def test_evaluate_forwards_32_to_63_rows(n):
    net = RecordingNet(build_network(WIDE_FC, np.random.default_rng(0)))
    r = np.random.default_rng(n)
    data = (r.normal(size=(n, 32)), r.integers(0, 10, size=n))
    harness.ClassificationTask(Splits(train=data, dev=data, test=data),
                               batch_size=7).evaluate(net, "dev")
    rows = [c[0] for c in net.calls]
    assert sum(rows) == n and not any(c[1] for c in net.calls)
    assert rows == [n] if n < 32 else all(32 <= k <= 63 for k in rows), rows


@pytest.mark.parametrize("layers, shape", [(CNN_DIGITS, (1, 8, 8)), (WIDE_FC, (32,))],
                         ids=["cnn-digits", "wide-fc"])
@pytest.mark.parametrize("n", [263, 500, 600, 3250])
def test_evaluate_probabilities_match_256_row_chunks(layers, shape, n):
    net = build_network(layers, np.random.default_rng(0))
    r = np.random.default_rng(n)
    data = (r.normal(size=(n, *shape)), r.integers(0, 10, size=n))
    rec = RecordingNet(net)
    harness.ClassificationTask(Splits(train=data, dev=data, test=data)).evaluate(rec, "test")
    want = np.concatenate([net.forward(data[0][s:s + 256], train=False)
                           for s in range(0, n, 256)])
    assert_bits_equal(np.concatenate([c[2] for c in rec.calls]), want)


def test_evaluate_keeps_no_backward_state():
    # the cnn-digits network on its 3,250 test images, in chunks of 32 to 63:
    # the last chunk's forward and the probabilities peak at 1.26 MB; backward
    # caches would add about 0.8 MB per 32 images, and the last chunk's would
    # outlive the call
    net = build_network(CNN_DIGITS, np.random.default_rng(0))
    r = np.random.default_rng(1)
    test = (r.normal(size=(3250, 1, 8, 8)), r.integers(0, 10, size=3250))
    task = harness.ClassificationTask(Splits(train=test, dev=test, test=test))
    tracemalloc.start()
    try:
        task.evaluate(net, "test")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"peak {peak / 1e6:.2f} MB"
    assert held < 0.1e6, f"held {held / 1e6:.3f} MB"


def no_cells_config(**overrides):
    """mlp_config with no cells, as `qatkit retrain --config` may load."""
    return mlp_config(**{"cells": [], **overrides})


class TestConfigValidation:
    @pytest.mark.parametrize("make, section, key", [
        (mlp_config, "dataset", "sprad"),
        (char_lm_config, "dataset", "spread"),
        (mlp_config, "float_training", "unroll"),
        (char_lm_config, "float_training", "batch_size"),
        (mlp_config, "retrain", "unroll"),
        (mlp_config, "retrain", "bits"),
        (mlp_config, "retrain", "eval_every"),
        (mlp_config, "cells", "bitz"),
        (mlp_config, "network", "widht"),
        (bn_mlp_config, "network", "momentun"),
    ])
    def test_unknown_key_rejected_at_load(self, make, section, key):
        good = make()
        if section in ("cells", "network"):
            first, *rest = getattr(good, section)
            bad = [{**first, key: 2}, *rest]
        else:
            bad = {**getattr(good, section), key: 2}
        with pytest.raises(ValueError, match=f"unknown .*{section}.* key '{key}'"):
            make(**{section: bad})

    @pytest.mark.parametrize("make, path, value, message", [
        (mlp_config, ("dataset", "n_samples"), None,
         "clusters dataset: missing required key 'n_samples'"),
        (mlp_config, ("dataset", "seed"), 1.5, "clusters dataset: seed must be an int, got 1.5"),
        (mlp_config, ("float_training", "batch_size"), "32",
         "classification-vector float_training: batch_size must be an int, got '32'"),
        (mlp_config, ("float_training", "batch_size"), 0,
         "classification-vector float_training: batch_size must be >= 1, got 0"),
        (char_lm_config, ("float_training", "update_stride"), 0,
         "char-language-model float_training: update_stride must be >= 1, got 0"),
        (mlp_config, ("float_training", "optimizer", "momentum"), "0.9",
         "momentum must be a float, got '0.9'"),
        (mlp_config, ("retrain", "optimizer", "kind"), "adam",
         "unknown optimizer kind 'adam'; accepted: sgd_nesterov, adadelta"),
        (mlp_config, ("retrain", "optimizer", "momentun"), 0.9,
         "unknown optimizer key 'momentun'"),
        (mlp_config, ("cells", 0, "schedule"), None, r"cells\[0\]: missing required key 'schedule'"),
        (mlp_config, ("float_training", "max_epochs"), "3",
         "^float_training: RetrainConfig: max_epochs must be an int, got '3'"),
        (mlp_config, ("float_training", "optimizer", "learning_rate"), 0.2,
         "^float_training: learning_rate 0.2 differs from lr_schedule.initial_lr 0.1"),
        (mlp_config, ("retrain", "optimizer", "learning_rate"), 0.07,
         r"^retrain with cells\[0\]: learning_rate 0.07 differs from lr_schedule.initial_lr 0.05"),
        (no_cells_config, ("retrain", "optimizer", "learning_rate"), 0.07,
         "^retrain: learning_rate 0.07 differs from lr_schedule.initial_lr 0.05"),
        (mlp_config, ("seeds", 0), "0", r"seeds must be a nonempty list of ints, got \['0'\]"),
        (mlp_config, ("retrain", "optimizer", "learning_rate"), float("inf"),
         r"^retrain with cells\[0\]: learning_rate must be positive and finite, got inf"),
        (mlp_config, ("float_training", "optimizer", "lr_schedule", "initial_lr"), float("nan"),
         "^float_training: initial_lr must be positive and finite, got nan"),
        (mlp_config, ("retrain", "optimizer", "lr_schedule", "final_lr"), float("inf"),
         r"^retrain with cells\[0\]: final_lr must be positive and finite, got inf"),
        (mlp_config, ("retrain", "optimizer", "rho"), 5.0,
         r"^retrain with cells\[0\]: rho must be in \[0, 1\), got 5.0"),
        (mlp_config, ("float_training", "optimizer", "eps"), -1.0,
         "^float_training: eps must be positive and finite, got -1.0"),
    ], ids=["dataset-missing-key", "dataset-float-seed", "str-batch-size", "zero-batch-size",
            "zero-update-stride", "str-momentum", "optimizer-kind", "optimizer-key",
            "cell-missing-key", "float-str-max-epochs", "float-lr-mismatch",
            "retrain-lr-mismatch", "no-cells-retrain-lr-mismatch", "str-seed",
            "inf-learning-rate", "nan-initial-lr", "inf-final-lr", "rho-above-one",
            "negative-eps"])
    def test_bad_value_rejected_at_load(self, make, path, value, message):
        *outer, key = path
        bad = copy.deepcopy(getattr(make(), outer[0]))
        inner = bad
        for k in outer[1:]:
            inner = inner[k]
        if value is None:
            del inner[key]
        else:
            inner[key] = value
        with pytest.raises(ValueError, match=message):
            make(**{outer[0]: bad})

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: {**raw, "dataset": "clusters"}, "dataset must be a mapping, got 'clusters'"),
        (lambda raw: {**raw, "float_training": None}, "float_training must be a mapping, got None"),
        (lambda raw: {**raw, "cells": {"bits": 2, "schedule": "adaptive"}},
         "cells must be a list, got {"),
        (lambda raw: {**raw, "cells": ["b2_direct"]},
         r"cells\[0\] must be a mapping, got 'b2_direct'"),
        (lambda raw: {**raw, "network": ["fc", *raw["network"][1:]]},
         r"network\[0\] must be a mapping, got 'fc'"),
        (lambda raw: {**raw, "retrain": {**raw["retrain"], "optimizer": None}},
         r"retrain with cells\[0\]: optimizer must be a mapping, got None"),
        (lambda raw: {**raw, "float_training": {**raw["float_training"], "optimizer": {
            **raw["float_training"]["optimizer"], "lr_schedule": 5}}},
         "float_training: lr_schedule must be a mapping, got 5"),
        (lambda raw: {**raw, "sedes": [0]}, "unknown config key 'sedes'"),
        (lambda raw: {k: v for k, v in raw.items() if k != "network"},
         "config: missing required key 'network'"),
        (lambda raw: None, "config must be a mapping, got None"),
    ], ids=["str-dataset", "empty-float-training", "mapping-cells", "str-cell", "str-layer",
            "empty-optimizer", "int-lr-schedule", "unknown-key", "missing-key", "empty-file"])
    def test_section_of_the_wrong_type_rejected(self, tmp_path, edit, message):
        raw = edit(dataclasses.asdict(mlp_config()))
        p = tmp_path / "exp.yaml"
        p.write_text("" if raw is None else yaml.safe_dump(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_file(p)
        if raw is not None and raw.keys() == vars(mlp_config()).keys():
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**raw)

    def test_yaml_exponent_needs_a_dot(self, tmp_path):
        # YAML 1.1, which PyYAML reads, takes 1e-5 for a string and 1.0e-5 for a float
        cfg = mlp_config()
        p = tmp_path / "exp.yaml"
        for final_lr, error in (("1e-5", "final_lr must be a float, got '1e-5'"), ("1.0e-5", None)):
            text = yaml.safe_dump({
                "task": cfg.task, "dataset": cfg.dataset, "network": cfg.network,
                "retrain": {"optimizer": {"learning_rate": 0.05, "lr_schedule": {
                    "initial_lr": 0.05, "final_lr": "FINAL_LR"}}},
                "cells": cfg.cells})
            p.write_text(text.replace("FINAL_LR", final_lr), encoding="utf-8")
            if error is None:
                loaded = ExperimentConfig.from_file(p)
                assert loaded.retrain["optimizer"]["lr_schedule"]["final_lr"] == 1e-5
            else:
                with pytest.raises(ValueError, match=error):
                    ExperimentConfig.from_file(p)

    def test_every_checked_signature_resolves(self):
        # check_args reads signatures with eval_str=True, which evaluates each
        # annotation on the running Python
        for fn in [*LAYER_TYPES.values(), *DATASET_BUILDERS.values(), *harness.TASKS.values(),
                   qat.RetrainConfig, OptimizerConfig, LrScheduleConfig, ExperimentConfig]:
            params = inspect.signature(fn, eval_str=True).parameters.values()
            assert not [p.name for p in params if isinstance(p.annotation, str)], fn

    @pytest.mark.parametrize("layer, message", [
        ({"kind": "dense", "in": 4, "out": 8}, r"unknown network\[0\] layer kind 'dense'"),
        ({"kind": "fc", "in": 4}, r"network\[0\] fc: missing required key 'out'"),
        ({"kind": "activation", "fn": "relux"}, r"activation0: unknown activation 'relux'"),
        ({"kind": "lstm", "in": 4, "hidden": 8, "stateful": True},
         r"unknown network\[0\] lstm key 'stateful'; accepted: name, in, hidden"),
    ], ids=["unknown-kind", "missing-key", "bad-value", "lstm-stateful"])
    def test_bad_layer_rejected_at_load(self, layer, message):
        network = mlp_config().network
        with pytest.raises(ValueError, match=message):
            mlp_config(network=[layer, *network[1:]])

    def test_unchained_widths_rejected_at_load(self):
        network = mlp_config().network
        with pytest.raises(ValueError, match=r"network\[2\] fc 'fc2': in 5 does not match "
                                             r"width 8 of 'fc0'"):
            mlp_config(network=[*network[:2], {"kind": "fc", "in": 5, "out": 2},
                                *network[3:]])

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        p = tmp_path / "exp.yaml"
        p.write_text(blocks[0], encoding="utf-8")
        cfg = ExperimentConfig.from_file(p)
        assert cfg.cells
        for cell in cfg.cells:
            for seed in cfg.seeds:
                rcfg = harness.make_retrain_config(cfg, cell, seed)
                assert rcfg.bits == cell["bits"] and rcfg.seed == seed

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            mlp_config(seeds=[])

    def test_bad_cell_schedule_rejected(self):
        with pytest.raises(ValueError):
            mlp_config(cells=[{"bits": 2, "schedule": "zigzag"}])

    @pytest.mark.parametrize("cells, message", [
        ([{"bits": 4, "schedule": "gradual:4-2:1"}],
         "gradual4to2 needs bits 2 and max_epochs >= 3, got bits 4"),
        ([{"bits": 2, "schedule": "gradual:4-2:2"}],
         "gradual4to2 needs bits 2 and max_epochs >= 5, got bits 2 and max_epochs 3"),
        ([{"bits": 2, "schedule": "adaptive", "exhaustive_init": True}],
         r"unknown cells\[0\] key 'exhaustive_init'; accepted: schedule, bits"),
        ([{"bits": 2, "schedule": "gradual:4-2:1"},
          {"bits": 2, "schedule": "gradual:4-2:1:conventional"}],
         r"cells\[0\] .* seed 0 and cells\[1\] .*conventional.* seed 0 "
         r"would both write run 'b2_gradual4to2_s0'"),
        ([{"bits": 3, "schedule": "direct"}, {"bits": 2, "schedule": "adaptive_fix"},
          {"bits": 2, "schedule": "adaptive_fix1"}],
         r"cells\[1\] .* and cells\[2\] .* would both write run 'b2_adaptive_fix1_s0'"),
    ], ids=["gradual-bits", "gradual-too-short", "exhaustive-adaptive", "gradual-name",
            "fix-name"])
    def test_bad_cells_rejected_at_load(self, cells, message):
        with pytest.raises(ValueError, match=message):
            mlp_config(cells=cells)

    def test_repeated_seed_rejected_at_load(self):
        with pytest.raises(ValueError, match="would both write run 'b2_direct_s1'"):
            mlp_config(seeds=[0, 1, 1])

    def test_bad_cell_bits_rejected(self):
        with pytest.raises(ValueError):
            mlp_config(cells=[{"bits": 1, "schedule": "direct"}])

    def test_from_yaml_file(self, tmp_path):
        cfg = mlp_config()
        p = tmp_path / "exp.yaml"
        p.write_text(yaml.safe_dump({
            "task": cfg.task, "dataset": cfg.dataset, "network": cfg.network,
            "float_training": cfg.float_training, "retrain": cfg.retrain,
            "cells": cfg.cells, "seeds": cfg.seeds,
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        loaded = ExperimentConfig.from_file(p)
        assert loaded.task == cfg.task
        assert loaded.cells == cfg.cells


class TestCli:
    def _config_file(self, tmp_path, **overrides):
        cfg = mlp_config(**overrides)
        p = tmp_path / "exp.yaml"
        p.write_text(yaml.safe_dump({
            "task": cfg.task, "dataset": cfg.dataset, "network": cfg.network,
            "float_training": cfg.float_training, "retrain": cfg.retrain,
            "cells": cfg.cells, "seeds": cfg.seeds,
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        return p

    def test_train_float_and_quantize(self, tmp_path):
        p = self._config_file(tmp_path)
        runner = CliRunner()
        res = runner.invoke(cli_main, ["train-float", "--config", str(p), "--seed", "0"])
        assert res.exit_code == 0, res.output
        assert "checkpoint:" in res.output
        res = runner.invoke(cli_main, ["retrain", "--config", str(p), "--bits", "2", "--schedule", "direct"])
        assert res.exit_code == 0, res.output
        assert "direct 2-bit" in res.output

    def test_retrain_and_report(self, tmp_path):
        p = self._config_file(tmp_path)
        runner = CliRunner()
        res = runner.invoke(cli_main, [
            "retrain", "--config", str(p), "--bits", "2",
            "--schedule", "adaptive", "--seed", "0",
        ])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli_main, ["report", "--results", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "out" / "results.csv").exists()

    def test_sweep_command(self, tmp_path):
        p = self._config_file(tmp_path, cells=[{"bits": 2, "schedule": "direct"}])
        runner = CliRunner()
        res = runner.invoke(cli_main, ["sweep", "--config", str(p)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "out" / "summary.json").exists()

    def test_error_exit_is_machine_readable(self, tmp_path):
        (tmp_path / "empty").mkdir()
        runner = CliRunner()
        res = runner.invoke(cli_main, ["report", "--results", str(tmp_path / "empty")])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: EmptyInputError:")
