"""The benchmark's three retraining sweeps, each built from one seed.

A workload is an `ExperimentConfig` dict plus its list of cells.  The seed
argument becomes both the dataset seed and the single run seed.  Epoch counts
are fixed: retraining sets `stop_at_lr_floor: false`, and float training (which
has no such switch) gets a learning-rate floor it cannot reach within its
epochs, so the amount of work per run never depends on the last bits of the
arithmetic.
"""

from __future__ import annotations


def _sgd(lr, patience, floor_div):
    return {"kind": "sgd_nesterov", "learning_rate": lr, "momentum": 0.9,
            "lr_schedule": {"initial_lr": lr, "final_lr": lr / floor_div,
                            "decay_factor": 2.0, "patience_evals": patience}}


def _adadelta(lr, patience, floor_div):
    return {"kind": "adadelta", "learning_rate": lr,
            "lr_schedule": {"initial_lr": lr, "final_lr": lr / floor_div,
                            "decay_factor": 2.0, "patience_evals": patience}}


def cnn_digits(seed: int) -> dict:
    # The training set is test_10's 1,250 images.  Noise 1.0 and 3,250 test
    # images make the test error (~40%) count enough errors that the quantized
    # to float ratio is steady between seeds; at noise 0.5 it is not.
    # 25 float epochs at patience 3 allow at most 8 halvings; the floor is 10 away.
    return {
        "task": "classification-image",
        "dataset": {"kind": "digit-images", "n_samples": 5000, "classes": 10,
                    "seed": seed, "noise": 1.0, "fractions": [0.25, 0.1, 0.65]},
        "network": [
            {"kind": "conv2d", "in_ch": 1, "out_ch": 12, "kernel": 3, "padding": 1},
            {"kind": "batchnorm", "features": 12},
            {"kind": "activation", "fn": "relu"},
            {"kind": "maxpool2d", "size": 2},
            {"kind": "flatten"},
            {"kind": "fc", "in": 12 * 4 * 4, "out": 10},
            {"kind": "softmax"},
        ],
        "float_training": {"max_epochs": 25, "batch_size": 32,
                           "optimizer": _sgd(0.05, 3, 1024)},
        "retrain": {"max_epochs": 15, "stop_at_lr_floor": False,
                    "optimizer": _sgd(0.005, 2, 512)},
        "cells": [{"bits": 2, "schedule": "conventional"},
                  {"bits": 2, "schedule": "adaptive"}],
        "seeds": [seed],
    }


def charlm_lstm(seed: int) -> dict:
    # make_task reads unroll/update_stride/streams from float_training only
    return {
        "task": "char-language-model",
        "dataset": {"kind": "synthetic-text", "n_chars": 12000, "vocab_size": 16,
                    "seed": seed},
        "network": [
            {"kind": "lstm", "in": 16, "hidden": 24},
            {"kind": "fc", "in": 24, "out": 16},
            {"kind": "softmax"},
        ],
        "float_training": {"max_epochs": 15, "unroll": 16, "update_stride": 16,
                           "streams": 16, "optimizer": _adadelta(1.0, 3, 1024)},
        "retrain": {"max_epochs": 15, "stop_at_lr_floor": False,
                    "optimizer": _adadelta(0.5, 3, 64)},
        "cells": [{"bits": 2, "schedule": "adaptive"},
                  {"bits": 2, "schedule": "gradual:6-2:3"}],
        "seeds": [seed],
    }


def wide_fc(seed: int) -> dict:
    return {
        "task": "classification-vector",
        "dataset": {"kind": "clusters", "n_samples": 4000, "classes": 10, "dim": 32,
                    "spread": 2.0, "seed": seed},
        "network": [
            {"kind": "fc", "in": 32, "out": 256},
            {"kind": "activation", "fn": "relu"},
            {"kind": "fc", "in": 256, "out": 256},
            {"kind": "activation", "fn": "relu"},
            {"kind": "fc", "in": 256, "out": 10},
            {"kind": "softmax"},
        ],
        "float_training": {"max_epochs": 10, "batch_size": 32,
                           "optimizer": _sgd(0.02, 2, 1024)},
        "retrain": {"max_epochs": 6, "stop_at_lr_floor": False,
                    "optimizer": _sgd(0.002, 2, 512)},
        "cells": [{"bits": 6, "schedule": "direct"},
                  {"bits": 4, "schedule": "conventional"},
                  {"bits": 4, "schedule": "adaptive"}],
        "seeds": [seed],
    }


WORKLOADS = {
    "cnn-digits": cnn_digits,
    "charlm-lstm": charlm_lstm,
    "wide-fc": wide_fc,
}


def config(name: str, seed: int) -> dict:
    """The ExperimentConfig fields of workload `name` at `seed`."""
    try:
        build = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return build(seed)
