"""`tools/memory_timeline.py` on a stub workload: one line per wrapped call,
in call order and nested under its caller, and every wrapped call restored."""

import importlib.util
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def memory_timeline(monkeypatch):
    # the tool imports output_digest from its own directory, which pins BLAS
    # threads and extends sys.path when loaded
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "path", [str(TOOLS), *sys.path])
    monkeypatch.delitem(sys.modules, "output_digest", raising=False)
    spec = importlib.util.spec_from_file_location("memory_timeline", TOOLS / "memory_timeline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_workload(seed):
    """A two-cell sweep small enough for the suite."""
    sgd = {"kind": "sgd_nesterov", "learning_rate": 0.05,
           "lr_schedule": {"initial_lr": 0.05, "final_lr": 1e-4}}
    return {
        "task": "classification-vector",
        "dataset": {"kind": "clusters", "n_samples": 200, "classes": 2, "dim": 4,
                    "seed": seed, "spread": 0.5},
        "network": [{"kind": "fc", "in": 4, "out": 6}, {"kind": "activation", "fn": "relu"},
                    {"kind": "fc", "in": 6, "out": 2}, {"kind": "softmax"}],
        "float_training": {"max_epochs": 2, "batch_size": 16, "optimizer": sgd},
        "retrain": {"max_epochs": 2, "optimizer": sgd},
        "cells": [{"bits": 3, "schedule": "direct"}, {"bits": 2, "schedule": "adaptive"}],
        "seeds": [seed],
    }


@pytest.mark.parametrize("flags, traced", [([], True), (["--no-tracemalloc"], False)])
def test_stub_workload_timeline(memory_timeline, monkeypatch, capsys, flags, traced):
    monkeypatch.setitem(memory_timeline.output_digest.workloads.WORKLOADS, "stub", stub_workload)
    originals = [getattr(owner, attr) for owner, attr, _ in memory_timeline.CALLS]
    assert memory_timeline.main(["--workload", "stub", "--seed", "3", *flags]) == 0
    assert [getattr(owner, attr) for owner, attr, _ in memory_timeline.CALLS] == originals

    header, *rows, last = capsys.readouterr().out.splitlines()
    assert header.split() == ["hwm", "before", "hwm", "after", "rise", "traced", "peak",
                              "minor", "faults", "call"]
    assert last.startswith("process high-water mark ")
    calls, faulted = [], []
    for row in rows:
        before, after, rise, peak, faults = row[:53].split()
        assert float(before) > 0 and float(after) > 0
        assert float(rise) == pytest.approx(float(after) - float(before), abs=0.011)
        assert (peak != "-") == traced
        assert int(faults) >= 0
        faulted.append(int(faults))
        calls.append(row[55:])
    setup = ["make_task"] * memory_timeline.SETUP_REPEATS
    train = ["  evaluate dev"] * 2 + ["  evaluate test"]
    cell = ["  ensure_float_checkpoint", "  make_task"]
    # one solve per group, fc0 (4 x 6 weights) then fc1 (6 x 2), nested in its caller
    solves = ["    optimize_step N=24 bits={}", "    optimize_step N=12 bits={}"]
    solves3, solves2 = ([row.format(bits) for row in solves] for bits in (3, 2))
    # one config load before the set-up loop, one in the sweep
    assert calls == ["ExperimentConfig", *setup, "ExperimentConfig",
                     "ensure_float_checkpoint", "  make_task",
                     "  init_quantization float", *train,
                     "run_cell direct@3", *cell, "  init_quantization 3 bits", *solves3,
                     "  evaluate test",
                     "run_cell adaptive@2", *cell, "  init_quantization 2 bits", *solves2,
                     *["  update_steps", *solves2, "  evaluate dev"] * 2, "  evaluate test"]
    # a call's faults include those of the calls nested directly in it
    nested = defaultdict(int)  # depth -> faults of the later rows there, up to their caller
    for call, faults in reversed(list(zip(calls, faulted))):
        depth = (len(call) - len(call.lstrip())) // 2
        assert faults >= nested[depth + 1], call
        nested[depth + 1] = 0
        nested[depth] += faults
