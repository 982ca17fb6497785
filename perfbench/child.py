"""One repetition of a workload, in a fresh process with a fresh output
directory, so that `ensure_float_checkpoint` really trains.

    python3 -m perfbench.child --workload NAME --seed N --out DIR --mode MODE

MODE is `sweep` (timed from outside only), `trace` (the same sweep with every
qatkit layer wrapped in spans) or `probe` (the step-solver and layer probes).
The result, including every output check, goes to DIR/result.json; the parent
(`perfbench/run.py`) sets the BLAS thread variables before starting this.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import probe, tracing, workloads

SETUP_REPEATS = 5  # set-ups per untraced repetition; setup_s is their median


def blas_info() -> dict:
    """nproc, numpy version, BLAS name and the thread count BLAS reports."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.25 only prints its configuration
        deps = {}
    info = {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": deps.get("blas", {}).get("name", "unknown"),
            "blas_threads": None}
    try:  # the loaded OpenBLAS library, found through this process's mappings
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


class _CaptureRun:
    """Keep what `qat.run` returns while `harness.run_cell` is running, so the
    final quantized weights can be checked; one extra call per cell."""

    def __init__(self, qat):
        self.qat, self.result = qat, None

    def __enter__(self):
        self.original = self.qat.run

        def run(*args, **kwargs):
            self.result = self.original(*args, **kwargs)
            return self.result

        self.qat.run = run
        return self

    def __exit__(self, *exc):
        self.qat.run = self.original
        return False


def off_grid_weights(shadow) -> int:
    """Quantized weights not of the form n*step with integer |n| <= K."""
    bad = 0
    for gid, keys in shadow.groups.items():
        spec = shadow.specs[gid]
        for k in keys:
            n = np.asarray(shadow.quantized[k], dtype=np.float64) / spec.step
            rn = np.rint(n)
            bad += int(np.count_nonzero(
                (np.abs(n - rn) > 1e-9 * np.maximum(1.0, np.abs(rn)))
                | (np.abs(rn) > spec.max_level)))
    return bad


def samples_per_epoch(cfg, task) -> int:
    """Training samples one epoch consumes (characters for char-LM)."""
    if cfg.task == "char-language-model":
        return int(sum(y.size for _x, y in task.batches("train", 0)))
    return int(task.splits.train[0].shape[0])


def run_one_cell(harness, qat, cfg, cell, seed, sweep_dir, per_epoch) -> dict:
    """`harness.run_cell`, timed, with its outputs checked."""
    entry = {"cell": f"{cell['schedule']}@{cell['bits']}", "failed": False}
    t0 = time.perf_counter()
    try:
        with _CaptureRun(qat) as cap:
            record = harness.run_cell(cfg, cell, seed, sweep_dir)
    except Exception as e:  # a failed cell is counted, not fatal
        entry.update(failed=True, error=f"{type(e).__name__}: {e}",
                     wall_s=time.perf_counter() - t0)
        return entry
    entry["wall_s"] = time.perf_counter() - t0
    shadow, _ = cap.result
    epochs = sum(1 for r in record.rows if r.split == "train")
    entry.update(test_metric=record.final_test_metric, epochs=epochs,
                 samples=epochs * per_epoch, off_grid=off_grid_weights(shadow))
    expected_epochs = 0 if cell["schedule"] == "direct" else cfg.retrain["max_epochs"]
    if not (record.final_test_metric is not None
            and math.isfinite(record.final_test_metric)
            and entry["off_grid"] == 0 and epochs == expected_epochs):
        entry.update(failed=True, error="output check failed")
    return entry


def run_sweep(name: str, seed: int, out: Path, tracer: tracing.Tracer | None) -> dict:
    """Set up, train the float baseline, run every cell, report; time each
    call from outside and check its output."""
    from qatkit import harness, qat

    raw = workloads.config(name, seed)
    cfg = harness.ExperimentConfig(**raw, output_dir=str(out / "sweep"))
    sweep_dir = Path(cfg.output_dir)
    checks: dict[str, bool] = {}

    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            task = harness.make_task(cfg, seed)
        setup_times.append(time.perf_counter() - t0)
    per_epoch = samples_per_epoch(cfg, task)

    ckpt_path = harness.float_checkpoint_path(sweep_dir, seed)
    checks["float_checkpoint_fresh"] = not ckpt_path.exists()
    cells = []
    with tracer.span("sweep") if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        harness.ensure_float_checkpoint(cfg, seed, sweep_dir)
        float_s = time.perf_counter() - t0

        for cell in cfg.cells:
            cells.append(run_one_cell(harness, qat, cfg, cell, seed, sweep_dir, per_epoch))

        t0 = time.perf_counter()
        harness.report(sweep_dir)
        report_s = time.perf_counter() - t0

    with open(sweep_dir / "float" / f"float_s{seed}" / "record.json", encoding="utf-8") as f:
        float_record = json.load(f)
    float_epochs = sum(1 for r in float_record["rows"] if r["split"] == "train")
    float_metric = float_record["final_test_metric"]
    checks["float_checkpoint_written"] = ckpt_path.exists()
    checks["float_trained_all_epochs"] = float_epochs == cfg.float_training["max_epochs"]
    checks["float_metric_positive"] = (float_metric is not None
                                       and math.isfinite(float_metric) and float_metric > 0)
    with open(sweep_dir / "results.csv", encoding="utf-8") as f:
        rows = f.read().splitlines()[1:]
    checks["report_one_row_per_cell"] = len(rows) == len(cfg.cells)

    good = [c for c in cells if not c["failed"]]
    cell_s = sum(c["wall_s"] for c in cells)
    return {
        "setup_s": statistics.median(setup_times),
        "float_train_s": float_s,
        "cells_s": cell_s,
        "report_s": report_s,
        "sweep_s": float_s + cell_s + report_s,
        "retrain_samples": sum(c["samples"] for c in good),
        "float_test_metric": float_metric,
        "cells": cells,
        "checks": checks,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("sweep", "trace", "probe"), default="sweep")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    import qatkit

    result = {"mode": args.mode, "env": blas_info(), "qatkit": qatkit.__file__}
    if args.mode == "probe":
        solver, layers = probe.run_solver(args.seed), probe.run_layers(args.seed)
        result["probe"] = {"times": {**solver["times"], **layers["times"]},
                           "checks": {**solver["checks"], **layers["checks"]}}
    else:
        tracer = tracing.Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        try:
            result.update(run_sweep(args.workload, args.seed, out, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["checks"]["wrappers_removed"] = (tracer.installed == 0
                                                    and not tracing.wrapped_objects())
            tracer.write_spans(out / "spans.jsonl")
            result["layers"] = tracing.layer_metrics(tracer)
            result["layer_kinds"] = tracing.layer_kinds(tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out / "result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
