"""qatkit benchmark: time the retraining sweeps of `qatkit sweep` and check
their outputs.

    python3 perfbench/run.py --workload cnn-digits --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run it from the root of a source checkout (it imports `src/qatkit`).  Each
repetition of a workload runs in a fresh child process with one BLAS thread
and a fresh output directory; repetitions continue while the next one is
predicted to end within `--seconds`.  With `--trace 0` the end-to-end metrics
are medians over the repetitions; with `--trace 1` the run alternates
untraced and traced repetitions, adds the step-solver and layer probes, and
reports the per-layer metrics.  The last line of stdout is one JSON object; the exit code
is 1 when an output check failed and 2 when the run could not start.
Everything a run writes goes under `.perfbench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402

HARD_LIMIT_S = 170.0  # a run must end well inside 180 s
RUNS_DIR = ".perfbench_runs"


class SetupError(RuntimeError):
    """The benchmark cannot run here (no sources, no BENCHMARK.json, ...)."""


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} not found; run from the root of a checkout")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    return env


class Runner:
    """Starts child repetitions of one workload and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int, run_dir: Path, deadline: float):
        self.root, self.workload, self.seed = root, workload, seed
        self.run_dir, self.deadline = run_dir, deadline
        self.env = child_env(root)
        self.count = 0
        self.crashes: list[str] = []

    def child(self, mode: str) -> dict | None:
        """One child process; None when it crashed or timed out."""
        self.count += 1
        rep_dir = self.run_dir / f"rep{self.count:02d}-{mode}"
        cmd = [sys.executable, "-m", "perfbench.child", "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(rep_dir), "--mode", mode]
        timeout = max(5.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{mode} repetition timed out after {timeout:.0f} s")
            return None
        finally:
            shutil.rmtree(rep_dir / "sweep", ignore_errors=True)
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            self.crashes.append(f"{mode} repetition exited {proc.returncode}:\n{tail}")
            return None
        with open(rep_dir / "result.json", encoding="utf-8") as f:
            result = json.load(f)
        if not Path(result["qatkit"]).resolve().is_relative_to((self.root / "src").resolve()):
            raise SetupError(f"child imported qatkit from {result['qatkit']}, not src/")
        return result


def _median(values):
    return statistics.median(values) if values else float("nan")


def sweep_checks(reps: list[dict]) -> tuple[int, int, dict]:
    """(attempted cells, failed cells, run-level checks) over repetitions."""
    attempted = sum(len(r["cells"]) for r in reps)
    failed = sum(1 for r in reps for c in r["cells"] if c["failed"])
    checks = {}
    for r in reps:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    # the outputs are deterministic: every repetition gives the same metrics
    outcomes = {json.dumps([r["float_test_metric"]]
                           + [c.get("test_metric") for c in r["cells"]]) for r in reps}
    checks["repetitions_agree"] = len(outcomes) <= 1
    return attempted, failed, checks


def end_to_end(reps: list[dict]) -> dict[str, float]:
    def test_ratio(r):
        cells = [c["test_metric"] for c in r["cells"] if not c["failed"]]
        if not cells or not r["float_test_metric"]:
            return float("nan")  # a failed check; the metric is left out
        return (sum(cells) / len(cells)) / r["float_test_metric"]

    return {
        "setup_s": _median([r["setup_s"] for r in reps]),
        "float_train_s": _median([r["float_train_s"] for r in reps]),
        "retrain_samples_per_s": _median([r["retrain_samples"] / r["cells_s"] for r in reps]),
        "sweep_s": _median([r["sweep_s"] for r in reps]),
        "test_metric_ratio": _median([test_ratio(r) for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    start = time.monotonic()
    run_dir = root / RUNS_DIR / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, workload, seed, run_dir, deadline=start + HARD_LIMIT_S)
    target = start + seconds

    untraced, traced, probe_result = [], [], None
    if trace:
        probe_result = runner.child("probe")
    buckets = {"sweep": untraced, "trace": traced}
    walls = []
    while True:
        t0 = time.monotonic()
        for mode in ("sweep", "trace") if trace else ("sweep",):
            result = runner.child(mode)
            if result is not None:
                buckets[mode].append(result)
        walls.append(time.monotonic() - t0)
        if runner.crashes or time.monotonic() + _median(walls) > target:
            break

    reps = untraced + traced
    n_cells = len(workloads.config(workload, seed)["cells"])
    attempted, failed, checks = sweep_checks(reps)
    # a crashed repetition attempted every cell and finished none
    attempted += n_cells * len(runner.crashes)
    failed += n_cells * len(runner.crashes)

    metrics: dict[str, float] = {}
    if untraced:
        metrics.update(end_to_end(untraced))
    if trace and traced and untraced:
        layer_keys = traced[0]["layers"].keys()
        for key in layer_keys:
            metrics[key] = _median([r["layers"][key] for r in traced])
        metrics["trace.overhead_ratio"] = (_median([r["sweep_s"] for r in traced])
                                           / metrics["sweep_s"])
    if probe_result is not None:
        metrics.update(probe_result["probe"]["times"])
        checks.update({f"probe.{k}": v for k, v in probe_result["probe"]["checks"].items()})
    elif trace:
        checks["probe_ran"] = False

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v)}
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in wanted if m["name"] in metrics}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = bool(reps) and failed == 0 and not missing and all(checks.values())
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "env": (reps or [probe_result or {}])[0].get("env", {}),
        "checks": checks, "crashes": runner.crashes, "missing": missing,
        "layer_kinds": traced[-1]["layer_kinds"] if traced else {},
        "cell_failure_ratio": failed / attempted if attempted else 1.0,
        "wall_s": time.monotonic() - start,
        "result": {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                   "metrics": reported},
    }
    with open(run_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return summary


def print_summary(summary: dict):
    env = summary["env"]
    reps = summary["repetitions"]
    print(f"{summary['workload']} seed={summary['seed']} trace={summary['trace']} "
          f"repetitions={reps['untraced']}+{reps['traced']} traced "
          f"nproc={env.get('nproc')} numpy={env.get('numpy')} blas={env.get('blas')} "
          f"blas_threads={env.get('blas_threads')} wall={summary['wall_s']:.1f}s")
    for name, m in summary["result"]["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not summary["trace"]:
        print(f"  {'cell_failure_ratio':<44} {summary['cell_failure_ratio']:.6g} ratio")
    for name, ok in summary["checks"].items():
        if not ok:
            print(f"  CHECK FAILED: {name}")
    for name in summary["missing"]:
        print(f"  METRIC MISSING: {name}")
    for crash in summary["crashes"]:
        print(f"  REPETITION FAILED: {crash}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qatkit sweep benchmark")
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(workloads.WORKLOADS)}, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            workloads.config(name, args.seed)  # rejects an unknown name
        spec = load_spec(root)
        if not (root / "src" / "qatkit" / "__init__.py").is_file():
            raise SetupError(f"no qatkit sources under {root / 'src'}; run from a checkout")
    except (SetupError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        summaries = [run_workload(root, spec, name, args.seed, args.seconds, bool(args.trace))
                     for name in names]
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for summary in summaries:
        print_summary(summary)
    for summary in summaries:
        print(json.dumps(summary["result"]))
    return 0 if all(s["result"]["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
