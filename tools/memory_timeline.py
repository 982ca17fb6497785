"""Print the memory high-water mark around each public call of a benchmark sweep.

    python tools/memory_timeline.py --workload cnn-digits --seed 0
    python tools/memory_timeline.py --workload wide-fc --seed 0 --no-tracemalloc

Runs, in a temporary directory, what `perfbench/child.py` runs for one
repetition of that workload: its set-up loop of `make_task` calls, then the
sweep `tools/output_digest.py` runs (`ensure_float_checkpoint`, `run_cell`
for each cell, `report`), with the `src/qatkit` of this checkout and one BLAS
thread.  It prints one line per call of `harness.make_task`,
`harness.ensure_float_checkpoint`, `harness.run_cell`, `qat.init_quantization`
(which also sets up the float baseline's master),
`qat.ShadowParams.update_steps` (the adaptive re-solve of every group's step)
and a task's `evaluate`, in call order and indented by nesting depth: the
process high-water mark before and after the call, its rise, and the
tracemalloc peak during the call, all in MB, then the minor page faults the
process took during the call (the rise of `ru_minflt`), so that an
allocation change shows its fault cost beside its memory.  The high-water
mark is `VmHWM` from `/proc/self/status`, or `ru_maxrss` where that file
cannot be read.
tracemalloc's bookkeeping itself takes memory, so with it the high-water marks
run above an untraced run's; `--no-tracemalloc` leaves it off.
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

import output_digest  # pins BLAS threads and puts src/ and the root on sys.path

from perfbench.child import SETUP_REPEATS  # noqa: E402
from qatkit import harness, qat  # noqa: E402


def high_water_mb() -> float:
    """The process's resident-set high-water mark in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    """The process's minor page faults so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Timeline:
    """Wraps the calls of CALLS and keeps one row per call, in call order:
    [depth, label, high-water before, after, tracemalloc peak or None,
    minor faults]."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.rows: list[list] = []
        self._open: list[list] = []  # rows of the calls in progress, outermost first
        self._peaks: list[int] = []  # their tracemalloc peaks up to the last reset

    def wrap(self, fn, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(label(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _enter(self, label: str):
        if self.traced:
            if self._peaks:  # the caller's peak so far, before the reset
                self._peaks[-1] = max(self._peaks[-1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            self._peaks.append(0)
        row = [len(self._open), label, high_water_mb(), None, None, minor_faults()]
        self.rows.append(row)
        self._open.append(row)

    def _exit(self):
        row = self._open.pop()
        row[3] = high_water_mb()
        row[5] = minor_faults() - row[5]
        if self.traced:
            peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            row[4] = peak / 2**20

    def write(self, out=None):
        """Print the rows to `out`, standard output by default."""
        print(f"{'hwm before':>10} {'hwm after':>10} {'rise':>6} {'traced peak':>11} "
              f"{'minor faults':>12}  call", file=out)
        for depth, label, before, after, peak, faults in self.rows:
            traced = "-" if peak is None else f"{peak:.2f}"
            print(f"{before:10.2f} {after:10.2f} {after - before:6.2f} {traced:>11} "
                  f"{faults:12d}  {'  ' * depth}{label}", file=out)


# (owner, attribute, label of a call from its arguments)
CALLS = [
    (harness, "make_task", lambda cfg, seed: "make_task"),
    (harness, "ensure_float_checkpoint", lambda *a, **k: "ensure_float_checkpoint"),
    (harness, "run_cell",
     lambda cfg, cell, *a, **k: f"run_cell {cell['schedule']}@{cell['bits']}"),
    # the float baseline's master is a shadow with no groups
    (qat, "init_quantization", lambda master, groups, bits:
     f"init_quantization {bits} bits" if groups else "init_quantization float"),
    (qat.ShadowParams, "update_steps", lambda shadow, *a, **k: "update_steps"),
    (harness.ClassificationTask, "evaluate", lambda task, net, split: f"evaluate {split}"),
    (harness.CharLMTask, "evaluate", lambda task, net, split: f"evaluate {split}"),
]


def run(name: str, seed: int, traced: bool) -> Timeline:
    """The workload's set-up loop and sweep at `seed` under a Timeline; every
    wrapped call is restored afterwards."""
    timeline = Timeline(traced)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in CALLS]
    for owner, attr, label in CALLS:
        setattr(owner, attr, timeline.wrap(getattr(owner, attr), label))
    if traced:
        tracemalloc.start()
    try:
        cfg = harness.ExperimentConfig(**output_digest.workloads.config(name, seed))
        for _ in range(SETUP_REPEATS):
            task = harness.make_task(cfg, seed)  # the last one stays alive, as there
        with tempfile.TemporaryDirectory() as tmp:
            output_digest.run_workload(name, seed, Path(tmp) / "sweep")
    finally:
        if traced:
            tracemalloc.stop()
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return timeline


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(output_digest.workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--no-tracemalloc", action="store_true",
                    help="leave tracemalloc off and print only the high-water marks")
    args = ap.parse_args(argv)
    run(args.workload, args.seed, not args.no_tracemalloc).write()
    print(f"process high-water mark {high_water_mb():.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
