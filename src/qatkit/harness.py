"""Experiment harness: task adapters, float baseline training, quantization
sweeps over (bits, schedule, seed) cells, and CSV/JSON reporting."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import qat
from .data import Splits, load_dataset
from .nn import (
    Checkpoint,
    OptimizerConfig,
    bits_per_char,
    build_network,
    classification_error,
    cross_entropy,
    load_checkpoint,
    save_checkpoint,
)
from .records import RunRecord

log = logging.getLogger(__name__)


class EmptyInputError(ValueError):
    """report() called on a directory with no run records."""


# -- task adapters -----------------------------------------------------------

class ClassificationTask:
    """Vector or image classification; metric is error rate in percent."""

    metric_name = "error"

    def __init__(self, splits: Splits, layer_cfgs: list[dict], batch_size: int = 32,
                 seed: int = 0, dtype=np.float64):
        self.splits = splits
        self.layer_cfgs = layer_cfgs
        self.batch_size = batch_size
        self.seed = seed
        self.dtype = dtype

    def build_network(self, rng):
        return build_network(self.layer_cfgs, rng, dtype=self.dtype)

    def batches(self, split: str, epoch: int):
        x, y = self.splits.get(split)
        order = np.random.default_rng((self.seed, epoch)).permutation(x.shape[0])
        for start in range(0, x.shape[0], self.batch_size):
            idx = order[start : start + self.batch_size]
            yield x[idx].astype(self.dtype), y[idx]

    def loss(self, outputs, targets):
        return cross_entropy(outputs, targets)

    def evaluate(self, net, split: str) -> float:
        x, y = self.splits.get(split)
        probs = []
        for start in range(0, x.shape[0], 256):
            probs.append(net.forward(x[start : start + 256].astype(self.dtype), train=False))
        return classification_error(np.concatenate(probs), y)


class CharLMTask:
    """Character language modeling; metric is bits per character.

    Training consumes parallel streams in windows of `unroll` steps whose
    start advances by `update_stride` per weight update; gradients do not
    cross window edges.
    """

    metric_name = "bpc"

    def __init__(self, splits: Splits, layer_cfgs: list[dict], unroll: int = 256,
                 update_stride: int = 128, streams: int = 64, seed: int = 0,
                 dtype=np.float64):
        self.splits = splits
        self.layer_cfgs = layer_cfgs
        self.vocab_size = splits.meta["vocab_size"]
        self.unroll = unroll
        self.update_stride = update_stride
        self.streams = streams
        self.seed = seed
        self.dtype = dtype

    def build_network(self, rng):
        return build_network(self.layer_cfgs, rng, dtype=self.dtype)

    def _stream_matrix(self, split: str):
        (codes,) = self.splits.get(split)
        b = self.streams
        length = len(codes) // b
        if length < 2:
            b, length = 1, len(codes)
        return codes[: b * length].reshape(b, length)

    def _window(self, mat, t0, t1):
        xs = mat[:, t0:t1].T  # (T, B)
        ys = mat[:, t0 + 1 : t1 + 1].T
        eye = np.eye(self.vocab_size, dtype=self.dtype)
        return eye[xs], ys

    def batches(self, split: str, epoch: int):
        mat = self._stream_matrix(split)
        last = mat.shape[1] - 1
        t_end = self.unroll
        while t_end <= last:
            yield self._window(mat, t_end - self.unroll, t_end)
            t_end += self.update_stride
        if t_end - self.update_stride < last:  # tail shorter than one stride
            yield self._window(mat, max(0, last - self.unroll), last)

    def loss(self, outputs, targets):
        return cross_entropy(outputs, targets)

    def evaluate(self, net, split: str) -> float:
        mat = self._stream_matrix(split)
        last = mat.shape[1] - 1
        total_bits, total_chars = 0.0, 0
        for t0 in range(0, last, self.unroll):
            t1 = min(t0 + self.unroll, last)
            x, y = self._window(mat, t0, t1)
            probs = net.forward(x, train=False)
            n = y.size
            total_bits += bits_per_char(probs, y) * n
            total_chars += n
        return total_bits / max(total_chars, 1)


# -- experiment configuration ------------------------------------------------

@dataclass
class ExperimentConfig:
    task: str  # classification-vector | classification-image | char-language-model
    dataset: dict
    network: list[dict]
    float_training: dict = field(default_factory=dict)
    retrain: dict = field(default_factory=dict)
    cells: list[dict] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "runs"

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        for cell in self.cells:
            sched = qat.parse_schedule(str(cell["schedule"]))
            if not isinstance(sched, qat.Gradual) and int(cell.get("bits", 2)) < 2:
                raise ValueError(f"cell {cell}: bits must be >= 2")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        import yaml

        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.safe_load(f)
        return cls(**raw)


def make_task(cfg: ExperimentConfig, seed: int):
    splits = load_dataset(cfg.dataset)
    if cfg.task in ("classification-vector", "classification-image"):
        return ClassificationTask(
            splits, cfg.network,
            batch_size=cfg.float_training.get("batch_size", 32), seed=seed,
        )
    if cfg.task == "char-language-model":
        return CharLMTask(
            splits, cfg.network,
            unroll=cfg.float_training.get("unroll", 256),
            update_stride=cfg.float_training.get("update_stride", 128),
            streams=cfg.float_training.get("streams", 64),
            seed=seed,
        )
    raise ValueError(f"unknown task {cfg.task!r}")


# -- float baseline ----------------------------------------------------------

def train_float(cfg: ExperimentConfig, seed: int):
    """Train the floating-point baseline; returns (Checkpoint, RunRecord).

    Runs the retraining loop on a network with nothing quantized: keeps the
    best-on-dev parameters and stops at the lr-schedule floor or max_epochs.
    """
    task = make_task(cfg, seed)
    # with no groups to quantize any schedule that trains gives the same run;
    # ConventionalFixed never asks for a step solve
    fcfg = qat.RetrainConfig(
        schedule=qat.ConventionalFixed(),
        optimizer=OptimizerConfig(**cfg.float_training.get("optimizer", {})),
        max_epochs=cfg.float_training.get("max_epochs", 30), seed=seed,
    )
    net = task.build_network(np.random.default_rng(seed))
    record = RunRecord(run_id=f"float_s{seed}", cell_bits=0, schedule="float",
                       seed=seed, metric_name=task.metric_name)
    shadow = qat.ShadowParams(net.get_params(), {}, {})
    _, params = qat.fit(fcfg, net, shadow, task, record)
    ckpt = Checkpoint(
        layer_cfgs=cfg.network, params=params,
        config_echo={"task": cfg.task, "seed": seed,
                     "float_training": cfg.float_training},
    )
    return ckpt, record


def float_checkpoint_path(out_dir, seed) -> Path:
    return Path(out_dir) / f"float_s{seed}.npz"


def train_and_save_float(cfg: ExperimentConfig, seed: int, out_dir) -> tuple:
    """Train the float baseline and write its checkpoint and record under
    `out_dir`; returns (Checkpoint, RunRecord)."""
    ckpt, record = train_float(cfg, seed)
    path = float_checkpoint_path(out_dir, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(path, ckpt)
    _write_record(Path(out_dir) / "float" / f"float_s{seed}", record)
    return ckpt, record


def ensure_float_checkpoint(cfg: ExperimentConfig, seed: int, out_dir) -> Checkpoint:
    path = float_checkpoint_path(out_dir, seed)
    if path.exists():
        return load_checkpoint(path)
    return train_and_save_float(cfg, seed, out_dir)[0]


# -- sweep -------------------------------------------------------------------

def make_retrain_config(cfg: ExperimentConfig, cell: dict, seed: int) -> qat.RetrainConfig:
    schedule = qat.parse_schedule(str(cell["schedule"]))
    rcfg = dict(cfg.retrain)
    opt = OptimizerConfig(**rcfg.pop("optimizer", {
        "kind": "sgd_nesterov", "learning_rate": 5e-4,
        "lr_schedule": {"initial_lr": 5e-4, "final_lr": 3.90625e-6,
                        "decay_factor": 2.0, "patience_evals": 4},
    }))
    return qat.RetrainConfig(
        schedule=schedule, bits=int(cell.get("bits", 2)), optimizer=opt,
        max_epochs=rcfg.get("max_epochs", 20),
        eval_every=rcfg.get("eval_every", 1),
        stop_at_lr_floor=rcfg.get("stop_at_lr_floor", True),
        seed=seed,
        exhaustive_init=bool(cell.get("exhaustive_init", False)),
    )


def run_cell(cfg: ExperimentConfig, cell: dict, seed: int, out_dir) -> RunRecord:
    """One (bits, schedule, seed) retraining run, records written to disk."""
    ckpt = ensure_float_checkpoint(cfg, seed, out_dir)
    task = make_task(cfg, seed)
    rcfg = make_retrain_config(cfg, cell, seed)
    run_id = f"b{cell.get('bits', rcfg.bits)}_{rcfg.schedule.name}_s{seed}"
    _, record = qat.run(rcfg, ckpt, task, run_id=run_id)
    _write_record(Path(out_dir) / "runs" / run_id, record)
    return record


def sweep(cfg: ExperimentConfig, out_dir=None) -> list[RunRecord]:
    """Run every (cell, seed) pair; failures are recorded and skipped."""
    out_dir = Path(out_dir or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, failures = [], []
    for cell in cfg.cells:
        for seed in cfg.seeds:
            try:
                records.append(run_cell(cfg, cell, seed, out_dir))
            except Exception as e:  # keep the sweep alive
                log.exception("cell %s seed %s failed", cell, seed)
                failures.append({"cell": cell, "seed": seed,
                                 "error": f"{type(e).__name__}: {e}"})
    with open(out_dir / "failures.json", "w", encoding="utf-8") as f:
        json.dump(failures, f, indent=2, sort_keys=True)
    return records


def _write_record(run_dir: Path, record: RunRecord):
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "record.json", "w", encoding="utf-8") as f:
        json.dump(record.to_dict(), f, indent=2, sort_keys=True)
    with open(run_dir / "trajectory.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["run_id", "epoch", "group_id", "delta"])
        for d in record.deltas:
            w.writerow([record.run_id, d.epoch, d.group_id, repr(d.delta)])


# -- reporting ---------------------------------------------------------------

RESULTS_HEADER = ["cell_bits", "schedule", "seed", "split", "metric", "value"]
TRAJECTORY_HEADER = ["run_id", "epoch", "group_id", "delta"]


def collect_records(results_dir) -> list[RunRecord]:
    paths = sorted(Path(results_dir).glob("**/record.json"))
    records = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as f:
            records.append(RunRecord.from_dict(json.load(f)))
    return records


def report(results_dir, out_dir=None) -> dict:
    """Consolidate run records into results.csv, summary.csv/.json and a
    combined trajectory.csv.  Raises EmptyInputError when nothing is found."""
    records = collect_records(results_dir)
    if not records:
        raise EmptyInputError(f"no run records under {results_dir}")
    out_dir = Path(out_dir or results_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = sorted(records, key=lambda r: (r.cell_bits, r.schedule, r.seed))
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(RESULTS_HEADER)
        for r in records:
            # float baselines appear in the summary but not in the sweep table
            if r.schedule != "float" and r.final_test_metric is not None:
                w.writerow([r.cell_bits, r.schedule, r.seed, "test",
                            r.metric_name, repr(r.final_test_metric)])

    with open(out_dir / "trajectory.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(TRAJECTORY_HEADER)
        for r in records:
            for d in r.deltas:
                w.writerow([r.run_id, d.epoch, d.group_id, repr(d.delta)])

    cells: dict[tuple, dict] = {}
    for r in records:
        if r.final_test_metric is None:
            continue
        key = (r.cell_bits, r.schedule, r.metric_name)
        cells.setdefault(key, {})[r.seed] = r.final_test_metric
    all_seeds = sorted({s for v in cells.values() for s in v})
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["cell_bits", "schedule", "metric", "mean"]
                   + [f"seed_{s}" for s in all_seeds])
        for key in sorted(cells):
            by_seed = cells[key]
            mean = sum(by_seed.values()) / len(by_seed)
            row = [key[0], key[1], key[2], repr(mean)]
            row += [repr(by_seed[s]) if s in by_seed else "" for s in all_seeds]
            w.writerow(row)

    summary = {
        f"{k[0]}|{k[1]}|{k[2]}": {
            "mean": sum(v.values()) / len(v),
            "per_seed": {str(s): v[s] for s in sorted(v)},
        }
        for k, v in sorted(cells.items())
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return summary

