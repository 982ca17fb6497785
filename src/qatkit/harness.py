"""Experiment harness: task adapters, float baseline training, quantization
sweeps over (bits, schedule, seed) cells, and CSV/JSON reporting."""

from __future__ import annotations

import csv
import inspect
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import qat
from .data import DATASET_BUILDERS, IdxParseError, Splits, load_dataset
from .nn import (
    Checkpoint,
    bits_per_char,
    build_network,
    classification_error,
    load_checkpoint,
    save_checkpoint,
)
from .nn.network import check_args, reject_unknown
from .records import RunRecord

log = logging.getLogger(__name__)


class EmptyInputError(ValueError):
    """report() called on a directory with no run records."""


# -- task adapters -----------------------------------------------------------

# rows per forward of ClassificationTask.evaluate, whatever the training
# batch size: the activations of one chunk are all an evaluation holds
EVAL_ROWS = 32


class ClassificationTask:
    """Vector or image classification; metric is error rate in percent."""

    metric_name = "error"

    def __init__(self, splits: Splits, seed: int = 0, *, batch_size: int = 32):
        self.splits = splits
        self.batch_size = batch_size
        self.seed = seed

    def batches(self, split: str, epoch: int):
        x, y = self.splits.get(split)
        order = np.random.default_rng((self.seed, epoch)).permutation(x.shape[0])
        for start in range(0, x.shape[0], self.batch_size):
            idx = order[start : start + self.batch_size]
            yield x[idx], y[idx]

    def evaluate(self, net, split: str) -> float:
        """Error on `split`, forwarded in chunks of EVAL_ROWS rows; a tail
        shorter than that joins the chunk before it, since a forward of a few
        rows (a 1-row fc product runs as a GEMV) can round differently."""
        x, y = self.splits.get(split)
        n = x.shape[0]
        stops = [*range(EVAL_ROWS, n - EVAL_ROWS + 1, EVAL_ROWS), n]
        probs = [net.forward(x[start:stop], train=False)
                 for start, stop in zip([0, *stops[:-1]], stops)]
        return classification_error(np.concatenate(probs), y)


class CharLMTask:
    """Character language modeling; metric is bits per character.

    Training consumes parallel streams in windows of `unroll` steps whose
    start advances by `update_stride` per weight update; gradients do not
    cross window edges.
    """

    metric_name = "bpc"

    def __init__(self, splits: Splits, seed: int = 0, *,
                 unroll: int = 256, update_stride: int = 128, streams: int = 64):
        self.splits = splits
        self.vocab_size = splits.meta["vocab_size"]
        self.unroll = unroll
        self.update_stride = update_stride
        self.streams = streams

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
        eye = np.eye(self.vocab_size)
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


# task name -> class; a task's batching keys are its constructor's
# keyword-only parameters, each a count >= 1
TASKS = {
    "classification-vector": ClassificationTask,
    "classification-image": ClassificationTask,
    "char-language-model": CharLMTask,
}


# -- experiment configuration ------------------------------------------------

# ExperimentConfig checks each section with `check_args` against the signature
# of the constructor it is passed to, which also holds the defaults.
# float_training keys that go to qat.RetrainConfig; the rest go to the task class
FIT_KEYS = ("max_epochs", "optimizer")
# the qat.RetrainConfig parameters a cell sets; retrain sets the others but seed
CELL_KEYS = ("bits", "schedule")


@dataclass
class ExperimentConfig:
    """A sweep's config.  Construction checks every section and raises
    ValueError naming it.  The network and the dataset are checked by
    building them: see `_check_first_batch`."""

    task: str  # a key of TASKS
    dataset: dict
    network: list[dict]
    float_training: dict = field(default_factory=dict)
    retrain: dict = field(default_factory=dict)
    cells: list[dict] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "runs"

    def __post_init__(self):
        # a bool seed passes here; check_args rejects it, naming its index
        if not (isinstance(self.seeds, list) and self.seeds
                and all(isinstance(s, int) and s >= 0 for s in self.seeds)):
            raise ValueError(f"seeds must be a nonempty list of ints, got {self.seeds!r}; "
                             "each must be >= 0")
        check_args(type(self).__name__, vars(self), type(self))
        kind = self.dataset.get("kind")
        reject_unknown("task", [self.task], TASKS)
        reject_unknown("dataset kind", [kind], DATASET_BUILDERS)
        check_args(f"{kind} dataset", {k: v for k, v in self.dataset.items() if k != "kind"},
                   DATASET_BUILDERS[kind])
        batching = check_args(f"{self.task} float_training", _batching_keys(self),
                              TASKS[self.task], lambda p: p.kind is p.KEYWORD_ONLY)
        for key, value in batching.items():
            if value < 1:
                raise ValueError(f"{self.task} float_training: {key} must be >= 1, "
                                 f"got {value}")
        check_args("retrain", self.retrain, qat.RetrainConfig,
                   lambda p: p.name not in (*CELL_KEYS, "seed"))
        _check_first_batch(self, build_network(self.network, np.random.default_rng(0)))
        _named("float_training", _float_retrain_config, self, self.seeds[0])
        writers = {}  # run id -> (cell index, seed) writing it
        for i, cell in enumerate(self.cells):
            check_args(f"cells[{i}]", cell, qat.RetrainConfig, lambda p: p.name in CELL_KEYS)
            rcfg = _named(f"retrain with cells[{i}]", make_retrain_config, self, cell,
                          self.seeds[0])
            for seed in self.seeds:
                rid = run_id(rcfg.bits, rcfg.schedule.name, seed)
                if rid in writers:
                    j, other = writers[rid]
                    raise ValueError(f"cells[{j}] {self.cells[j]} seed {other} and cells[{i}] "
                                     f"{cell} seed {seed} would both write run {rid!r}")
                writers[rid] = (i, seed)
        # the retrain section alone, for a run whose cell comes later
        # (`qatkit retrain --config`); a bad value is caught above if cells
        # are given, under the cell's name
        _named("retrain", make_retrain_config, self, {"schedule": "conventional"},
               self.seeds[0])

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """The config in YAML file `path`; raises ValueError as `check_args`
        does for its top level, and as construction does for each section."""
        import yaml

        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.safe_load(f)
        return cls(**check_args("config", raw, cls))


def _named(section: str, build, *args):
    """`build(*args)`, with a ValueError it raises prefixed by `section`."""
    try:
        return build(*args)
    except ValueError as e:
        raise ValueError(f"{section}: {e}") from e


def _check_first_batch(cfg: ExperimentConfig, net):
    """Build `cfg`'s dataset and forward the first training batch of a task
    over it, with every batching count 1 (one row, or one step of one
    stream), through `net`.  Raises ValueError starting `<kind> dataset: `
    for a dataset its builder rejects or a file it cannot read, naming the
    layer under `network: ` for an input a layer cannot take, and naming the
    output count and the largest target for a network with no output for a
    target of some split (the last array of each: labels, or codes)."""
    kind = cfg.dataset["kind"]
    try:
        splits = load_dataset(cfg.dataset)
    except (OSError, IdxParseError) as e:
        raise ValueError(f"{kind} dataset: {e}") from e
    task_cls = TASKS[cfg.task]
    ones = {p.name: 1 for p in inspect.signature(task_cls).parameters.values()
            if p.kind is p.KEYWORD_ONLY}
    x, _ = next(task_cls(splits, **ones).batches("train", 0))
    outputs = _named("network", net.forward, x, False).shape[-1]
    top = max(int(splits.get(split)[-1].max()) for split in ("train", "dev", "test"))
    if top >= outputs:
        raise ValueError(f"network: {outputs} outputs cannot score the {kind} dataset's "
                         f"target {top}")


def _batching_keys(cfg: ExperimentConfig) -> dict:
    return {k: v for k, v in cfg.float_training.items() if k not in FIT_KEYS}


def make_task(cfg: ExperimentConfig, seed: int):
    return TASKS[cfg.task](load_dataset(cfg.dataset), seed=seed, **_batching_keys(cfg))


def make_retrain_config(cfg: ExperimentConfig, cell: dict, seed: int) -> qat.RetrainConfig:
    return qat.RetrainConfig(**cfg.retrain, **cell, seed=seed)


def run_id(bits: int, schedule: str, seed: int) -> str:
    """The name of a cell's run directory and record; `schedule` is the
    parsed schedule's name."""
    return f"b{bits}_{schedule}_s{seed}"


def _float_retrain_config(cfg: ExperimentConfig, seed: int) -> qat.RetrainConfig:
    # with no groups to quantize any schedule that trains gives the same run;
    # conventional never asks for a step solve.  The float baseline has its
    # own defaults for FIT_KEYS; retraining's are RetrainConfig's.
    fit = {k: v for k, v in cfg.float_training.items() if k in FIT_KEYS}
    return qat.RetrainConfig(schedule="conventional", seed=seed,
                             **{"max_epochs": 30, "optimizer": {}, **fit})


# -- float baseline ----------------------------------------------------------

def train_float(cfg: ExperimentConfig, seed: int):
    """Train the floating-point baseline; returns (Checkpoint, RunRecord).

    Runs the retraining loop on a network with nothing quantized, whose
    initial arrays are copied into the master: keeps the best-on-dev
    parameters and buffers and stops at the lr-schedule floor or max_epochs.
    """
    task = make_task(cfg, seed)
    fcfg = _float_retrain_config(cfg, seed)
    net = build_network(cfg.network, np.random.default_rng(seed))
    record = RunRecord(run_id=f"float_s{seed}", cell_bits=0, schedule="float",
                       seed=seed, metric_name=task.metric_name)
    shadow = qat.init_quantization(net.param_arrays(), {}, bits=0)  # no group
    net.bind_params(shadow.quantized, shadow.grads)
    qat.fit(fcfg, net, shadow, task, record)
    # fit leaves the shadow and the network with the best-on-dev state
    ckpt = Checkpoint(layer_cfgs=cfg.network, params=shadow.master,
                      config_echo=_float_config_echo(cfg, seed), buffers=net.get_buffers())
    return ckpt, record


def _float_config_echo(cfg: ExperimentConfig, seed: int) -> dict:
    """The config sections a float checkpoint depends on, besides its network."""
    return {"task": cfg.task, "seed": seed, "dataset": cfg.dataset,
            "float_training": cfg.float_training}


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
    """Load the float checkpoint under `out_dir`, or train it if there is none.

    Raises ValueError, naming the section, when the existing checkpoint was
    trained under another task, dataset, network or float_training config,
    and naming the keys when its buffers are not those of its network (a
    batch-norm checkpoint written before checkpoints held buffers).
    """
    path = float_checkpoint_path(out_dir, seed)
    if not path.exists():
        return train_and_save_float(cfg, seed, out_dir)[0]
    ckpt = load_checkpoint(path)
    stored = {**ckpt.config_echo, "network": ckpt.layer_cfgs}
    # compare as stored: JSON turns tuples into lists
    wanted = json.loads(json.dumps({**_float_config_echo(cfg, seed), "network": cfg.network}))
    for section, value in wanted.items():
        if stored.get(section) != value:
            raise ValueError(f"{path} was trained with a different {section}; "
                             "delete it or use another output directory")
    try:
        build_network(ckpt.layer_cfgs, np.random.default_rng(0)).set_buffers(ckpt.buffers)
    except ValueError as e:
        raise ValueError(f"{path} does not hold the buffers of its network ({e}); "
                         "delete it or use another output directory") from None
    return ckpt


# -- sweep -------------------------------------------------------------------

def run_cell(cfg: ExperimentConfig, cell: dict, seed: int, out_dir) -> RunRecord:
    """One (bits, schedule, seed) retraining run, records written to disk."""
    rcfg = make_retrain_config(cfg, cell, seed)
    ckpt = ensure_float_checkpoint(cfg, seed, out_dir)
    task = make_task(cfg, seed)
    _, record = qat.run(rcfg, ckpt, task, run_id=run_id(rcfg.bits, rcfg.schedule.name, seed))
    _write_record(Path(out_dir) / "runs" / record.run_id, record)
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
    _write_trajectory(run_dir / "trajectory.csv", [record])


# -- reporting ---------------------------------------------------------------

RESULTS_HEADER = ["cell_bits", "schedule", "seed", "split", "metric", "value"]
TRAJECTORY_HEADER = ["run_id", "epoch", "group_id", "delta"]


def _write_trajectory(path: Path, records: list[RunRecord]):
    """Per-epoch step size of every group of every record, one row each."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(TRAJECTORY_HEADER)
        for r in records:
            for d in r.deltas:
                w.writerow([r.run_id, d.epoch, d.group_id, repr(d.delta)])


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

    _write_trajectory(out_dir / "trajectory.csv", records)

    cells: dict[tuple, dict] = {}
    for r in records:
        if r.final_test_metric is None:
            continue
        key = (r.cell_bits, r.schedule, r.metric_name)
        cells.setdefault(key, {})[r.seed] = r.final_test_metric
    all_seeds = sorted({s for v in cells.values() for s in v})
    summary = {}
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["cell_bits", "schedule", "metric", "mean"]
                   + [f"seed_{s}" for s in all_seeds])
        for key, by_seed in sorted(cells.items()):
            mean = sum(by_seed.values()) / len(by_seed)
            w.writerow([*key, repr(mean)]
                       + [repr(by_seed[s]) if s in by_seed else "" for s in all_seeds])
            summary["|".join(map(str, key))] = {
                "mean": mean, "per_seed": {str(s): by_seed[s] for s in sorted(by_seed)}}
    with open(out_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return summary

