"""Retraining engine: float master weights, quantized views, step schedules.

The loop per minibatch: forward and backward run on the quantized view, the
gradient updates the float master, and the quantized view is rebuilt from the
master with the current step size.  Step sizes themselves change only at
epoch boundaries, as dictated by the schedule.  The network holds views of
the shadow's vectors (`ShadowParams`, `Network.bind_params`), so it computes
on each rebuilt view without a copy, and its backward writes the gradients
the optimizer reads in place.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .nn.network import build_network, check_args, cross_entropy
from .nn.optim import LrSchedule, OptimizerConfig, make_optimizer
from .quantizer import (
    DegenerateGroupError,
    QuantizerSpec,
    WeightGroup,
    optimize_step,
    exhaustive_search_step,
    points_for_bits,
    quantize,
)
from .records import RunRecord

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Training loss or a master weight went non-finite."""


# -- schedules ---------------------------------------------------------------

SCHEDULE_FORMS = ("direct | conventional | exhaustive | adaptive | "
                  "adaptive_fixK (K >= 1, default 1) | "
                  "gradual:START-END:EPOCHS_PER_STAGE[:conventional|adaptive|adaptive_fixK] "
                  "(START > END >= 2, EPOCHS_PER_STAGE >= 1, inner form adaptive by default)")


@dataclass(frozen=True)
class Schedule:
    """When retraining re-solves the step size, and at which bit width each
    epoch trains.  Built by `parse_schedule`.

    `adapt_epochs` is 0 for a frozen step, None to re-solve it after every
    epoch, and K to re-solve it after each of the first K epochs of a stage.
    A gradual schedule trains `epochs_per_stage` epochs at each width from
    `start_bits` down, then stays at `end_bits`; any other has one stage.
    """
    name: str
    adapt_epochs: int | None = 0
    start_bits: int | None = None
    end_bits: int | None = None
    epochs_per_stage: int | None = None

    def plan(self, bits: int, max_epochs: int) -> list[tuple[int, bool]]:
        """(bit width, re-solve the step after the epoch) for each epoch, for
        a run that ends at `bits`; empty for direct."""
        if self.name == "direct":
            return []
        drops = 0 if self.start_bits is None else self.start_bits - self.end_bits
        eps = self.epochs_per_stage or 1
        out = []
        for epoch in range(max_epochs):
            stage = min(epoch // eps, drops)
            since = epoch - stage * eps
            out.append((bits + drops - stage,
                        self.adapt_epochs is None or since < self.adapt_epochs))
        return out


def _step_rule(text: str):
    """(name, adapt_epochs) of a schedule without stages, or None."""
    # exhaustive freezes the step, as conventional does, at the one `run`'s
    # dev search picks
    if text in ("direct", "conventional", "exhaustive"):
        return text, 0
    if text == "adaptive":
        return text, None
    m = re.fullmatch(r"adaptive_fix(\d*)", text)
    k = int(m.group(1) or 1) if m else 0
    return (f"adaptive_fix{k}", k) if k >= 1 else None


def parse_schedule(text: str) -> Schedule:
    """Parse a schedule from config/CLI text in one of SCHEDULE_FORMS.

    Raises ValueError naming the text and the accepted forms.
    """
    t = text.strip().lower()
    rule = _step_rule(t)
    if rule is not None:
        return Schedule(*rule)
    m = re.fullmatch(r"gradual:(\d+)-(\d+):(\d+)(?::(.+))?", t)
    if m:
        start, end, eps = (int(g) for g in m.group(1, 2, 3))
        inner = _step_rule(m.group(4) or "adaptive")
        if (start > end >= 2 and eps >= 1 and inner is not None
                and inner[0] not in ("direct", "exhaustive")):
            return Schedule(f"gradual{start}to{end}", inner[1], start, end, eps)
    raise ValueError(f"bad schedule {text!r}; accepted: {SCHEDULE_FORMS}")


# -- shadow parameters -------------------------------------------------------

class ShadowParams:
    """Float master weights (a copy of `params`), their gradients (zeros) and
    the quantized view, each one float64 vector: each group's keys adjacent,
    in `groups` order, then the ungrouped keys (biases, batch-norm gain and
    shift).  `master[k]`, `grads[k]` and `quantized[k]` are reshaped views of
    `master_vector`, `grad_vector` and `quantized_vector`, which holds the
    grouped keys only: an ungrouped key's quantized view is its master view.
    A group is one slice of each, solved and rebuilt in place in one call,
    and first solved at `bits`, before the other vectors are allocated."""

    def __init__(self, params: dict[str, np.ndarray], groups: dict[str, list[str]], bits: int):
        grouped = [k for keys in groups.values() for k in keys]
        shapes = {k: np.shape(params[k]) for k in grouped + [k for k in params if k not in grouped]}
        # one float64 copy, np.empty(0) leading for a float32 checkpoint or no params
        self.master_vector = np.concatenate([np.empty(0)] + [np.ravel(params[k]) for k in shapes])
        self.groups, self.master = groups, _views(self.master_vector, shapes)
        sizes = {gid: (sum(self.master[k].size for k in keys),) for gid, keys in groups.items()}
        self._weights = _views(self.master_vector, sizes)  # each group's slice of the master
        self.solve_steps(bits)
        self.grad_vector = np.zeros(self.master_vector.size)
        self.grads = _views(self.grad_vector, shapes)
        self.quantized_vector = np.empty(sum(w.size for w in self._weights.values()))
        self._levels = _views(self.quantized_vector, sizes)  # and of the quantized view
        self.quantized = {**self.master, **_views(self.quantized_vector,
                                                  {k: shapes[k] for k in grouped})}
        self.requantize()

    def solve_steps(self, bits: int):
        """Set each group's spec to its L2-optimal one at `bits` (see `_solve`)."""
        self.specs = {gid: _solve(w, gid, bits) for gid, w in self._weights.items()}

    def requantize(self, gids=None):
        """Rebuild the quantized view from the master with current steps.
        Raises DivergenceError, naming the group and key, for a master weight
        that is NaN or infinite."""
        for gid in (gids if gids is not None else self.groups):
            try:
                quantize(self._weights[gid], self.specs[gid], out=self._levels[gid])
            except ValueError as e:
                key = next(k for k in self.groups[gid] if not np.isfinite(self.master[k]).all())
                raise DivergenceError(f"group {gid!r}, key {key!r}: {e}") from None

    def update_steps(self, record: RunRecord | None = None):
        """Recompute every group's step from the master weights (the adaptive
        scheme).  A degenerate all-zero group keeps its previous step."""
        for gid, weights in self._weights.items():
            try:
                self.specs[gid] = _solve(weights, gid, self.specs[gid].bits)
            except DegenerateGroupError:
                log.warning("group %s degenerate during adaptation; keeping step %g",
                            gid, self.specs[gid].step)
                if record is not None:
                    record.events.append(f"degenerate-group:{gid}")
        self.requantize()


def _views(vector: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive slices of `vector`, one per key of `shapes` in order, reshaped."""
    ends = np.cumsum([0] + [math.prod(s) for s in shapes.values()])
    return {k: vector[a:b].reshape(s) for (k, s), a, b in zip(shapes.items(), ends, ends[1:])}


def _solve(weights: np.ndarray, gid: str, bits: int) -> QuantizerSpec:
    """The L2-optimal spec at `bits` for group `gid`, the flat `weights`.  Raises
    DegenerateGroupError, naming the group, if all are zero or no positive
    finite step is found (squares that underflow)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a step of 0 is reported below
        step, _ = optimize_step(WeightGroup(weights, gid), points_for_bits(bits))
    if not (step > 0.0 and math.isfinite(step)):
        raise DegenerateGroupError(
            f"group {gid!r}: the solver returned step {step!r}; no positive finite step "
            "exists (are the weights so small that their squares underflow?)"
        )
    return QuantizerSpec.from_bits(bits, step)


def init_quantization(master: dict[str, np.ndarray], groups: dict[str, list[str]],
                      bits: int) -> ShadowParams:
    """The shadow on a copy of `master`, each group's optimal step at `bits`."""
    return ShadowParams(master, groups, bits)


# -- retraining --------------------------------------------------------------

EXHAUSTIVE_CANDIDATES = 8  # steps tried per group by the exhaustive init
# the widest width a run accepts; above it the step solver's threshold sample
# grows as 4**bits (`quantizer._window_slices`)
MAX_BITS = 8


@dataclass
class RetrainConfig:
    schedule: Schedule  # given as text in one of SCHEDULE_FORMS, parsed here
    bits: int = 2  # the width retraining ends at; for gradual, END
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(
        kind="sgd_nesterov", learning_rate=5e-4,
        lr_schedule={"initial_lr": 5e-4, "final_lr": 3.90625e-6,
                     "decay_factor": 2.0, "patience_evals": 4},
    ))
    max_epochs: int = 20
    stop_at_lr_floor: bool = True
    seed: int = 0

    def __post_init__(self):
        check_args(type(self).__name__, vars(self), type(self))
        for name, least in (("bits", 2), ("max_epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        sched = parse_schedule(self.schedule)
        for name, width in (("bits", self.bits), ("schedule", sched.start_bits or 0)):
            if width > MAX_BITS:
                raise ValueError(f"{name} must be at most {MAX_BITS} bits wide, the widest "
                                 f"supported width, got {getattr(self, name)!r}")
        self.schedule = sched
        if not isinstance(self.optimizer, OptimizerConfig):
            self.optimizer = OptimizerConfig(**check_args("optimizer", self.optimizer,
                                                          OptimizerConfig))
        if sched.start_bits is not None:
            need = (sched.start_bits - sched.end_bits) * sched.epochs_per_stage + 1
            if self.bits != sched.end_bits or self.max_epochs < need:
                raise ValueError(f"schedule {sched.name} needs bits {sched.end_bits} and "
                                 f"max_epochs >= {need}, got bits {self.bits} and "
                                 f"max_epochs {self.max_epochs}")


def retrain_epoch(shadow: ShadowParams, net, batches, optimizer, lr: float,
                  update_steps: bool, record: RunRecord | None = None) -> float:
    """One pass over `batches` (iterable of (x, y)) with the Fig.-style loop
    under cross-entropy, then a re-solve of every group's step if
    `update_steps`; the mean loss.  `net` must hold `shadow.quantized`
    (`Network.bind_params`)."""
    total, count = 0.0, 0
    for x, y in batches:
        out = net.forward(x, train=True)
        loss, dout = cross_entropy(out, y)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss} at batch {count}")
        net.backward(dout)
        optimizer.update(shadow.master_vector, shadow.grad_vector, lr)
        shadow.requantize()
        total += loss
        count += 1
    if update_steps:
        shadow.update_steps(record=record)
    return total / max(count, 1)


def _exhaustive_init(shadow, net, task):
    """The exhaustive schedule's initial steps: per group, geometric search
    around the L2-optimal step scoring the quantized network on the dev split.
    `net` must hold `shadow.quantized`."""
    for gid in sorted(shadow.groups):
        spec = shadow.specs[gid]

        def score(step):
            shadow.specs[gid] = QuantizerSpec.from_bits(spec.bits, step)
            shadow.requantize([gid])
            return task.evaluate(net, "dev")

        best = exhaustive_search_step(spec.step, score, EXHAUSTIVE_CANDIDATES)
        shadow.specs[gid] = QuantizerSpec.from_bits(spec.bits, best)
        shadow.requantize([gid])


def fit(cfg: RetrainConfig, net, shadow: ShadowParams, task, record: RunRecord):
    """The epoch loop shared by float training and retraining; trains
    `shadow` in place.

    `net` must hold `shadow.quantized` and `shadow.grads`.  Walks the
    schedule's plan, keeping the stage's best-on-dev master (copied into one
    vector at each improvement), specs and buffers.  A change of width starts
    a stage, with a fresh optimizer and lr schedule, from the stage before's
    best state, each group solved at the new width.  Stops at the lr-schedule
    floor (not under gradual), restores the best state of the final stage and
    evaluates it on test; the shadow and the network keep it.  A float
    network is one whose shadow has no groups.
    """
    plan = cfg.schedule.plan(cfg.bits, cfg.max_epochs)
    if not plan:
        record.log_deltas(0, shadow.specs)
    lr_cfg = cfg.optimizer.lr_schedule
    stop_at_floor = (cfg.stop_at_lr_floor and cfg.schedule.start_bits is None
                     and lr_cfg.initial_lr > lr_cfg.final_lr)
    optimizer, lr_sched = make_optimizer(cfg.optimizer), LrSchedule(lr_cfg)
    # the stage's best dev metric (inf until an epoch improves), master copy, specs, buffers
    best_dev, best_master, best_specs = math.inf, None, None
    best_buffers = net.get_buffers()

    def restore(bits=None):
        # the stage's best state back, then each group solved afresh at `bits` if given
        net.set_buffers(best_buffers)
        if best_dev < math.inf:
            np.copyto(shadow.master_vector, best_master)
            shadow.specs = best_specs
        if bits is not None:
            shadow.solve_steps(bits)
        shadow.requantize()

    epoch = 0
    for epoch, (bits, update_steps) in enumerate(plan):
        if epoch and bits != plan[epoch - 1][0]:
            restore(bits)
            record.events.append(f"drop-bit:{epoch}:{bits}")
            optimizer, lr_sched = make_optimizer(cfg.optimizer), LrSchedule(lr_cfg)
            best_dev = math.inf
        try:
            mean_loss = retrain_epoch(
                shadow, net, task.batches("train", epoch), optimizer,
                lr_sched.lr, update_steps, record=record,
            )
        except DivergenceError as e:
            raise DivergenceError(f"{record.run_id}: epoch {epoch}: {e}") from e
        record.log_metric(epoch, "train", "loss", mean_loss)
        record.log_deltas(epoch, shadow.specs)
        dev = task.evaluate(net, "dev")
        record.log_metric(epoch, "dev", task.metric_name, dev)
        if dev < best_dev:
            best_dev, best_specs, best_buffers = dev, dict(shadow.specs), net.get_buffers()
            if best_master is None:
                best_master = np.empty_like(shadow.master_vector)
            np.copyto(best_master, shadow.master_vector)
        lr_sched.step(dev)
        if stop_at_floor and lr_sched.at_floor:
            break

    del optimizer  # its state goes before the test evaluation
    restore()
    record.final_test_metric = task.evaluate(net, "test")
    record.log_metric(epoch, "test", task.metric_name, record.final_test_metric)


def run(cfg: RetrainConfig, float_ckpt, task, run_id: str = "run") -> tuple:
    """Full retraining of one (bits, schedule) cell from a float checkpoint.

    The network is built from `float_ckpt.layer_cfgs`, with a copy of its
    buffers; a copy of its params becomes the master, and the network is
    bound to the quantized view and the gradients.  `task` supplies the data:
    batches(split, epoch), evaluate(net, split) -> metric (lower is better),
    and metric_name.  Returns (the best-on-dev ShadowParams, RunRecord).
    """
    record = RunRecord(run_id=run_id, cell_bits=cfg.bits, schedule=cfg.schedule.name,
                       seed=cfg.seed, metric_name=task.metric_name)
    net = build_network(float_ckpt.layer_cfgs, np.random.default_rng(cfg.seed))
    net.set_buffers(float_ckpt.buffers)
    shadow = init_quantization(float_ckpt.params, net.quant_group_map(),
                               cfg.schedule.start_bits or cfg.bits)
    net.bind_params(shadow.quantized, shadow.grads)
    if cfg.schedule.name == "exhaustive":
        _exhaustive_init(shadow, net, task)
    fit(cfg, net, shadow, task, record)
    return shadow, record
