"""Retraining engine: float master weights, quantized views, step schedules.

The loop per minibatch: forward and backward run on the quantized view, the
gradient updates the float master, and the quantized view is rebuilt from the
master with the current step size.  Step sizes themselves change only at
epoch boundaries, as dictated by the schedule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .nn.optim import LrSchedule, OptimizerConfig, make_optimizer
from .quantizer import (
    DegenerateGroupError,
    QuantizerSpec,
    WeightGroup,
    optimize_step,
    exhaustive_search_step,
    quantize,
)
from .records import RunRecord

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Training loss went non-finite."""


# -- schedules ---------------------------------------------------------------

@dataclass(frozen=True)
class Direct:
    """Quantize once, no retraining."""
    name = "direct"


@dataclass(frozen=True)
class ConventionalFixed:
    """Step size frozen at its initial value for all of retraining."""
    name = "conventional"


@dataclass(frozen=True)
class AdaptiveEveryEpoch:
    """Recompute the step size at every epoch boundary."""
    name = "adaptive"


@dataclass(frozen=True)
class AdaptiveFirstKThenFix:
    """Recompute the step size for the first k epochs, then freeze it."""
    k: int = 1

    @property
    def name(self):
        return f"adaptive_fix{self.k}"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class Gradual:
    """Lower the bit width one bit per stage, start_bits down to end_bits,
    running `inner` within each stage."""
    start_bits: int
    end_bits: int
    epochs_per_stage: int
    inner: object = field(default_factory=AdaptiveEveryEpoch)

    def __post_init__(self):
        if not (self.start_bits > self.end_bits >= 2):
            raise ValueError("need start_bits > end_bits >= 2")
        if self.epochs_per_stage < 1:
            raise ValueError("epochs_per_stage must be >= 1")
        if isinstance(self.inner, Gradual):
            raise ValueError("gradual schedules do not nest")

    @property
    def name(self):
        return f"gradual{self.start_bits}to{self.end_bits}"

    @property
    def num_stages(self):
        return self.start_bits - self.end_bits + 1

    def bits_at(self, epoch_index: int) -> int:
        stage = min(epoch_index // self.epochs_per_stage, self.num_stages - 1)
        return self.start_bits - stage


Schedule = Direct | ConventionalFixed | AdaptiveEveryEpoch | AdaptiveFirstKThenFix | Gradual


def parse_schedule(text: str) -> Schedule:
    """Parse a schedule from config/CLI text.

    Forms: direct | conventional | adaptive | adaptive_fix[K] |
    gradual:START-END:EPOCHS_PER_STAGE[:inner]
    """
    t = text.strip().lower()
    if t == "direct":
        return Direct()
    if t == "conventional":
        return ConventionalFixed()
    if t == "adaptive":
        return AdaptiveEveryEpoch()
    if t.startswith("adaptive_fix"):
        rest = t[len("adaptive_fix"):]
        return AdaptiveFirstKThenFix(k=int(rest) if rest else 1)
    if t.startswith("gradual:"):
        parts = t.split(":")
        span, eps = parts[1], int(parts[2])
        start, end = (int(x) for x in span.split("-"))
        inner = parse_schedule(parts[3]) if len(parts) > 3 else AdaptiveEveryEpoch()
        return Gradual(start_bits=start, end_bits=end, epochs_per_stage=eps, inner=inner)
    raise ValueError(f"unknown schedule {text!r}")


# -- schedule decisions ------------------------------------------------------

@dataclass(frozen=True)
class UpdateStep:
    pass


@dataclass(frozen=True)
class FreezeStep:
    pass


@dataclass(frozen=True)
class DropBit:
    new_bits: int


def apply_schedule(schedule: Schedule, epoch_index: int):
    """Pure decision for one epoch: update the step, freeze it, or drop a bit.

    For Gradual a DropBit fires at every stage boundary after the first stage;
    other epochs defer to the inner schedule (indexed within the stage).
    """
    if epoch_index < 0:
        raise ValueError("epoch_index must be >= 0")
    if isinstance(schedule, (Direct, ConventionalFixed)):
        return FreezeStep()
    if isinstance(schedule, AdaptiveEveryEpoch):
        return UpdateStep()
    if isinstance(schedule, AdaptiveFirstKThenFix):
        return UpdateStep() if epoch_index < schedule.k else FreezeStep()
    if isinstance(schedule, Gradual):
        eps = schedule.epochs_per_stage
        stage = epoch_index // eps
        if epoch_index % eps == 0 and 0 < stage <= schedule.num_stages - 1:
            return DropBit(schedule.start_bits - stage)
        return apply_schedule(schedule.inner, epoch_index % eps)
    raise TypeError(f"not a schedule: {schedule!r}")


# -- shadow parameters -------------------------------------------------------

class ShadowParams:
    """Float master weights plus the derived quantized view.

    `groups` maps group_id -> list of parameter keys sharing one step size.
    Parameters outside any group (biases, batch-norm gain/shift) are shared
    by reference between the two views.
    """

    def __init__(self, master: dict[str, np.ndarray], groups: dict[str, list[str]],
                 specs: dict[str, QuantizerSpec]):
        self.master = master
        self.groups = groups
        self.specs = specs
        grouped = {k for keys in groups.values() for k in keys}
        self.quantized = {
            k: (v if k not in grouped else v.copy()) for k, v in master.items()
        }
        self.requantize()

    def group_vector(self, gid: str) -> np.ndarray:
        return np.concatenate([self.master[k].ravel() for k in self.groups[gid]])

    def requantize(self, gids=None):
        """Rebuild the quantized view from the master with current steps."""
        for gid in (gids if gids is not None else self.groups):
            spec = self.specs[gid]
            for k in self.groups[gid]:
                self.quantized[k] = quantize(self.master[k], spec)

    def update_steps(self, record: RunRecord | None = None):
        """Recompute every group's step from the master weights (the adaptive
        scheme).  A degenerate all-zero group keeps its previous step."""
        for gid in self.groups:
            bits = self.specs[gid].bits
            try:
                step, _ = optimize_step(WeightGroup(self.group_vector(gid), gid),
                                        self.specs[gid].points)
            except DegenerateGroupError:
                log.warning("group %s degenerate during adaptation; keeping step %g",
                            gid, self.specs[gid].step)
                if record is not None:
                    record.events.append(f"degenerate-group:{gid}")
                continue
            self.specs[gid] = QuantizerSpec.from_bits(bits, step)
        self.requantize()


def init_quantization(master: dict[str, np.ndarray], groups: dict[str, list[str]],
                      bits: int) -> ShadowParams:
    """Determine each group's optimal step at `bits` and build the shadow pair."""
    specs = {}
    for gid, keys in groups.items():
        vec = np.concatenate([master[k].ravel() for k in keys])
        try:
            step, _ = optimize_step(WeightGroup(vec, gid), 2 ** bits - 1)
        except DegenerateGroupError as e:
            raise DegenerateGroupError(f"group {gid!r}: {e}") from e
        specs[gid] = QuantizerSpec.from_bits(bits, step)
    return ShadowParams(master, groups, specs)


# -- retraining --------------------------------------------------------------

EXHAUSTIVE_CANDIDATES = 8  # steps tried per group by the exhaustive init


@dataclass
class RetrainConfig:
    schedule: Schedule
    bits: int = 2
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(
        kind="sgd_nesterov", learning_rate=5e-4,
        lr_schedule={"initial_lr": 5e-4, "final_lr": 3.90625e-6,
                     "decay_factor": 2.0, "patience_evals": 4},
    ))
    max_epochs: int = 20
    stop_at_lr_floor: bool = True
    seed: int = 0
    exhaustive_init: bool = False

    def __post_init__(self):
        if isinstance(self.schedule, str):
            self.schedule = parse_schedule(self.schedule)
        if isinstance(self.optimizer, dict):
            self.optimizer = OptimizerConfig(**self.optimizer)
        if not isinstance(self.schedule, Gradual) and self.bits < 2:
            raise ValueError(f"bits must be >= 2, got {self.bits}")


def retrain_epoch(shadow: ShadowParams, net, batches, optimizer, lr: float,
                  loss_fn, decision, record: RunRecord | None = None) -> float:
    """One pass over `batches` (iterable of (x, y)) with the Fig.-style loop,
    then the epoch-boundary step action per `decision`.  Returns mean loss."""
    total, count = 0.0, 0
    for x, y in batches:
        net.set_params(shadow.quantized)
        net.zero_grads()
        out = net.forward(x, train=True)
        loss, dout = loss_fn(out, y)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss} at batch {count}")
        net.backward(dout)
        optimizer.update(shadow.master, net.get_grads(), lr)
        shadow.requantize()
        total += loss
        count += 1
    if isinstance(decision, UpdateStep):
        shadow.update_steps(record=record)
    return total / max(count, 1)


def _evaluate_quantized(net, shadow, task, split):
    net.set_params(shadow.quantized)
    return task.evaluate(net, split)


def _exhaustive_init(shadow, net, task):
    """Opt-in baseline initialization: per group, geometric search around the
    L2-optimal step scoring the quantized network on the dev split."""
    for gid in sorted(shadow.groups):
        spec = shadow.specs[gid]

        def score(step):
            shadow.specs[gid] = QuantizerSpec.from_bits(spec.bits, step)
            shadow.requantize([gid])
            return _evaluate_quantized(net, shadow, task, "dev")

        best = exhaustive_search_step(spec.step, score, EXHAUSTIVE_CANDIDATES)
        shadow.specs[gid] = QuantizerSpec.from_bits(spec.bits, best)
        shadow.requantize([gid])


def fit(cfg: RetrainConfig, net, shadow: ShadowParams, task, record: RunRecord) -> tuple:
    """The epoch loop shared by float training and retraining.

    Trains `shadow` for the epochs `cfg` allows (none for Direct), keeping the
    best-on-dev quantized state and stopping at the lr-schedule floor, then
    evaluates that state on test.  A float network is one whose shadow has no
    groups.  Returns (final ShadowParams, best-on-dev parameters).
    """
    sched = cfg.schedule
    n_epochs = 0 if isinstance(sched, Direct) else cfg.max_epochs
    if n_epochs == 0:
        record.log_deltas(0, shadow.specs)
    optimizer = make_optimizer(cfg.optimizer)
    lr_sched = LrSchedule(cfg.optimizer.lr_schedule)
    best_dev, best_params = math.inf, None
    stage_best_dev, stage_best_master = math.inf, None
    epoch = 0
    for epoch in range(n_epochs):
        decision = apply_schedule(sched, epoch)
        if isinstance(decision, DropBit):
            # seed the next stage from the best master seen so far, and
            # restart the optimizer state as a fresh run at the new width would
            source = stage_best_master if stage_best_master is not None else shadow.master
            shadow = init_quantization(source, shadow.groups, decision.new_bits)
            record.events.append(f"drop-bit:{epoch}:{decision.new_bits}")
            optimizer = make_optimizer(cfg.optimizer)
            lr_sched = LrSchedule(cfg.optimizer.lr_schedule)
            stage_best_dev, stage_best_master = math.inf, None
            decision = apply_schedule(
                sched.inner if isinstance(sched, Gradual) else sched, 0
            )
        net.reset_state()
        try:
            mean_loss = retrain_epoch(
                shadow, net, task.batches("train", epoch), optimizer,
                lr_sched.lr, task.loss, decision, record=record,
            )
        except DivergenceError as e:
            raise DivergenceError(f"{record.run_id}: epoch {epoch}: {e}") from e
        record.log_metric(epoch, "train", "loss", mean_loss)
        record.log_deltas(epoch, shadow.specs)
        net.reset_state()
        dev = _evaluate_quantized(net, shadow, task, "dev")
        record.log_metric(epoch, "dev", task.metric_name, dev)
        # keep the best-on-dev quantized state; for Gradual only states
        # already at the target bit width qualify
        at_target = (not isinstance(sched, Gradual)
                     or sched.bits_at(epoch) == sched.end_bits)
        if dev < best_dev and at_target:
            best_dev = dev
            best_params = {k: v.copy() for k, v in shadow.quantized.items()}
        if dev < stage_best_dev:
            stage_best_dev = dev
            stage_best_master = {k: v.copy() for k, v in shadow.master.items()}
        lr_sched.step(dev)
        if (cfg.stop_at_lr_floor and not isinstance(sched, Gradual)
                and lr_sched.at_floor
                and cfg.optimizer.lr_schedule.initial_lr
                > cfg.optimizer.lr_schedule.final_lr):
            break

    if best_params is None:
        best_params = shadow.quantized
    net.reset_state()
    net.set_params(best_params)
    record.final_test_metric = task.evaluate(net, "test")
    record.log_metric(epoch, "test", task.metric_name, record.final_test_metric)
    return shadow, best_params


def run(cfg: RetrainConfig, float_ckpt, task, run_id: str = "run") -> tuple:
    """Full retraining of one (bits, schedule) cell from a float checkpoint.

    `task` supplies the problem: build_network(rng), batches(split, epoch),
    evaluate(net, split) -> metric (lower is better), loss(outputs, targets)
    -> (loss, grad), and metric_name.  Returns (final ShadowParams, RunRecord).
    """
    sched = cfg.schedule
    bits0 = sched.start_bits if isinstance(sched, Gradual) else cfg.bits
    record = RunRecord(
        run_id=run_id, cell_bits=(sched.end_bits if isinstance(sched, Gradual) else cfg.bits),
        schedule=sched.name, seed=cfg.seed, metric_name=task.metric_name,
    )
    net = task.build_network(np.random.default_rng(cfg.seed))
    net.set_params(float_ckpt.params)
    shadow = init_quantization(net.get_params(), net.quant_group_map(), bits0)
    if cfg.exhaustive_init and isinstance(sched, ConventionalFixed):
        _exhaustive_init(shadow, net, task)
    shadow, _ = fit(cfg, net, shadow, task, record)
    return shadow, record
