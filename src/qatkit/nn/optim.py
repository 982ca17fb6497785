"""Optimizers and the patience-based learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import check_args, reject_unknown


def _check_rate(key: str, value: float):
    if not (0 < value < math.inf):
        raise ValueError(f"{key} must be positive and finite, got {value!r}")


@dataclass
class LrScheduleConfig:
    initial_lr: float = 2e-3
    final_lr: float = 3.90625e-6
    decay_factor: float = 2.0
    patience_evals: int = 4

    def __post_init__(self):
        check_args(type(self).__name__, vars(self), type(self))
        for key in ("initial_lr", "final_lr"):
            _check_rate(key, getattr(self, key))
        if not (self.initial_lr >= self.final_lr):
            raise ValueError("need initial_lr >= final_lr")
        if self.decay_factor <= 1:
            raise ValueError("decay_factor must be > 1")
        if self.patience_evals < 1:
            raise ValueError("patience_evals must be >= 1")


class LrSchedule:
    """Halve-on-plateau: divide lr by decay_factor when the dev metric shows
    no improvement for patience_evals consecutive evaluations (lower = better),
    flooring at final_lr."""

    def __init__(self, cfg: LrScheduleConfig):
        self.cfg = cfg
        self.lr = cfg.initial_lr
        self.best = float("inf")
        self.bad_count = 0

    def step(self, dev_metric: float) -> float:
        if dev_metric < self.best:
            self.best = dev_metric
            self.bad_count = 0
        else:
            self.bad_count += 1
            if self.bad_count >= self.cfg.patience_evals:
                self.lr = max(self.lr / self.cfg.decay_factor, self.cfg.final_lr)
                self.bad_count = 0
        return self.lr

    @property
    def at_floor(self) -> bool:
        return self.lr <= self.cfg.final_lr


@dataclass
class OptimizerConfig:
    kind: str = "sgd_nesterov"  # a key of OPTIMIZERS
    learning_rate: float = 2e-3
    momentum: float = 0.9
    rho: float = 0.95  # AdaDelta decay
    eps: float = 1e-6
    lr_schedule: LrScheduleConfig = field(default_factory=LrScheduleConfig)

    def __post_init__(self):
        check_args(type(self).__name__, vars(self), type(self))
        reject_unknown("optimizer kind", [self.kind], OPTIMIZERS)
        _check_rate("learning_rate", self.learning_rate)
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must be in [0, 1)")
        if not (0 <= self.rho < 1):
            raise ValueError(f"rho must be in [0, 1), got {self.rho!r}")
        if not (0 < self.eps < math.inf):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")
        if not isinstance(self.lr_schedule, LrScheduleConfig):
            self.lr_schedule = LrScheduleConfig(**check_args("lr_schedule", self.lr_schedule,
                                                             LrScheduleConfig))
        # training starts at lr_schedule.initial_lr; learning_rate must agree
        if self.learning_rate != self.lr_schedule.initial_lr:
            raise ValueError(
                f"learning_rate {self.learning_rate} differs from lr_schedule.initial_lr "
                f"{self.lr_schedule.initial_lr}; set both to the starting rate"
            )


class SGDNesterov:
    """SGD with Nesterov momentum:
        v <- mu*v + g;  w <- w - lr*(g + mu*v)
    With momentum 0 this is plain SGD, w <- w - lr*g bit for bit, except that
    a -0.0 gradient entry can flip the sign of a zero weight."""

    def __init__(self, momentum=0.9):
        self.momentum = momentum
        self.v: dict[str, np.ndarray] = {}
        self.scratch: dict[str, np.ndarray] = {}  # lr*(g + mu*v) per key

    def update(self, params: dict, grads: dict, lr: float):
        mu = self.momentum
        for k, w in params.items():
            g = grads[k]
            t = self.scratch.get(k)
            if t is None:
                t = self.scratch[k] = np.empty_like(g)
            v = self.v.get(k)
            if v is None:
                v = self.v[k] = np.zeros_like(g)
            # in place, in the order of operations of the formulas above
            v *= mu
            v += g
            np.multiply(v, mu, out=t)
            t += g
            t *= lr
            w -= t


class AdaDelta:
    """AdaDelta with a learning-rate multiplier on the adaptive step:
        eg <- rho*eg + (1-rho)*g*g;  dx = -sqrt(ex + eps) / sqrt(eg + eps) * g
        ex <- rho*ex + (1-rho)*dx*dx;  w <- w + lr*dx"""

    def __init__(self, rho=0.95, eps=1e-6):
        self.rho, self.eps = rho, eps
        self.eg: dict[str, np.ndarray] = {}
        self.ex: dict[str, np.ndarray] = {}
        self.scratch: dict[str, np.ndarray] = {}  # two work arrays per key

    def update(self, params: dict, grads: dict, lr: float):
        rho, eps = self.rho, self.eps
        for k, w in params.items():
            g = grads[k]
            if k not in self.eg:
                self.eg[k], self.ex[k] = np.zeros_like(g), np.zeros_like(g)
                self.scratch[k] = np.empty((2,) + g.shape)
            eg, ex = self.eg[k], self.ex[k]
            dx, t = self.scratch[k]
            # in place, in the order of operations of the formulas above
            eg *= rho
            np.multiply(g, 1 - rho, out=t)
            t *= g
            eg += t
            np.add(ex, eps, out=dx)
            np.sqrt(dx, out=dx)
            np.negative(dx, out=dx)
            np.add(eg, eps, out=t)
            np.sqrt(t, out=t)
            dx /= t
            dx *= g
            ex *= rho
            np.multiply(dx, 1 - rho, out=t)
            t *= dx
            ex += t
            np.multiply(dx, lr, out=t)
            w += t


# optimizer kind -> its constructor, given the OptimizerConfig
OPTIMIZERS = {
    "sgd_nesterov": lambda cfg: SGDNesterov(momentum=cfg.momentum),
    "adadelta": lambda cfg: AdaDelta(rho=cfg.rho, eps=cfg.eps),
}


def make_optimizer(cfg: OptimizerConfig):
    return OPTIMIZERS[cfg.kind](cfg)
