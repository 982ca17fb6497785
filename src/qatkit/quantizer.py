"""Symmetric uniform weight quantization and optimal step-size search.

A weight group is quantized onto the grid {n * step : |n| <= (M-1)/2} where
M = 2^bits - 1 levels are symmetric about zero.  The step size that minimizes
the squared error between float and quantized weights is found exactly, by a
sweep over the breakpoints where a weight changes level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DegenerateGroupError(ValueError):
    """Raised when a weight group is all zeros and no positive step exists."""


def points_for_bits(bits: int) -> int:
    """Number of symmetric quantization levels for a given bit width.

    2 bits -> 3 points, 3 bits -> 7 points, ..., always odd so that zero is
    representable and the grid is symmetric.
    """
    if not isinstance(bits, (int, np.integer)) or isinstance(bits, bool):
        raise ValueError(f"bits must be an integer, got {bits!r}")
    if bits < 2:
        raise ValueError(
            f"bits must be >= 2 (got {bits}); a 1-bit symmetric odd grid "
            "collapses to the single level 0"
        )
    return 2 ** int(bits) - 1


@dataclass(frozen=True)
class QuantizerSpec:
    """Bit width, level count M and step size for one weight group."""

    bits: int
    points: int
    step: float

    def __post_init__(self):
        expected = points_for_bits(self.bits)
        if self.points != expected:
            raise ValueError(
                f"points must be 2^bits - 1 = {expected}, got {self.points}"
            )
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be positive and finite, got {self.step}")

    @classmethod
    def from_bits(cls, bits: int, step: float) -> "QuantizerSpec":
        return cls(bits=bits, points=points_for_bits(bits), step=float(step))

    @property
    def max_level(self) -> int:
        return (self.points - 1) // 2


@dataclass
class WeightGroup:
    """Flat collection of weights sharing one step size (e.g. one layer)."""

    values: np.ndarray
    group_id: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size < 1:
            raise ValueError(f"group {self.group_id!r} is empty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"group {self.group_id!r} contains non-finite values")


def _levels(w: np.ndarray, step: float, max_level: int) -> np.ndarray:
    """Integer level index per weight: sgn(w) * min(floor(|w|/step + 0.5), K)."""
    n = np.floor(np.abs(w) / step + 0.5)
    np.minimum(n, max_level, out=n)
    return np.sign(w) * n


def quantize(w, spec: QuantizerSpec):
    """Round weights onto the grid of `spec`, clipping at step*(M-1)/2.

    Uses magnitude round-half-up: sgn(w) * step * min(floor(|w|/step + 0.5), (M-1)/2).
    Accepts a scalar or an array; returns the same shape.
    """
    arr = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize: input contains non-finite values")
    scalar = arr.ndim == 0
    out = spec.step * _levels(np.atleast_1d(arr), spec.step, spec.max_level)
    if scalar:
        return float(out[0])
    return out


def _half_squared_error(w: np.ndarray, step: float, max_level: int) -> float:
    d = step * _levels(w, step, max_level) - w
    return 0.5 * float(np.dot(d, d))


def quant_mse(group: WeightGroup, spec: QuantizerSpec) -> float:
    """Half the summed squared quantization error: (1/2) sum (Q(w) - w)^2."""
    return _half_squared_error(group.values, spec.step, spec.max_level)


def optimize_step(group: WeightGroup, M: int) -> tuple[float, float]:
    """Find the step size minimizing quant_mse for a group with M levels.

    The objective is piecewise quadratic in the step: each weight's level
    index drops from k to k-1 exactly when the step crosses |w|/(k-0.5).
    Sweeping those breakpoints in ascending order while maintaining
    sum(n*|w|) and sum(n^2) visits every assignment region; within a region
    the quadratic's stationary point sum(n*|w|)/sum(n^2) is the exact
    least-squares step, so checking it (when interior) plus the region's
    right endpoint yields the global minimum.  O(N*K log(N*K)) with
    K = (M-1)/2, all in double precision.

    Raises DegenerateGroupError for an all-zero group.  The returned step is
    the smallest global minimizer, deterministically.
    """
    if M < 3 or M % 2 == 0:
        raise ValueError(f"M must be odd and >= 3, got {M}")
    max_level = (M - 1) // 2
    absw = np.abs(group.values)
    absw = absw[absw > 0.0]
    if absw.size == 0:
        raise DegenerateGroupError(
            f"group {group.group_id!r} is all zeros; no positive step exists"
        )
    sum_w2 = float(np.dot(absw, absw))
    ks = np.arange(1, max_level + 1, dtype=np.float64)
    # breakpoint matrix: |w_i| / (k - 0.5); crossing it drops level k -> k-1
    bp = (absw[:, None] / (ks - 0.5)[None, :]).ravel()
    d_s1 = np.repeat(absw, max_level)
    d_s2 = np.tile(2.0 * ks - 1.0, absw.size)
    order = np.argsort(bp, kind="stable")
    bp, d_s1, d_s2 = bp[order], d_s1[order], d_s2[order]

    s1 = max_level * float(absw.sum())
    s2 = float(max_level) ** 2 * absw.size
    best_step, best_mse = None, math.inf
    prev_b = 0.0
    for j in range(bp.size):
        b = bp[j]
        if s2 > 0.0:
            stat = s1 / s2
            if prev_b < stat <= b:
                mse = 0.5 * (sum_w2 - s1 * stat)
                if mse < best_mse:
                    best_step, best_mse = stat, mse
            mse_b = 0.5 * (sum_w2 - 2.0 * b * s1 + b * b * s2)
            if mse_b < best_mse:
                best_step, best_mse = b, mse_b
        s1 -= d_s1[j]
        s2 -= d_s2[j]
        prev_b = b
    if best_step is None:
        raise DegenerateGroupError(f"group {group.group_id!r}: no positive step found")
    # re-evaluate through the forward rounding path so the reported mse is
    # bit-identical to quant_mse at the returned step
    return best_step, _half_squared_error(group.values, best_step, max_level)


def exhaustive_search_step(
    initial_step: float, eval_fn: Callable[[float], float], num_candidates: int
) -> float:
    """Black-box search over geometrically spaced steps in [init/2, 2*init].

    `eval_fn` scores a candidate step (lower is better, e.g. dev-set error of
    the network quantized with it).  Ties break toward the smaller step.
    """
    if not (math.isfinite(initial_step) and initial_step > 0):
        raise ValueError(f"initial_step must be positive, got {initial_step}")
    if num_candidates < 2:
        raise ValueError("num_candidates must be >= 2")
    candidates = np.geomspace(initial_step / 2, 2 * initial_step, num_candidates)
    best_step = None
    best_score = math.inf
    for step in candidates:
        score = float(eval_fn(float(step)))
        if score < best_score:
            best_score = score
            best_step = float(step)
    return best_step
