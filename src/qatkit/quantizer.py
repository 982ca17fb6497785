"""Symmetric uniform weight quantization and optimal step-size search.

A weight group is quantized onto the grid {n * step : |n| <= (M-1)/2} where
M = 2^bits - 1 levels are symmetric about zero.  The step size that minimizes
the squared error between float and quantized weights is found exactly, by a
sweep over the breakpoints where a weight changes level: O(N log N + N*K log K)
time for N weights and K = (M-1)/2, with memory bounded by two N*K arrays.
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
    """Bit width and step size for one weight group."""

    bits: int
    step: float

    def __post_init__(self):
        points_for_bits(self.bits)
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be positive and finite, got {self.step}")

    @classmethod
    def from_bits(cls, bits: int, step: float) -> "QuantizerSpec":
        return cls(bits=bits, step=float(step))

    @property
    def points(self) -> int:
        """The level count M = 2^bits - 1."""
        return points_for_bits(self.bits)

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


# Breakpoints swept per vectorized step of `optimize_step`; bounds the sweep's
# temporaries to a few arrays of this length beside the two N*K arrays.
SWEEP_CHUNK = 4096


def optimize_step(group: WeightGroup, M: int) -> tuple[float, float]:
    """Find the step size minimizing quant_mse for a group with M levels.

    The objective is piecewise quadratic in the step: each weight's level
    index drops from k to k-1 exactly when the step crosses |w|/(k-0.5).
    Sweeping those breakpoints in ascending order while maintaining
    sum(n*|w|) and sum(n^2) visits every assignment region; within a region
    the quadratic's stationary point sum(n*|w|)/sum(n^2) is the exact
    least-squares step, so checking it (when interior) plus the region's
    right endpoint yields the global minimum.

    With K = (M-1)/2, the N*K breakpoints are laid out as K ascending runs
    (one per level, over the sorted magnitudes), merged by a stable argsort
    and swept in chunks of SWEEP_CHUNK: O(N log N + N*K log K) time, with
    memory bounded by the two N*K arrays (breakpoints and merge order), plus
    a few arrays as long as the count of tied breakpoints, all in double
    precision.  Equal breakpoints are visited in weight-index, then level
    order, and the running sums are subtracted sequentially, so the result
    is bit-identical to the one-breakpoint-at-a-time reference
    (`tests/oracles.optimize_step_loop`).

    Raises DegenerateGroupError for an all-zero group, and ValueError naming
    the group when the sum of its squared weights overflows.  The returned step is
    the smallest global minimizer, deterministically.
    """
    if M < 3 or M % 2 == 0:
        raise ValueError(f"M must be odd and >= 3, got {M}")
    max_level = (M - 1) // 2
    absw = np.abs(group.values)
    absw = absw[absw > 0.0]
    n = absw.size
    if n == 0:
        raise DegenerateGroupError(
            f"group {group.group_id!r} is all zeros; no positive step exists"
        )
    with np.errstate(over="ignore"):  # an overflow is reported below
        sum_w2 = float(np.dot(absw, absw))
    if not math.isfinite(sum_w2):
        raise ValueError(
            f"group {group.group_id!r}: the sum of squared weights overflows (largest "
            f"magnitude {absw.max():.6g}); no step can be solved in double precision"
        )
    s1 = max_level * float(absw.sum())
    s2 = float(max_level) ** 2 * n
    rank = np.argsort(absw, kind="stable")
    mag = absw[rank]
    # level-major breakpoints: row k-1 holds mag / (k - 0.5), ascending, so
    # the stable argsort only merges K runs; entry (k-1)*n + r is weight rank[r]
    bp = (mag[None, :] / (np.arange(1, max_level + 1) - 0.5)[:, None]).ravel()
    order = np.argsort(bp, kind="stable")
    bp = bp[order]
    _weight_then_level_ties(bp, order, rank)

    best_step, best_mse = None, math.inf
    prev_b = 0.0
    for lo in range(0, bp.size, SWEEP_CHUNK):
        b = bp[lo:lo + SWEEP_CHUNK]
        level, r = np.divmod(order[lo:lo + SWEEP_CHUNK], n)
        # running sums before each breakpoint, subtracted in sweep order;
        # s2 counts integers, so it stays exact and positive
        acc1 = np.subtract.accumulate(np.concatenate(([s1], mag[r])))
        acc2 = np.subtract.accumulate(np.concatenate(([s2], 2.0 * level + 1.0)))
        c1, c2 = acc1[:-1], acc2[:-1]
        prev = np.concatenate(([prev_b], b[:-1]))
        stat = c1 / c2
        cand = np.empty(2 * b.size)
        cand[0::2] = np.where((prev < stat) & (stat <= b),
                              0.5 * (sum_w2 - c1 * stat), math.inf)
        cand[1::2] = 0.5 * (sum_w2 - 2.0 * b * c1 + b * b * c2)
        # keep the first strict improvement: the earliest minimum, if it is
        # below the best so far (fmin skips NaN, which never improves)
        low = np.fmin.reduce(cand)
        if low < best_mse:
            j = int(np.argmax(cand == low))
            best_step, best_mse = float(stat[j // 2] if j % 2 == 0 else b[j // 2]), low
        s1, s2, prev_b = acc1[-1], acc2[-1], b[-1]
    if best_step is None:
        raise DegenerateGroupError(f"group {group.group_id!r}: no positive step found")
    # re-evaluate through the forward rounding path so the reported mse is
    # bit-identical to quant_mse at the returned step
    return best_step, _half_squared_error(group.values, best_step, max_level)


def _weight_then_level_ties(bp: np.ndarray, order: np.ndarray, rank: np.ndarray) -> None:
    """Reorder `order` in place so that among equal sorted breakpoints `bp`
    the weight index comes first and the level second.

    The merge leaves equal breakpoints in level, then magnitude-rank order;
    ties across levels (e.g. x/0.5 == fl(3x)/1.5) then differ from the
    reference's order, and the running sums round differently.
    """
    n = rank.size
    eq = np.concatenate(([False], bp[1:] == bp[:-1]))  # bp[p] == bp[p - 1]
    tied = eq.copy()
    tied[:-1] |= eq[1:]
    if not tied.any():
        return
    sub = order[tied]
    # key: tie run, then weight index.  One weight's breakpoints tie only
    # when they underflow to 0 or overflow to inf; the merge has them in
    # level order, which the stable sort keeps.
    key = np.cumsum(~eq[tied])
    key *= n
    key += rank[sub % n]
    order[tied] = sub[np.argsort(key, kind="stable")]


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
