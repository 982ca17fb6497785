"""Symmetric uniform weight quantization and optimal step-size search.

A weight group is quantized onto the grid {n * step : |n| <= (M-1)/2} where
M = 2^bits - 1 levels are symmetric about zero.  The step size that minimizes
the squared error between float and quantized weights is found exactly, by a
sweep over the breakpoints where a weight changes level, for N weights and
K = (M-1)/2: O(N log N + N*K log SWEEP_CHUNK) time, and memory for a few
arrays of N and one window of about SWEEP_CHUNK of the N*K breakpoints.
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


def _round_onto_grid(w: np.ndarray, step: float, max_level: int,
                     out: np.ndarray) -> np.ndarray:
    """out = sgn(w) * min(floor(|w|/step + 0.5), max_level) * step; `out` is a
    float64 array of w's shape.  Raises ValueError, before `out` is written,
    if any weight is NaN or infinite."""
    n = np.abs(w)  # the level magnitudes
    if not math.isfinite(n.max(initial=0.0)):  # the max of |w| is NaN or inf
        raise ValueError("quantize: input contains non-finite values")
    n /= step
    n += 0.5
    np.floor(n, out=n)
    np.minimum(n, max_level, out=n)
    # sign times level: sgn(-0.0) is +0.0, so -0.0 gives +0.0 (copysign would
    # keep -0.0) and a tiny negative weight gives -0.0
    np.sign(w, out=out)
    out *= n
    out *= step
    return out


def quantize(w, spec: QuantizerSpec, out: np.ndarray | None = None):
    """Round weights onto the grid of `spec`, clipping at step*(M-1)/2.

    Uses magnitude round-half-up: sgn(w) * step * min(floor(|w|/step + 0.5), (M-1)/2).
    Accepts a scalar or an array; returns the same shape.  Given `out`, a
    float64 array of w's shape, writes the result there and returns it.
    Raises ValueError, leaving `out` as it was, if any weight is non-finite.
    """
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim == 0:
        return float(quantize(arr.reshape(1), spec)[0])
    if out is None:
        out = np.empty(arr.shape)
    elif out.shape != arr.shape or out.dtype != np.float64:
        raise ValueError(f"quantize: out must be float64 of shape {arr.shape}, "
                         f"got {out.dtype} {out.shape}")
    return _round_onto_grid(arr, spec.step, spec.max_level, out)


def _half_squared_error(w: np.ndarray, step: float, max_level: int) -> float:
    d = _round_onto_grid(w, step, max_level, np.empty(w.shape))
    d -= w
    return 0.5 * float(np.dot(d, d))


def quant_mse(group: WeightGroup, spec: QuantizerSpec) -> float:
    """Half the summed squared quantization error: (1/2) sum (Q(w) - w)^2."""
    return _half_squared_error(group.values, spec.step, spec.max_level)


# Breakpoints per window of `optimize_step`, which holds one window at a time:
# a window and the sweep's temporaries are a few arrays of about this length
# (read at each call).
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

    With K = (M-1)/2, the N*K breakpoints form K ascending rows (one per
    level, over the sorted magnitudes).  They are swept in ascending windows
    of about SWEEP_CHUNK (`_breakpoint_windows`), each built from a rank
    slice of every row and sorted on its own, with the running sums carried
    from window to window: O(N log N + N*K log SWEEP_CHUNK) time.  Memory is
    a few arrays of N, one window, and the window bounds and threshold
    sample, up to 2*K*K*N/SWEEP_CHUNK entries each; a window grows beyond
    SWEEP_CHUNK only where equal breakpoints pile up.  Equal breakpoints are
    visited in weight-index, then level order, and the running sums are
    subtracted sequentially, so the result is bit-identical to the
    one-breakpoint-at-a-time reference (`tests/oracles.optimize_step_loop`).

    Raises DegenerateGroupError for an all-zero group, and ValueError naming
    the group when the sum of its squared weights overflows.  The returned step is
    the smallest global minimizer, deterministically.
    """
    if M < 3 or M % 2 == 0:
        raise ValueError(f"M must be odd and >= 3, got {M}")
    max_level = (M - 1) // 2
    absw = np.abs(group.values)
    if not absw.all():  # a copy of the nonzero magnitudes only where there is a zero
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
    rank = np.argsort(absw)  # equal magnitudes in any order: the sweep fixes theirs
    mag = absw[rank]
    del absw  # the sweep reads the sorted copy

    best_step, best_mse = None, math.inf
    prev_b = 0.0
    for b, m, h in _breakpoint_windows(mag, rank, max_level, SWEEP_CHUNK):
        # running sums before each breakpoint, subtracted in sweep order;
        # crossing |w|/(k - 0.5) takes |w| off s1 and 2k - 1 off s2, which
        # counts integers, so it stays exact and positive
        acc1 = np.concatenate(([s1], m))
        np.subtract.accumulate(acc1, out=acc1)
        acc2 = np.concatenate(([s2], h))
        acc2[1:] *= 2.0
        np.subtract.accumulate(acc2, out=acc2)
        c1, c2 = acc1[:-1], acc2[:-1]
        stat = c1 / c2
        # mse at each region's right end b, 0.5 * (sum_w2 - 2.0*b*c1 + b*b*c2)
        # in that order of operations
        end = 2.0 * b
        end *= c1
        np.subtract(sum_w2, end, out=end)
        sq = b * b
        sq *= c2
        end += sq
        end *= 0.5
        # and at each stationary point inside its region, prev < stat <= b
        inside = stat <= b
        inside[0] &= prev_b < stat[0]
        inside[1:] &= b[:-1] < stat[1:]
        j_in = np.flatnonzero(inside)
        mid = 0.5 * (sum_w2 - c1[j_in] * stat[j_in])
        # keep the first strict improvement: the earliest minimum, if it is
        # below the best so far (fmin skips NaN, which never improves); a
        # region's stationary point comes before its right end
        low = np.fmin.reduce(mid, initial=np.fmin.reduce(end))
        if low < best_mse:
            best_mse = low
            at_end = end == low
            j = int(np.argmax(at_end)) if at_end.any() else b.size  # first right end
            hit = j_in[mid == low]
            best_step = float(stat[hit[0]] if hit.size and hit[0] <= j else b[j])
        s1, s2, prev_b = acc1[-1], acc2[-1], b[-1]
    if best_step is None:
        raise DegenerateGroupError(f"group {group.group_id!r}: no positive step found")
    # re-evaluate through the forward rounding path so the reported mse is
    # bit-identical to quant_mse at the returned step, without the sweep's
    # arrays of N alive beside its temporaries
    del rank, mag
    return best_step, _half_squared_error(group.values, best_step, max_level)


def _breakpoint_windows(mag: np.ndarray, rank: np.ndarray, max_level: int, chunk: int):
    """Yield the breakpoints mag / (k - 0.5), k = 1..max_level, in sweep order,
    one window of about `chunk` at a time, as (breakpoints, their magnitudes,
    their k - 0.5).

    Within a window, equal breakpoints are in weight-index, then level order
    (`_reference_tie_order`).  Row k of the breakpoints ascends with the
    sorted magnitudes `mag`, so value thresholds cut it into one rank slice
    per window; a window is its rows' slices, divided as whole rows would be,
    then sorted.  Equal breakpoints all fall on one side of a threshold, so a
    run of ties never straddles two windows.
    """
    halves = np.arange(1, max_level + 1) - 0.5
    # timsort merges the K ascending runs in log2(K) passes; from 4 bits
    # (K = 7) on, numpy's quicksort is faster.  Neither fixes the order of ties.
    kind = "stable" if max_level <= 3 else "quicksort"
    for m, h, lo, counts in _window_slices(mag, halves, chunk):
        bp = m / h  # the same division as a whole row, so the same values
        order = np.argsort(bp, kind=kind)
        bp = bp[order]
        _reference_tie_order(bp, order, rank, lo, counts)
        yield bp, m[order], h[order]


def _window_slices(mag: np.ndarray, halves: np.ndarray, chunk: int):
    """Yield each window's (magnitudes, k - 0.5, first rank per row, count per
    row), its rows' slices in level order, in ascending order of value.

    The thresholds are every 2K-th point of a sorted sample of each row's
    every (chunk/2K)-th breakpoint: a row's count below a threshold is then
    known to within chunk/2K, so a window holds chunk +- chunk/2 breakpoints,
    more where equal ones pile up.  Each row's slices are found by
    `np.searchsorted` on that row, one row at a time.
    """
    n, rows = mag.size, halves.size
    stride = max(1, chunk // (2 * rows))
    sample = (mag[stride - 1::stride] / halves[:, None]).ravel()
    sample.sort()
    per_window = chunk // stride
    thresholds = sample[per_window - 1:-1:per_window]
    # row k's slice in window j is bounds[j, k]:bounds[j + 1, k]
    bounds = np.empty((thresholds.size + 2, rows), dtype=np.intp)
    bounds[0], bounds[-1] = 0, n
    for k, h in enumerate(halves):
        bounds[1:-1, k] = np.searchsorted(mag / h, thresholds, side="right")
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        counts = hi - lo
        if counts.any():
            m = np.concatenate([mag[a:z] for a, z in zip(lo.tolist(), hi.tolist())])
            yield m, np.repeat(halves, counts), lo, counts


def _reference_tie_order(bp: np.ndarray, order: np.ndarray, rank: np.ndarray,
                         lo: np.ndarray, counts: np.ndarray) -> None:
    """Reorder `order` in place so that equal sorted breakpoints `bp` are in
    weight-index, then level order, as in the reference loop.

    `order` indexes a window laid out as row slices: `counts[k]` breakpoints
    of level k + 1 from magnitude rank `lo[k]` on.  The sort may leave equal
    breakpoints in any order, and ties across levels (e.g.
    x/0.5 == fl(3x)/1.5) must still follow the reference's order, or the
    running sums round differently.
    """
    eq = bp[1:] == bp[:-1]  # bp[p + 1] == bp[p]
    if not eq.any():
        return
    eq = np.concatenate(([False], eq))
    tied = eq.copy()
    tied[:-1] |= eq[1:]
    sub = order[tied]
    starts = np.cumsum(counts) - counts
    level = np.searchsorted(starts, sub, side="right") - 1
    weight = rank[lo[level] + sub - starts[level]]
    run = np.cumsum(~eq[tied])
    order[tied] = sub[np.lexsort((level, weight, run))]


def exhaustive_search_step(
    initial_step: float, eval_fn: Callable[[float], float], num_candidates: int
) -> float:
    """Black-box search over geometrically spaced steps in [init/2, 2*init].

    `eval_fn` scores a candidate step (lower is better, e.g. dev-set error of
    the network quantized with it).  Ties break toward the smaller step, so
    if no score is below inf (all inf or NaN) the smallest candidate wins.
    """
    if not (math.isfinite(initial_step) and initial_step > 0):
        raise ValueError(f"initial_step must be positive, got {initial_step}")
    if num_candidates < 2:
        raise ValueError("num_candidates must be >= 2")
    candidates = np.geomspace(initial_step / 2, 2 * initial_step, num_candidates)
    best_step, best_score = float(candidates[0]), math.inf
    for step in candidates:
        score = float(eval_fn(float(step)))
        if score < best_score:
            best_score = score
            best_step = float(step)
    return best_step
