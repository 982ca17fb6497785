"""Independent oracles used by the tests.

These deliberately avoid the library's vectorized code paths: the scalar
quantizer is a straight-line transcription of the rounding formula, the grid
searches evaluate the squared-error objective per candidate, the step-solver
reference walks the breakpoints one at a time, and the gradient checker uses
central finite differences.
"""

import math

import numpy as np

from qatkit.quantizer import DegenerateGroupError, WeightGroup, _half_squared_error


def scalar_quantize(w, step, points):
    """Straight-line scalar rounding: sgn(w)*step*min(floor(|w|/step+0.5), (M-1)/2)."""
    k = (points - 1) // 2
    if w > 0:
        s = 1.0
    elif w < 0:
        s = -1.0
    else:
        s = 0.0
    n = math.floor(abs(w) / step + 0.5)
    if n > k:
        n = k
    return s * step * n


def quant_mse_direct(values, step, points):
    """(1/2) sum (Q(w)-w)^2 by direct scalar summation."""
    total = 0.0
    for w in values:
        q = scalar_quantize(float(w), step, points)
        total += (q - w) ** 2
    return 0.5 * total


def grid_search_mse_slow(values, points, candidates):
    """Dense grid search by direct evaluation; returns (best_step, best_mse)."""
    best_step, best_mse = None, math.inf
    for step in candidates:
        mse = quant_mse_direct(values, float(step), points)
        if mse < best_mse:
            best_step, best_mse = float(step), mse
    return best_step, best_mse


def grid_search_mse(values, points, candidates):
    """Dense grid search using prefix sums over sorted magnitudes.

    For level index k (1..K), a weight contributes level k exactly when
    |w| >= (k-0.5)*step, so sum(n*|w|) and sum(n^2) reduce to tail sums at
    K thresholds per candidate.  Algebraically identical to direct
    evaluation (cross-checked against grid_search_mse_slow in the tests)
    but fast enough for 1e5 candidates on 1e4-sized groups.
    """
    absw = np.sort(np.abs(np.asarray(values, dtype=np.float64)))
    n = absw.size
    prefix = np.concatenate([[0.0], np.cumsum(absw)])
    sum_w2 = float(np.dot(absw, absw))
    k_max = (points - 1) // 2
    candidates = np.asarray(candidates, dtype=np.float64)
    sum_nw = np.zeros_like(candidates)
    sum_n2 = np.zeros_like(candidates)
    for k in range(1, k_max + 1):
        idx = np.searchsorted(absw, (k - 0.5) * candidates, side="left")
        tail_count = n - idx
        tail_sum = prefix[n] - prefix[idx]
        sum_nw += tail_sum
        sum_n2 += (2 * k - 1) * tail_count
    mse = 0.5 * (sum_w2 - 2.0 * candidates * sum_nw + candidates**2 * sum_n2)
    best = int(np.argmin(mse))
    return float(candidates[best]), float(mse[best])


def optimize_step_loop(group: WeightGroup, M: int) -> tuple[float, float]:
    """Reference exact step solver: one Python iteration per breakpoint.

    The loop `quantizer.optimize_step` replaced.  It sorts all N*K
    breakpoints |w|/(k-0.5) with a stable argsort (ties in weight-index, then
    level order), then walks them in ascending order keeping sum(n*|w|) and
    sum(n^2), checking each region's interior stationary point and its right
    endpoint; the first strict minimum wins.  `optimize_step` must return
    the same `(step, mse)` bit for bit.
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


def assert_on_grid(q, step, points):
    """Every entry of q equals n*step for an integer n with |n| <= (M-1)/2."""
    n = np.rint(np.asarray(q) / step)
    np.testing.assert_array_equal(n * step, q)
    assert np.abs(n).max() <= (points - 1) // 2


def finite_difference_grads(f, params, eps=1e-6):
    """Central-difference gradient of scalar f() w.r.t. each array in `params`
    (dict name -> ndarray, mutated in place during probing)."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * eps)
        grads[name] = g
    return grads


def relative_error(a, b, floor=1e-8):
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), floor)
    return float((num / den).max())
