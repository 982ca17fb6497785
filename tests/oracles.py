"""Independent oracles used by the tests.

These deliberately avoid the library's vectorized code paths: the scalar
quantizer is a straight-line transcription of the rounding formula, the
array quantizer the first, allocating version of the in-place one, the grid
searches evaluate the squared-error objective per candidate, the step-solver
reference walks the breakpoints one at a time, and the gradient checker uses
central finite differences.  The layer references are the first versions of
the convolution (im2col and col2im loops around einsum), the max pool (im2col,
argmax and col2im), batch norm on a channels-last (n, features) view
(`np.var`) and the LSTM one step at a time.  The max pool, batch norm in
evaluation and the LSTM must match them bit for bit; the convolution and the
batch-norm sums over the batch, which now run channels-first, within
`assert_close_to_reference`.  The first synthetic-text
generator (one `rng.choice` per character), the first text encoder (a dict
lookup per character) and the first SGD-with-Nesterov and AdaDelta updates
(new arrays on every call) must be matched exactly.  `run_reference` is a
whole retraining or float-training run written out from the README's rules,
which `qat.run` and `harness.train_float` must match bit for bit.
"""

import math

import numpy as np

from qatkit.nn import build_network, cross_entropy
from qatkit.quantizer import (
    DegenerateGroupError,
    WeightGroup,
    _half_squared_error,
    exhaustive_search_step,
    optimize_step,
)
from qatkit.records import DeltaRow, RunRecord


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


def quantize_array(w, step, points):
    """The first array quantizer, a new array at every step:
    step * (sgn(w) * min(floor(|w|/step + 0.5), (M-1)/2)); a scalar in gives a
    float out, and a NaN or infinite weight raises ValueError."""
    arr = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize: input contains non-finite values")
    a = np.atleast_1d(arr)
    n = np.floor(np.abs(a) / step + 0.5)
    np.minimum(n, (points - 1) // 2, out=n)
    out = step * (np.sign(a) * n)
    return float(out[0]) if arr.ndim == 0 else out


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


def group_vector(shadow, gid):
    """The master weights of group `gid` of a ShadowParams, flattened in key order."""
    return np.concatenate([shadow.master[k].ravel() for k in shadow.groups[gid]])


def squared_error(outputs, targets):
    """Mean (1/2)||out - target||^2 per sample; returns (loss, doutputs)."""
    d = outputs - targets
    n = outputs.shape[0]
    return 0.5 * float(np.sum(d * d)) / n, d / n


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


def synthetic_text_loop(n_chars, seed, vocab_size=26, order=2):
    """The first `data.synthetic_text`: one rng.choice(k, p=...) per character."""
    rng = np.random.default_rng(seed)
    chars = [chr(ord("a") + i) for i in range(min(vocab_size, 26))]
    v = len(chars)
    n_states = v ** order
    k = min(4, v)
    succ = rng.integers(0, v, size=(n_states, k))
    weights = rng.dirichlet(np.ones(k) * 0.5, size=n_states)
    out = list(rng.integers(0, v, size=order))
    state = 0
    for c in out:
        state = state * v + int(c)
    state %= n_states
    for _ in range(n_chars - order):
        j = rng.choice(k, p=weights[state])
        c = int(succ[state, j])
        out.append(c)
        state = (state * v + c) % n_states
    return "".join(chars[c] for c in out)


def encode_text_reference(text):
    """The first `data.encode_text`: the sorted set of characters and one dict
    lookup per character."""
    vocab = sorted(set(text))
    index = {c: i for i, c in enumerate(vocab)}
    codes = np.fromiter((index[c] for c in text), dtype=np.int64, count=len(text))
    return codes, vocab


def sgd_nesterov_update_loop(params, grads, v, lr, mu):
    """The first SGD-with-Nesterov-momentum update: fresh zero velocity for a
    new key, and new arrays on every call.  Mutates params; v maps key -> array."""
    for k, w in params.items():
        g = grads[k]
        if mu == 0.0:
            w -= lr * g
            continue
        vk = v.get(k)
        if vk is None:
            vk = np.zeros_like(g)
        vk = mu * vk + g
        v[k] = vk
        w -= lr * (g + mu * vk)


def adadelta_update_loop(params, grads, eg, ex, lr, rho, eps):
    """The first AdaDelta update: fresh zero state for a new key, and new
    state arrays on every call.  Mutates params; eg and ex map key -> array."""
    for k, w in params.items():
        g = grads[k]
        e_g = eg.get(k, np.zeros_like(g))
        e_x = ex.get(k, np.zeros_like(g))
        e_g = rho * e_g + (1 - rho) * g * g
        dx = -np.sqrt(e_x + eps) / np.sqrt(e_g + eps) * g
        e_x = rho * e_x + (1 - rho) * dx * dx
        eg[k], ex[k] = e_g, e_x
        w += lr * dx


# -- layer references --------------------------------------------------------

def im2col_loop(x, kh, kw, stride, pad):
    """(b, c, h, w) -> (b, c*kh*kw, oh*ow) patches, one window offset per pass."""
    b, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(b, c * kh * kw, oh * ow), oh, ow


def col2im_loop(cols, x_shape, kh, kw, stride, pad):
    """Sum patch gradients back onto the (b, c, h, w) input, offset by offset."""
    b, c, h, w = x_shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(b, c, kh, kw, oh, ow)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad : pad + h, pad : pad + w]
    return xp


def conv2d_reference(x, W, bias, dy, stride, pad):
    """Forward output, input gradient, dW and db of a convolution."""
    out_ch, _, k, _ = W.shape
    cols, oh, ow = im2col_loop(x, k, k, stride, pad)
    wmat = W.reshape(out_ch, -1)
    out = np.einsum("ok,bkp->bop", wmat, cols, optimize=True)
    out += bias[None, :, None]
    out = out.reshape(x.shape[0], out_ch, oh, ow)
    dym = dy.reshape(dy.shape[0], out_ch, -1)
    dW = np.einsum("bop,bkp->ok", dym, cols, optimize=True).reshape(W.shape)
    db = dym.sum(axis=(0, 2))
    dcols = np.einsum("ok,bop->bkp", wmat, dym, optimize=True)
    return out, col2im_loop(dcols, x.shape, k, k, stride, pad), dW, db


def maxpool2d_reference(x, dy, size, stride):
    """Forward output and input gradient of a max pool: argmax over each
    window's im2col column, gradient put back at the argmax."""
    b, c, h, w = x.shape
    cols, oh, ow = im2col_loop(x.reshape(b * c, 1, h, w), size, size, stride, 0)
    idx = cols.argmax(axis=1)
    out = np.take_along_axis(cols, idx[:, None, :], axis=1)[:, 0, :]
    dcols = np.zeros(cols.shape, dtype=dy.dtype)
    np.put_along_axis(dcols, idx[:, None, :], dy.reshape(b * c, 1, -1), axis=1)
    dx = col2im_loop(dcols, (b * c, 1, h, w), size, size, stride, 0)
    return out.reshape(b, c, oh, ow), dx.reshape(x.shape)


def batchnorm_reference(x2, gamma, beta, running_mean, running_var, momentum, eps, train):
    """Batch norm on (n, features): output, normalized input, 1/std and the
    running mean and variance after the call; training uses the batch's
    `np.var`, evaluation the running statistics."""
    if train:
        mu = x2.mean(axis=0)
        var = x2.var(axis=0)
        running_mean = momentum * running_mean + (1 - momentum) * mu
        running_var = momentum * running_var + (1 - momentum) * var
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x2 - mu) * inv_std
    return gamma * xhat + beta, xhat, inv_std, running_mean, running_var


def batchnorm_backward_reference(dy2, xhat, inv_std, gamma):
    """Input gradient, dgamma and dbeta of training batch norm on (n, features)."""
    dgamma = (dy2 * xhat).sum(axis=0)
    dbeta = dy2.sum(axis=0)
    g = dy2 * gamma
    n = dy2.shape[0]
    return inv_std * (g - g.mean(axis=0) - xhat * (g * xhat).sum(axis=0) / n), dgamma, dbeta


def lstm_reference(x, Wx, Wh, b, dy, grads, h0=None, c0=None, need_dx=True):
    """The first LSTM forward and backward: one step at a time on (batch,
    4*hidden) gate arrays, gradients added step by step, last step first.
    Adds the parameter gradients onto `grads` (keys Wx, Wh, b) in place and
    returns the outputs hs, the input gradient (None without need_dx) and
    the final (h, c)."""
    t_len, bsz, _ = x.shape
    hsz = Wh.shape[0]
    h_prev = np.zeros((bsz, hsz)) if h0 is None else h0
    c_prev = np.zeros((bsz, hsz)) if c0 is None else c0
    hs = np.empty((t_len, bsz, hsz))
    steps = []
    for t in range(t_len):
        z = x[t] @ Wx + h_prev @ Wh + b
        i = 1.0 / (1.0 + np.exp(-z[:, :hsz]))
        f = 1.0 / (1.0 + np.exp(-z[:, hsz : 2 * hsz]))
        g = np.tanh(z[:, 2 * hsz : 3 * hsz])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * hsz :]))
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        steps.append((x[t], h_prev, c_prev, i, f, g, o, tc))
        hs[t] = h
        h_prev, c_prev = h, c
    dx = np.empty(x.shape) if need_dx else None
    dh_next = np.zeros((bsz, hsz))
    dc_next = np.zeros_like(dh_next)
    for t in reversed(range(t_len)):
        xt, hp, cp, i, f, g, o, tc = steps[t]
        dh = dy[t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * g
        df = dc * cp
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        grads["Wx"] += xt.T @ dz
        grads["Wh"] += hp.T @ dz
        grads["b"] += dz.sum(axis=0)
        dh_next = dz @ Wh.T
        if need_dx:
            dx[t] = dz @ Wx.T
    return hs, dx, (h_prev, c_prev)


def assert_bits_equal(got, want):
    """Same shape and the same float64 bit pattern in every entry, so -0.0
    differs from 0.0 and NaN payloads count."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, (got.shape, want.shape)
    g = np.ascontiguousarray(got).view(np.int64)
    w = np.ascontiguousarray(want).view(np.int64)
    bad = np.flatnonzero(g != w)
    assert bad.size == 0, f"{bad.size} entries differ, first at {bad[:5]}: {got.ravel()[bad[:5]]} vs {want.ravel()[bad[:5]]}"


def assert_close_to_reference(got, want, rtol=1e-12):
    """Same shape, and every entry within rtol of the reference entry plus an
    absolute term of rtol times the reference's largest magnitude, so entries
    near zero from cancelling sums are held to the array's scale.  For results
    whose arithmetic runs in another order than the reference's."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, (got.shape, want.shape)
    scale = np.abs(want).max(initial=0.0)
    err = np.abs(got - want)
    bad = np.flatnonzero(~(err <= rtol * (np.abs(want) + scale)))
    assert bad.size == 0, (
        f"{bad.size} entries off by more than rtol {rtol}, first at {bad[:5]}: "
        f"{got.ravel()[bad[:5]]} vs {want.ravel()[bad[:5]]}"
    )


# -- whole runs --------------------------------------------------------------

def run_reference(cfg, ckpt, task, run_id="run", float_baseline=False):
    """`qat.run(cfg, ckpt, task, run_id)` written out plainly; with
    `float_baseline`, `harness.train_float`'s loop: no groups, and the arrays
    `build_network` draws at `cfg.seed` as the start.  The master is a dict of
    arrays; every forward gets a fresh `quantize_array` view of it in the
    layers' `params`, and the loop optimizers read the layers' `grads`.  Stages,
    best-on-dev state and the learning rate follow the README's rules, and a
    degenerate group raises.  Returns ((master, quantized view, specs {group:
    (bits, step)}, buffers), record), the state the test evaluation saw."""
    sched, opt, lrs = cfg.schedule, cfg.optimizer, cfg.optimizer.lr_schedule
    net = build_network(ckpt.layer_cfgs, np.random.default_rng(cfg.seed))
    keys = [(f"{ly.name}.{p}", ly, p) for ly in net.layers for p in sorted(ly.params)]
    bufs = [(f"{ly.name}.{b}", ly, b) for ly in net.layers for b in ly.buffers]
    if not float_baseline:  # the checkpoint's arrays in place of the drawn ones
        for k, ly, p in keys:
            ly.params[p] = np.array(ckpt.params[k], dtype=np.float64)
        for k, ly, b in bufs:
            setattr(ly, b, np.array(ckpt.buffers[k], dtype=np.float64))
    master = {k: ly.params[p].copy() for k, ly, p in keys}
    groups = {ly.name: [f"{ly.name}.{q}" for q in ly.quant_keys]
              for ly in net.layers if ly.quant_keys and not float_baseline}

    def solve(gid, bits):
        w = np.concatenate([master[k].ravel() for k in groups[gid]])
        return bits, float(optimize_step(WeightGroup(w, gid), 2 ** bits - 1)[0])

    def view():
        q = {k: w.copy() for k, w in master.items()}
        for gid, (bits, step) in specs.items():
            q.update({k: quantize_array(master[k], step, 2 ** bits - 1) for k in groups[gid]})
        return q

    def load():  # a fresh quantized view into the layers
        q = view()
        for k, ly, p in keys:
            ly.params[p] = q[k]

    def evaluate(split):
        load()
        return task.evaluate(net, split)

    def held_buffers():
        return {k: getattr(ly, b).copy() for k, ly, b in bufs}

    def log_deltas(epoch):
        record.deltas += [DeltaRow(epoch, gid, step) for gid, (_, step) in sorted(specs.items())]

    def restore():  # the stage's best state, if an epoch of it improved
        for k, ly, b in bufs:
            setattr(ly, b, best_buffers[k].copy())
        if best_dev < math.inf:
            master.update({k: w.copy() for k, w in best_master.items()})
            specs.update(best_specs)

    record = RunRecord(run_id=run_id, cell_bits=0 if float_baseline else cfg.bits,
                       schedule="float" if float_baseline else sched.name,
                       seed=cfg.seed, metric_name=task.metric_name)
    top, per_stage = sched.start_bits or cfg.bits, sched.epochs_per_stage or 1
    specs = {gid: solve(gid, top) for gid in groups}
    for gid in sorted(groups) if sched.name == "exhaustive" else []:
        bits, step = specs[gid]

        def score(candidate):
            specs[gid] = (bits, candidate)
            return evaluate("dev")

        specs[gid] = (bits, exhaustive_search_step(step, score, 8))
    epochs = 0 if sched.name == "direct" else cfg.max_epochs
    if not epochs:
        log_deltas(0)
    floor_stop = (cfg.stop_at_lr_floor and sched.start_bits is None
                  and lrs.initial_lr > lrs.final_lr)
    best_dev, best_master, best_specs, best_buffers = math.inf, None, None, held_buffers()
    width, state, lr, stale, epoch = top, ({}, {}), lrs.initial_lr, 0, 0
    for epoch in range(epochs):
        bits = max(top - epoch // per_stage, cfg.bits)
        if bits != width:  # a new stage
            restore()
            specs = {gid: solve(gid, bits) for gid in groups}
            record.events.append(f"drop-bit:{epoch}:{bits}")
            width, state, lr, stale, best_dev = bits, ({}, {}), lrs.initial_lr, 0, math.inf
        total, count = 0.0, 0
        for x, y in task.batches("train", epoch):
            load()
            for ly in net.layers:
                x = ly.forward(x, train=True)
            loss, dy = cross_entropy(x, y)
            for i in reversed(range(len(net.layers))):
                dy = net.layers[i].backward(dy, need_dx=i > 0)
            grads = {k: ly.grads[p] for k, ly, p in keys}
            if opt.kind == "sgd_nesterov":
                sgd_nesterov_update_loop(master, grads, state[0], lr, opt.momentum)
            else:
                adadelta_update_loop(master, grads, *state, lr, opt.rho, opt.eps)
            total, count = total + loss, count + 1
        # adaptive re-solves after every epoch, adaptive_fixK after the first K of a stage
        since = epoch - (top - bits) * per_stage
        if sched.adapt_epochs is None or since < sched.adapt_epochs:
            specs = {gid: solve(gid, bits) for gid in groups}
        record.log_metric(epoch, "train", "loss", total / max(count, 1))
        log_deltas(epoch)
        dev = evaluate("dev")
        record.log_metric(epoch, "dev", task.metric_name, dev)
        if dev < best_dev:
            best_dev, stale, best_specs = dev, 0, dict(specs)
            best_master, best_buffers = {k: w.copy() for k, w in master.items()}, held_buffers()
        else:
            stale += 1
            if stale >= lrs.patience_evals:
                lr, stale = max(lr / lrs.decay_factor, lrs.final_lr), 0
        if floor_stop and lr <= lrs.final_lr:
            break
    restore()
    record.final_test_metric = evaluate("test")
    record.log_metric(epoch, "test", task.metric_name, record.final_test_metric)
    return (master, view(), specs, held_buffers()), record
