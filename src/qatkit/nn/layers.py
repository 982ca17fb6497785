"""Layers with explicit forward/backward passes on numpy arrays.

Every layer caches what its backward pass needs during forward, batch norm
only in a training forward; a network drops each layer's cache as soon as it
returns in an eval pass.  `backward` sets every parameter's gradient in
`grads`, keyed like `params`, writing over the arrays there, so nothing needs
zeroing between steps.  `quant_keys` lists the weight matrices, which share
one quantization step; biases and batch-norm gain/shift are not quantized.
`buffers` names the array attributes that evaluation reads and no optimizer
trains.  `backward` returns the input gradient; with `need_dx=False` a layer
with weights may skip computing it and return None (the first layer of a
network has no use for it).  Image activations are channels-first: (batch,
channels, h, w).  The LSTM keeps work arrays across calls, sized to the
largest window it has seen; they are scratch, not `buffers`.  A constructor
raises ValueError, naming the layer, for a size or rate out of range.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Input shape incompatible with a layer; message names the layer."""


class InvalidStateError(RuntimeError):
    """Backward called without a matching forward cache."""


def uniform_fan_init(rng: np.random.Generator, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base class; subclasses fill params/grads/quant_keys."""

    buffers: tuple[str, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        # names of the parameters quantized with one shared step
        self.quant_keys: list[str] = []
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise InvalidStateError(f"{self.name}: backward without forward")
        cache, self._cache = self._cache, None
        return cache

    def zero_grads(self):
        """Zero every parameter's gradient, in place once it exists; a new
        one is C-contiguous, as backward's `out=` writes need."""
        for k, v in self.params.items():
            g = self.grads.get(k)
            if g is None or g.shape != v.shape:
                self.grads[k] = np.zeros(v.shape)
            else:
                g.fill(0.0)


def _check_counts(name: str, floor: int, **counts):
    """Raise ValueError, naming layer `name` and the key, for a count below
    `floor`."""
    for key, value in counts.items():
        if value < floor:
            raise ValueError(f"{name}: {key} must be >= {floor}, got {value!r}")


class FullyConnected(Layer):
    def __init__(self, name, fan_in, fan_out, rng):
        super().__init__(name)
        _check_counts(name, 1, fan_in=fan_in, fan_out=fan_out)
        self.fan_in, self.fan_out = fan_in, fan_out
        self.params["W"] = uniform_fan_init(rng, (fan_in, fan_out), fan_in, fan_out)
        self.params["b"] = np.zeros(fan_out)
        self.quant_keys = ["W"]
        self.zero_grads()

    def forward(self, x, train=True):
        if x.ndim < 2 or x.shape[-1] != self.fan_in:
            raise ShapeError(
                f"{self.name}: expected input (..., {self.fan_in}), got {x.shape}"
            )
        self._cache = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy, need_dx=True):
        x = self._take_cache()
        x2 = x.reshape(-1, self.fan_in)
        dy2 = dy.reshape(-1, self.fan_out)
        np.matmul(x2.T, dy2, out=self.grads["W"])
        np.sum(dy2, axis=0, out=self.grads["b"])
        return dy @ self.params["W"].T if need_dx else None


# fn -> (f, its derivative from y = f(z) alone: relu's z > 0 is y > 0, +-0 and NaN too)
_ACTS = {
    "linear": (lambda z: z, np.ones_like),
    "relu": (lambda z: np.maximum(z, 0.0), lambda y: (y > 0).astype(y.dtype)),
    "sigmoid": (
        lambda z: 1.0 / (1.0 + np.exp(-z)),
        lambda y: y * (1.0 - y),
    ),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
}


class Activation(Layer):
    def __init__(self, name, fn: str):
        super().__init__(name)
        if fn not in _ACTS:
            raise ValueError(f"{name}: unknown activation {fn!r}")
        self.fn = fn

    def forward(self, x, train=True):
        f, _ = _ACTS[self.fn]
        y = f(x)
        self._cache = y
        return y

    def backward(self, dy, need_dx=True):
        _, df = _ACTS[self.fn]
        return dy * df(self._take_cache())


class Softmax(Layer):
    """Row softmax over the last axis."""

    def forward(self, x, train=True):
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        self._cache = p
        return p

    def backward(self, dy, need_dx=True):
        p = self._take_cache()
        inner = (dy * p).sum(axis=-1, keepdims=True)
        return p * (dy - inner)


class Flatten(Layer):
    def forward(self, x, train=True):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy, need_dx=True):
        return dy.reshape(self._take_cache())


def _check_fits(name, x_shape, size, pad=0):
    """Raise ShapeError, naming the layer, when a size*size window does not
    fit the (padded) height and width of a 4-d input."""
    if min(x_shape[2:]) + 2 * pad < size:
        raise ShapeError(f"{name}: input {x_shape} with padding {pad} is smaller than "
                         f"the {size}x{size} window")


def _windows(x, size, stride):
    """The size*size strided views x[:, :, i::stride, j::stride] of a 4-d
    array, each cropped to the output grid, in window order (i, then j)."""
    oh = (x.shape[2] - size) // stride + 1
    ow = (x.shape[3] - size) // stride + 1
    return [x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            for i in range(size) for j in range(size)]


def _im2col(x, size, stride, pad):
    if pad:  # not np.pad: its per-call overhead outweighs this copy at small sizes
        b, c, h, w = x.shape
        xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
        x = xp
    cols = np.stack(_windows(x, size, stride), axis=2)  # (b, c, size*size, oh, ow)
    b, c, _, oh, ow = cols.shape
    return cols.reshape(b, c * size * size, oh * ow), oh, ow


def _col2im(cols, x_shape, size, stride, pad):
    b, c, h, w = x_shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    wins = _windows(xp, size, stride)
    cols = cols.reshape(b, c, size * size, *wins[0].shape[2:])
    for k, win in enumerate(wins):
        win += cols[:, :, k]
    if pad:
        return xp[:, :, pad : pad + h, pad : pad + w]
    return xp


class Conv2D(Layer):
    def __init__(self, name, in_ch, out_ch, kernel, rng, stride=1, padding=0):
        super().__init__(name)
        _check_counts(name, 1, in_ch=in_ch, out_ch=out_ch, kernel=kernel, stride=stride)
        _check_counts(name, 0, padding=padding)
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = in_ch * kernel * kernel
        fan_out = out_ch * kernel * kernel
        self.params["W"] = uniform_fan_init(rng, (out_ch, in_ch, kernel, kernel), fan_in, fan_out)
        self.params["b"] = np.zeros(out_ch)
        self.quant_keys = ["W"]
        self.zero_grads()

    def forward(self, x, train=True):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ShapeError(
                f"{self.name}: expected input (batch, {self.in_ch}, h, w), got {x.shape}"
            )
        _check_fits(self.name, x.shape, self.kernel, self.padding)
        cols, oh, ow = _im2col(x, self.kernel, self.stride, self.padding)
        wmat = self.params["W"].reshape(self.out_ch, -1)
        out = wmat @ cols  # (b, out_ch, oh*ow): channels-first and contiguous
        out += self.params["b"][:, None]
        self._cache = (x.shape, cols)
        return out.reshape(x.shape[0], self.out_ch, oh, ow)

    def backward(self, dy, need_dx=True):
        x_shape, cols = self._take_cache()
        dym = dy.reshape(dy.shape[0], self.out_ch, -1)
        # one GEMM over batch x positions: (out_ch, b*P) @ (b*P, in_ch*k*k);
        # np.tensordot copies cols as (b*P, in_ch*k*k): 1.7x slower at cnn-digits shapes
        dym_t = dym.transpose(1, 0, 2).reshape(self.out_ch, -1)
        cols_t = cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
        np.matmul(dym_t, cols_t.T, out=self.grads["W"].reshape(self.out_ch, -1))
        np.sum(dym, axis=(0, 2), out=self.grads["b"])
        if not need_dx:
            return None
        dcols = self.params["W"].reshape(self.out_ch, -1).T @ dym
        return _col2im(dcols, x_shape, self.kernel, self.stride, self.padding)


class MaxPool2D(Layer):
    """Max over size*size windows, taken over the strided window views.  The
    first maximum in window order wins, as with argmax (a NaN counts as the
    maximum), and backward sends each output gradient to that window alone."""

    def __init__(self, name, size, stride=None):
        super().__init__(name)
        self.size = size
        self.stride = size if stride is None else stride
        _check_counts(name, 1, size=size, stride=self.stride)

    def forward(self, x, train=True):
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected 4-d input, got {x.shape}")
        _check_fits(self.name, x.shape, self.size)
        wins = _windows(x, self.size, self.stride)
        out, hits = wins[0], []
        for win in wins[1:]:
            # a later window takes over only where it is larger or the first NaN
            hit = ~(win <= out) & (out == out)
            out = np.where(hit, win, out)
            hits.append(hit)
        self._cache = (x, hits)
        return out

    def backward(self, dy, need_dx=True):
        x, hits = self._take_cache()
        # window k won where it took over and no later window did; window 0
        # where none did
        won, taken = [], np.zeros(dy.shape, dtype=bool)
        for hit in reversed(hits):
            won.append(hit & ~taken)
            taken |= hit
        won.append(~taken)
        dx = np.zeros_like(x)
        bits = dy.view(np.int64)
        for mask, win in zip(reversed(won), _windows(dx, self.size, self.stride)):
            # dy where the window won, +0.0 elsewhere: np.where(mask, dy, 0.0)
            # bit for bit, without its branch on every entry
            win += (bits * mask).view(np.float64)
        return dx


class BatchNorm(Layer):
    """Batch normalization over features; gain/shift stay floating point.

    Accepts (batch, features) or (batch, channels, h, w), with statistics per
    feature or channel over every other axis; running averages with the
    configured momentum are used at inference.
    """

    buffers = ("running_mean", "running_var")

    def __init__(self, name, features, momentum=0.9, eps=1e-5):
        super().__init__(name)
        _check_counts(name, 1, features=features)
        if not 0 <= momentum < 1:
            raise ValueError(f"{name}: momentum must be in [0, 1), got {momentum!r}")
        if not 0 < eps < math.inf:
            raise ValueError(f"{name}: eps must be positive and finite, got {eps!r}")
        self.features, self.momentum, self.eps = features, momentum, eps
        self.params["gamma"] = np.ones(features)
        self.params["beta"] = np.zeros(features)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        self.zero_grads()

    def forward(self, x, train=True):
        if x.ndim not in (2, 4):
            raise ShapeError(f"{self.name}: expected 2-d or 4-d input, got {x.shape}")
        if x.shape[1] != self.features:
            raise ShapeError(
                f"{self.name}: expected {self.features} features, got {x.shape[1]}"
            )
        # statistics over every axis but the channel axis 1; per-channel
        # vectors reshaped to `col` broadcast along it
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        col = (-1,) + (1,) * (x.ndim - 2)
        if train:
            mu = x.mean(axis=axes)
            xhat = x - mu.reshape(col)
            var = (xhat * xhat).sum(axis=axes) / (x.size // self.features)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mu, var = self.running_mean, self.running_var
            xhat = x - mu.reshape(col)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std.reshape(col)
        y = self.params["gamma"].reshape(col) * xhat
        y += self.params["beta"].reshape(col)
        self._cache = (xhat, inv_std, axes, col) if train else None
        return y

    def backward(self, dy, need_dx=True):
        """The training backward; an eval forward leaves nothing to back
        through, so backward after one raises InvalidStateError."""
        xhat, inv_std, axes, col = self._take_cache()
        sum_dy = np.sum(dy, axis=axes, out=self.grads["beta"])
        sum_dy_xhat = np.sum(dy * xhat, axis=axes, out=self.grads["gamma"])
        n = dy.size // self.features
        dx = dy - (sum_dy / n).reshape(col)
        dx -= xhat * (sum_dy_xhat / n).reshape(col)
        dx *= (self.params["gamma"] * inv_std).reshape(col)
        return dx


class LSTM(Layer):
    """Single LSTM layer over a (time, batch, input) sequence.

    Gate order i, f, g, o.  Input-to-hidden and hidden-to-hidden matrices form
    one quantization group.  Every forward call starts from zero (h, c), so a
    window carries no state from the one before it.

    Each step works on a few whole contiguous arrays.  One batched product
    before the loop gives every step's input term, the gate activations are
    stored gate-major as (time, 4, batch, hidden), and backward forms the
    weight gradients after the loop as batched products.  The window arrays
    live in work buffers that the layer keeps across calls, sized to the
    largest window seen (a smaller one uses their leading entries): fresh
    window-sized arrays on every call went back to the system and were
    faulted in again each time.  Every GEMM keeps the per-step shapes of the
    first version, `tests/oracles.lstm_reference`, and results match it bit
    for bit.
    """

    def __init__(self, name, input_size, hidden_size, rng):
        super().__init__(name)
        _check_counts(name, 1, input_size=input_size, hidden_size=hidden_size)
        self.input_size, self.hidden_size = input_size, hidden_size
        h = hidden_size
        self.params["Wx"] = uniform_fan_init(rng, (input_size, 4 * h), input_size, h)
        self.params["Wh"] = uniform_fan_init(rng, (h, 4 * h), h, h)
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget-gate bias
        self.params["b"] = b
        self.quant_keys = ["Wx", "Wh"]
        self._work: dict[str, np.ndarray] = {}
        self.zero_grads()

    def _scratch(self, key, *shape):
        """An uninitialized array of `shape` on the leading entries of work
        buffer `key`, which grows to the largest size asked for."""
        size = math.prod(shape)
        buf = self._work.get(key)
        if buf is None or buf.size < size:
            buf = self._work[key] = np.empty(size)
        return buf[:size].reshape(shape)

    def forward(self, x, train=True):
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"{self.name}: expected input (time, batch, {self.input_size}), got {x.shape}"
            )
        t_len, bsz, _ = x.shape
        hsz = self.hidden_size
        # sigmoid(z) of the four gates per step; backward writes each step's
        # gate gradient over them
        acts = self._scratch("acts", t_len, 4, bsz, hsz)
        # per step (f, g, c_prev, i, tanh(c)), of which backward fills f and i:
        # that order puts dc's four products in one call; cells[t_len, 2] is
        # the last c
        cells = self._scratch("cells", t_len + 1, 5, bsz, hsz)
        hidden = self._scratch("hidden", t_len + 1, bsz, hsz)  # h before step t
        xw = self._scratch("window", t_len, bsz, 4 * hsz)
        hidden[0] = 0.0
        cells[0, 2] = 0.0
        np.matmul(x, self.params["Wx"], out=xw)
        # the bias on every row: a broadcast add over 4*hidden columns is slower
        b = np.broadcast_to(self.params["b"], (bsz, 4 * hsz)).copy()
        z = np.empty((bsz, 4 * hsz))
        z_gates = z.reshape(bsz, 4, hsz).transpose(1, 0, 2)
        ig_fc = np.empty((2, bsz, hsz))
        for t in range(t_len):
            a, s = acts[t], cells[t]
            np.matmul(hidden[t], self.params["Wh"], out=z)
            z += xw[t]
            z += b
            # 1 / (1 + exp(-z)) over all four gates, read gate-major
            np.negative(z_gates, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
            np.tanh(z_gates[2], out=s[1])
            np.multiply(a[:2], s[1:3], out=ig_fc)  # i*g, f*c_prev
            np.add(ig_fc[1], ig_fc[0], out=cells[t + 1, 2])
            np.tanh(cells[t + 1, 2], out=s[4])
            np.multiply(a[3], s[4], out=hidden[t + 1])
        self._cache = (x, acts, cells, hidden)
        return hidden[1:].copy()

    def backward(self, dy, need_dx=True):
        x, acts, cells, hidden = self._take_cache()
        t_len, bsz, n_in = x.shape
        hsz = self.hidden_size
        n = t_len * bsz * hsz
        # the window's derivative factors during the loop, then the per-step
        # weight-gradient products
        work = self._scratch("window", max(5 * n, t_len * max(n_in, hsz) * 4 * hsz))
        one_minus = work[: 4 * n].reshape(acts.shape)  # 1-i, 1-f, 1-g*g, 1-o
        np.subtract(1.0, acts, out=one_minus)
        g = cells[:t_len, 1]
        np.multiply(g, g, out=one_minus[:, 2])
        np.subtract(1.0, one_minus[:, 2], out=one_minus[:, 2])
        dtanh_c = work[4 * n : 5 * n].reshape(t_len, bsz, hsz)  # 1-tanh(c)^2
        np.multiply(cells[:t_len, 4], cells[:t_len, 4], out=dtanh_c)
        np.subtract(1.0, dtanh_c, out=dtanh_c)
        cells[:t_len, 0] = acts[:, 1]
        cells[:t_len, 3] = acts[:, 0]
        acts[:, 2] = 1.0  # g has no sigmoid factor

        # step t's gate gradient as (batch, 4*hidden), the layout of the
        # GEMMs, written over acts[t] once the step has read it
        dz = acts.reshape(t_len, bsz, 4 * hsz)
        wh_t = self.params["Wh"].T
        dh, dc = np.empty((bsz, hsz)), np.empty((bsz, hsz))
        dh_next = np.zeros((bsz, hsz))
        # dc*f (dc_next for the step before), di, df, dg and do
        u = np.zeros((5, bsz, hsz))
        for t in reversed(range(t_len)):
            a = acts[t]
            np.add(dy[t], dh_next, out=dh)
            np.multiply(dh, a[3], out=dc)
            dc *= dtanh_c[t]
            dc += u[0]
            np.multiply(cells[t, :4], dc, out=u[:4])
            np.multiply(cells[t, 4], dh, out=u[4])
            # (d * gate) * (1 - gate) for i, f and o; dg * (1 - g*g)
            u[1:] *= a
            np.multiply(u[1:], one_minus[t], out=dz[t].reshape(bsz, 4, hsz).transpose(1, 0, 2))
            np.matmul(dz[t], wh_t, out=dh_next)

        # per-step products, last step first: the order the gradients sum in
        rev = dz[::-1]
        prod = work[: t_len * n_in * 4 * hsz].reshape(t_len, n_in, 4 * hsz)
        g = self.grads
        np.sum(np.matmul(x[::-1].transpose(0, 2, 1), rev, out=prod), axis=0, out=g["Wx"])
        prod = work[: t_len * hsz * 4 * hsz].reshape(t_len, hsz, 4 * hsz)
        np.sum(np.matmul(hidden[:t_len][::-1].transpose(0, 2, 1), rev, out=prod), axis=0,
               out=g["Wh"])
        np.sum(rev.sum(axis=1), axis=0, out=g["b"])
        if not need_dx:
            return None
        return np.matmul(dz, self.params["Wx"].T)
