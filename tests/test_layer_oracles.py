"""Conv2D, MaxPool2D, BatchNorm and LSTM against their first versions in
`oracles.py`: outputs, input gradients, parameter gradients and running
statistics.  Max pool, the batch-norm eval forward, the LSTM and the first-layer
skip are compared bit for bit (bit patterns, so -0.0 differs from 0.0 and NaN
payloads count).  The convolution's GEMMs and training batch norm's sums over (batch,
h, w) run channels-first, in another order than the channels-last references,
and are compared within `assert_close_to_reference`'s rtol of 1e-12."""

import tracemalloc

import numpy as np
import pytest

from qatkit.nn import BatchNorm, Conv2D, LSTM, MaxPool2D, build_network, cross_entropy
from qatkit.nn.layers import InvalidStateError

from oracles import (
    assert_bits_equal,
    assert_close_to_reference,
    batchnorm_backward_reference,
    batchnorm_reference,
    conv2d_reference,
    lstm_reference,
    maxpool2d_reference,
)


def nhwc(a):
    """The same values laid out channels-last in memory.  The layers take
    either layout; their 4-d outputs are channels-first."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def from_bits(*words):
    return np.array(words, dtype=np.uint64).view(np.float64)


# -- max pool ----------------------------------------------------------------

def check_maxpool(x, size, stride=None, dy=None, seed=0):
    layer = MaxPool2D("pool", size, stride)
    out = layer.forward(x)
    if dy is None:
        dy = np.random.default_rng(seed).normal(size=out.shape)
    dx = layer.backward(dy.copy())
    want_out, want_dx = maxpool2d_reference(x, dy, size, stride or size)
    assert_bits_equal(out, want_out)
    assert_bits_equal(dx, want_dx)


@pytest.mark.parametrize("size, stride, hw", [
    (2, None, (8, 8)),
    (3, None, (9, 6)),
    (2, None, (7, 9)),  # not divisible: the last row and column are dropped
    (3, None, (8, 10)),
    (2, 1, (6, 7)),  # overlapping windows
    (3, 1, (5, 5)),
    (3, 2, (9, 8)),
    (1, None, (3, 4)),
])
@pytest.mark.parametrize("layout", [np.ascontiguousarray, nhwc])
def test_maxpool_random(size, stride, hw, layout):
    x = np.random.default_rng(1).normal(size=(3, 4, *hw))
    check_maxpool(layout(x), size, stride)


@pytest.mark.parametrize("stride", [None, 1])
def test_maxpool_ties(stride):
    # few distinct values: most windows hold several equal maxima
    x = np.random.default_rng(2).integers(-1, 2, size=(4, 3, 8, 8)).astype(np.float64)
    check_maxpool(x, 2, stride)
    check_maxpool(nhwc(x), 3, stride)


@pytest.mark.parametrize("stride", [None, 1])
def test_maxpool_mixed_signed_zeros(stride):
    rng = np.random.default_rng(3)
    x = rng.choice(np.array([-0.0, 0.0, -1.0]), size=(4, 3, 6, 6))
    dy_shape = MaxPool2D("p", 2, stride).forward(x).shape
    dy = rng.normal(size=dy_shape)
    dy[rng.random(dy_shape) < 0.3] = -0.0
    check_maxpool(x, 2, stride, dy=dy)
    check_maxpool(nhwc(x), 2, stride, dy=dy)


def test_maxpool_first_zero_wins():
    x = np.array([[[[-0.0, 0.0], [-1.0, 0.0]]], [[[0.0, -0.0], [-0.0, -2.0]]]])
    out = MaxPool2D("p", 2).forward(x)
    assert np.signbit(out[0, 0, 0, 0]) and not np.signbit(out[1, 0, 0, 0])
    check_maxpool(x, 2)


@pytest.mark.parametrize("stride", [None, 1])
def test_maxpool_nan_propagates_first_nan(stride):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 2, 6, 6))
    # quiet NaNs with distinct payloads, one of them negative
    nans = from_bits(0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000003)
    x.reshape(-1)[rng.choice(x.size, 12, replace=False)] = np.resize(nans, 12)
    x[0, 0, 0, :2] = nans[:2]  # two NaNs in one window
    x[0, 1, 0, 1] = nans[2]  # a NaN after a number
    check_maxpool(x, 2, stride)
    check_maxpool(nhwc(x), 3, stride)
    out = MaxPool2D("p", 2).forward(x)
    assert out[0, 0, 0, 0].view(np.uint64) == nans[0].view(np.uint64)


# -- convolution -------------------------------------------------------------

@pytest.mark.parametrize("batch, in_ch, out_ch, kernel, stride, pad, hw", [
    (32, 1, 12, 3, 1, 1, (8, 8)),  # the cnn-digits layer
    (7, 3, 5, 3, 2, 1, (9, 9)),
    (5, 4, 8, 2, 1, 0, (6, 7)),
    (3, 2, 3, 5, 2, 2, (11, 10)),
    (4, 3, 4, 1, 1, 0, (5, 5)),
    (2, 1, 1, 1, 3, 1, (7, 4)),
])
def test_conv2d_matches_reference(batch, in_ch, out_ch, kernel, stride, pad, hw):
    rng = np.random.default_rng(5)
    layer = Conv2D("conv", in_ch, out_ch, kernel, rng, stride=stride, padding=pad)
    layer.params["b"] = rng.normal(size=out_ch)
    x = rng.normal(size=(batch, in_ch, *hw))
    out = layer.forward(x)
    dy = rng.normal(size=out.shape)
    dx = layer.backward(dy.copy())
    want_out, want_dx, dW, db = conv2d_reference(x, layer.params["W"], layer.params["b"],
                                                 dy, stride, pad)
    assert_close_to_reference(out, want_out)
    assert_close_to_reference(dx, want_dx)
    assert_close_to_reference(layer.grads["W"], dW)
    assert_close_to_reference(layer.grads["b"], db)

    # without the input gradient: nothing returned, the same parameter gradients
    grads = {k: g.copy() for k, g in layer.grads.items()}
    layer.forward(x)
    assert layer.backward(dy.copy(), need_dx=False) is None
    for k, g in grads.items():
        assert_bits_equal(layer.grads[k], g)


# -- batch norm --------------------------------------------------------------

@pytest.mark.parametrize("shape, layout", [
    ((16, 5), None),
    ((4, 3, 5, 6), np.ascontiguousarray),
    ((4, 3, 5, 6), nhwc),
])
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_matches_reference(shape, layout, train):
    rng = np.random.default_rng(6)
    features = shape[1]
    layer = BatchNorm("bn", features, momentum=0.8)
    layer.params["gamma"] = rng.normal(size=features)
    layer.params["beta"] = rng.normal(size=features)
    layer.running_mean = rng.normal(size=features)
    layer.running_var = rng.uniform(0.5, 2.0, size=features)
    x = 3.0 + rng.normal(size=shape)
    if layout is not None:
        x = layout(x)
    rm, rv = layer.running_mean.copy(), layer.running_var.copy()
    out = layer.forward(x, train=train)
    dy = rng.normal(size=out.shape)

    def to2d(a):
        return a if a.ndim == 2 else a.transpose(0, 2, 3, 1).reshape(-1, features)

    want_y, xhat, inv_std, want_rm, want_rv = batchnorm_reference(
        to2d(x), layer.params["gamma"], layer.params["beta"], rm, rv, 0.8, layer.eps, train)
    # evaluation keeps the reference's operation order; training normalizes
    # with sums over the batch taken channels-first
    check = assert_close_to_reference if train else assert_bits_equal
    check(to2d(out), want_y)
    check(layer.running_mean, want_rm)
    check(layer.running_var, want_rv)
    if not train:  # an eval forward leaves nothing to back through
        with pytest.raises(InvalidStateError):
            layer.backward(dy)
        return
    dx = layer.backward(dy.copy())
    want_dx, dgamma, dbeta = batchnorm_backward_reference(
        to2d(dy), xhat, inv_std, layer.params["gamma"])
    check(to2d(dx), want_dx)
    check(layer.grads["gamma"], np.zeros(features) + dgamma)
    check(layer.grads["beta"], np.zeros(features) + dbeta)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, nhwc])
def test_conv_and_batchnorm_outputs_are_channels_first_contiguous(layout):
    rng = np.random.default_rng(9)
    conv = Conv2D("conv", 2, 3, 3, rng, padding=1)
    bn = BatchNorm("bn", 3)
    y = conv.forward(layout(rng.normal(size=(4, 2, 6, 5))))
    assert y.shape == (4, 3, 6, 5) and y.flags.c_contiguous
    for train in (False, True):
        z = bn.forward(y, train=train)
        assert z.flags.c_contiguous
    assert bn.backward(np.ones_like(z)).flags.c_contiguous
    assert conv.backward(np.ones_like(y)).shape == (4, 2, 6, 5)


# -- LSTM ----------------------------------------------------------------------

def make_lstm(n_in, hidden, seed=10):
    rng = np.random.default_rng(seed)
    layer = LSTM("lstm", n_in, hidden, rng)
    layer.params["b"] = rng.normal(size=4 * hidden)  # no gate at its default bias
    return layer


def lstm_window(t_len, bsz, n_in, hidden, seed, one_hot=False):
    """An input window and an output gradient; one-hot inputs are what the
    char-LM task feeds the layer."""
    rng = np.random.default_rng(seed)
    if one_hot:
        x = np.eye(n_in)[rng.integers(0, n_in, size=(t_len, bsz))]
    else:
        x = rng.normal(size=(t_len, bsz, n_in))
    return x, rng.normal(size=(t_len, bsz, hidden))


def check_lstm(layer, x, dy, need_dx=True):
    """One forward and backward of `layer` against `lstm_reference` started
    from zero (h, c), the parameter gradients included: backward sets them,
    whatever they held."""
    want_grads = zero_grads_like(layer)
    out = layer.forward(x)
    dx = layer.backward(dy.copy(), need_dx=need_dx)
    p = layer.params
    want_out, want_dx, _ = lstm_reference(x, p["Wx"], p["Wh"], p["b"], dy, want_grads,
                                          need_dx=need_dx)
    assert_bits_equal(out, want_out)
    if need_dx:
        assert_bits_equal(dx, want_dx)
    else:
        assert dx is None
    for k, g in want_grads.items():
        assert_bits_equal(layer.grads[k], g)


def zero_grads_like(layer):
    return {k: np.zeros_like(v) for k, v in layer.params.items()}


@pytest.mark.parametrize("t_len, bsz, n_in, hidden, one_hot", [
    (1, 1, 3, 4, False),
    (1, 5, 2, 3, False),
    (6, 1, 4, 5, False),
    (16, 16, 16, 24, True),  # the charlm-lstm layer and window
    (16, 16, 16, 24, False),
    (9, 7, 5, 11, False),
])
@pytest.mark.parametrize("need_dx", [True, False])
def test_lstm_matches_reference(t_len, bsz, n_in, hidden, one_hot, need_dx):
    layer = make_lstm(n_in, hidden)
    x, dy = lstm_window(t_len, bsz, n_in, hidden, seed=11, one_hot=one_hot)
    check_lstm(layer, x, dy, need_dx=need_dx)


def test_lstm_signed_zero_gradients():
    # +0.0 and -0.0 in the output gradient, and a whole step of each
    layer = make_lstm(4, 6)
    x, dy = lstm_window(5, 3, 4, 6, seed=12)
    rng = np.random.default_rng(13)
    dy[rng.random(dy.shape) < 0.3] = 0.0
    dy[rng.random(dy.shape) < 0.3] = -0.0
    dy[4], dy[2] = -0.0, 0.0
    check_lstm(layer, x, dy)


def test_lstm_eval_forward_matches_reference():
    layer = make_lstm(16, 24)
    x, dy = lstm_window(16, 16, 16, 24, seed=14, one_hot=True)
    want = lstm_reference(x, *(layer.params[k] for k in ("Wx", "Wh", "b")), dy,
                          zero_grads_like(layer))[0]
    assert_bits_equal(layer.forward(x, train=False), want)
    # an inference pass between two training steps leaves the next step exact
    layer.forward(lstm_window(7, 16, 16, 24, seed=15)[0], train=False)
    check_lstm(layer, x, dy)


def test_lstm_windows_of_changing_size_reuse_no_stale_values():
    # the work buffers keep their contents between calls: a shorter window
    # after a long one, a new input after an old one of the same shape,
    # another batch size and then a larger window that grows the buffers
    layer = make_lstm(16, 24)
    for i, (t_len, bsz) in enumerate([(16, 16), (5, 16), (5, 16), (3, 4), (20, 16), (1, 16)]):
        x, dy = lstm_window(t_len, bsz, 16, 24, seed=20 + i, one_hot=i % 2 == 0)
        check_lstm(layer, x, dy)


def test_lstm_work_buffers_are_kept_and_bounded():
    # the charlm-lstm layer and window: after one training step the layer
    # holds its work buffers; the next step allocates only small per-call
    # arrays.  Fails if window-sized arrays come back on every call or if
    # the buffers multiply.
    layer = make_lstm(16, 24)
    x, dy = lstm_window(16, 16, 16, 24, seed=40, one_hot=True)
    tracemalloc.start()
    try:
        layer.forward(x)
        layer.backward(dy, need_dx=True)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        layer.forward(x)
        layer.backward(dy, need_dx=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 1.0e6, f"held {held / 1e6:.3f} MB"
    assert peak - held <= 0.25e6, f"peak {(peak - held) / 1e6:.3f} MB above held"


# -- the network skips the first layer's input gradient ------------------------

NETWORKS = {
    "cnn": ([{"kind": "conv2d", "in_ch": 1, "out_ch": 4, "kernel": 3, "padding": 1},
             {"kind": "batchnorm", "features": 4}, {"kind": "activation", "fn": "relu"},
             {"kind": "maxpool2d", "size": 2}, {"kind": "flatten"},
             {"kind": "fc", "in": 36, "out": 3}, {"kind": "softmax"}], (8, 1, 6, 6), (8,)),
    "mlp": ([{"kind": "fc", "in": 5, "out": 4}, {"kind": "activation", "fn": "tanh"},
             {"kind": "fc", "in": 4, "out": 3}, {"kind": "softmax"}], (8, 5), (8,)),
    "lstm": ([{"kind": "lstm", "in": 3, "hidden": 4}, {"kind": "fc", "in": 4, "out": 3},
              {"kind": "softmax"}], (5, 2, 3), (5, 2)),
    "batchnorm first": ([{"kind": "batchnorm", "features": 5}, {"kind": "fc", "in": 5, "out": 3},
                         {"kind": "softmax"}], (8, 5), (8,)),
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_first_layer_skip_keeps_every_gradient(name):
    cfgs, x_shape, label_shape = NETWORKS[name]
    rng = np.random.default_rng(7)
    x = rng.normal(size=x_shape)
    labels = rng.integers(0, 3, size=label_shape)
    nets = [build_network(cfgs, np.random.default_rng(8)) for _ in range(2)]
    grads = []
    for skip, net in zip((True, False), nets):
        _, dout = cross_entropy(net.forward(x), labels)
        if skip:
            assert net.backward(dout) is None
        else:  # every layer, the first included, computes its input gradient
            for ly in reversed(net.layers):
                dout = ly.backward(dout)
            assert dout.shape == x.shape
        grads.append(net.get_grads())
    assert grads[0].keys() == grads[1].keys()
    for k in grads[0]:
        assert_bits_equal(grads[0][k], grads[1][k])


# -- backward sets the parameter gradients -------------------------------------

# one layer of each kind, with an input of its shape
LAYER_INPUTS = {
    "fc": ({"kind": "fc", "in": 6, "out": 4}, (5, 6)),
    "activation": ({"kind": "activation", "fn": "tanh"}, (5, 6)),
    "softmax": ({"kind": "softmax"}, (5, 6)),
    "flatten": ({"kind": "flatten"}, (3, 2, 4, 4)),
    "conv2d": ({"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kernel": 3, "padding": 1},
               (3, 2, 5, 4)),
    "maxpool2d": ({"kind": "maxpool2d", "size": 2}, (3, 2, 5, 4)),
    "batchnorm": ({"kind": "batchnorm", "features": 2}, (3, 2, 5, 4)),
    "lstm": ({"kind": "lstm", "in": 3, "hidden": 4}, (6, 2, 3)),
}


def test_layer_inputs_cover_every_kind():
    from qatkit.nn.network import LAYER_TYPES

    assert LAYER_INPUTS.keys() == LAYER_TYPES.keys()


@pytest.mark.parametrize("kind", sorted(LAYER_INPUTS))
@pytest.mark.parametrize("need_dx", [True, False])
def test_backward_sets_parameter_gradients(kind, need_dx):
    # whatever the gradients held, NaN or the last step's, backward writes
    # over them: two steps give one layer's first step, bit for bit
    cfg, shape = LAYER_INPUTS[kind]
    rng = np.random.default_rng(50)
    x = rng.normal(size=shape)
    layers = [build_network([cfg], np.random.default_rng(51)).layers[0] for _ in range(2)]
    for g in layers[1].grads.values():
        g.fill(np.nan)
    dy = None
    results = []
    for layer, steps in zip(layers, (1, 2)):
        for _ in range(steps):
            y = layer.forward(x)
            dy = rng.normal(size=y.shape) if dy is None else dy
            dx = layer.backward(dy.copy(), need_dx=need_dx)
        results.append((dx, {k: g.copy() for k, g in layer.grads.items()}))
    (dx0, grads0), (dx1, grads1) = results
    assert grads0.keys() == layers[0].params.keys()
    for k in grads0:
        assert np.isfinite(grads1[k]).all()
        assert_bits_equal(grads1[k], grads0[k])
    if dx0 is not None or dx1 is not None:
        assert_bits_equal(dx1, dx0)
