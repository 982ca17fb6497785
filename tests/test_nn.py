import numpy as np
import pytest

from qatkit.nn import (
    AdaDelta,
    BatchNorm,
    LrSchedule,
    LrScheduleConfig,
    Network,
    OptimizerConfig,
    SGDNesterov,
    ShapeError,
    build_network,
    classification_error,
    cross_entropy,
    make_optimizer,
)
from qatkit.nn.layers import InvalidStateError
from qatkit.qat import init_quantization

from oracles import (
    adadelta_update_loop,
    sgd_nesterov_update_loop,
    assert_bits_equal,
    finite_difference_grads,
    relative_error,
    squared_error,
)
from test_layer_oracles import NETWORKS


def rng():
    return np.random.default_rng(42)


# -- forward correctness -----------------------------------------------------

class TestForward:
    def test_identity_fc(self):
        net = build_network([{"kind": "fc", "in": 3, "out": 3}], rng())
        net.layers[0].params["W"] = np.eye(3)
        net.layers[0].params["b"] = np.zeros(3)
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(net.forward(x), x)

    def test_fc_relu_hand_value(self):
        net = build_network(
            [{"kind": "fc", "in": 2, "out": 1}, {"kind": "activation", "fn": "relu"}],
            rng(),
        )
        net.layers[0].params["W"] = np.array([[1.0], [-1.0]])
        net.layers[0].params["b"] = np.zeros(1)
        out = net.forward(np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_two_layer_matches_naive_loops(self):
        r = rng()
        net = build_network(
            [
                {"kind": "fc", "in": 4, "out": 5},
                {"kind": "activation", "fn": "tanh"},
                {"kind": "fc", "in": 5, "out": 3},
            ],
            r,
        )
        x = r.normal(size=(6, 4))
        got = net.forward(x)
        w1, b1 = net.layers[0].params["W"], net.layers[0].params["b"]
        w2, b2 = net.layers[2].params["W"], net.layers[2].params["b"]
        want = np.zeros((6, 3))
        for s in range(6):
            h = np.zeros(5)
            for j in range(5):
                acc = b1[j]
                for i in range(4):
                    acc += x[s, i] * w1[i, j]
                h[j] = np.tanh(acc)
            for k in range(3):
                acc = b2[k]
                for j in range(5):
                    acc += h[j] * w2[j, k]
                want[s, k] = acc
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_shape_error_names_layer(self):
        net = build_network([{"kind": "fc", "in": 3, "out": 2, "name": "first"}], rng())
        with pytest.raises(ShapeError, match="first"):
            net.forward(np.zeros((1, 4)))

    @pytest.mark.parametrize("cfgs, message", [
        ([{"kind": "fc", "in": 4, "out": 3}, {"kind": "activation", "fn": "relu"},
          {"kind": "fc", "in": 5, "out": 2}],
         r"network\[2\] fc 'fc2': in 5 does not match width 3 of 'fc0'"),
        ([{"kind": "fc", "in": 4, "out": 3}, {"kind": "batchnorm", "features": 3},
          {"kind": "softmax"}, {"kind": "fc", "in": 4, "out": 2, "name": "head"}],
         r"network\[3\] fc 'head': in 4 does not match width 3 of 'fc0'"),
        ([{"kind": "lstm", "in": 3, "hidden": 6}, {"kind": "fc", "in": 3, "out": 2}],
         r"network\[1\] fc 'fc1': in 3 does not match width 6 of 'lstm0'"),
        ([{"kind": "fc", "in": 3, "out": 4}, {"kind": "lstm", "in": 3, "hidden": 2}],
         r"network\[1\] lstm 'lstm1': in 3 does not match width 4 of 'fc0'"),
    ], ids=["fc-relu-fc", "through-batchnorm-softmax", "lstm-fc", "fc-lstm"])
    def test_unchained_widths_rejected_at_build(self, cfgs, message):
        with pytest.raises(ValueError, match=message):
            build_network(cfgs, rng())

    def test_flatten_and_conv_end_the_width_chain(self):
        build_network([{"kind": "fc", "in": 4, "out": 3}, {"kind": "flatten"},
                       {"kind": "fc", "in": 7, "out": 2}], rng())
        build_network([{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 3},
                       {"kind": "maxpool2d", "size": 2}, {"kind": "flatten"},
                       {"kind": "fc", "in": 8, "out": 2}], rng())

    def test_backward_without_forward(self):
        net = build_network([{"kind": "fc", "in": 2, "out": 2}], rng())
        with pytest.raises(InvalidStateError):
            net.backward(np.zeros((1, 2)))

    def test_set_params_copies_and_rejects_missing_or_extra_key(self):
        net = build_network([{"kind": "fc", "in": 2, "out": 2}], rng())
        params = net.get_params()
        with pytest.raises(ValueError, match=r"missing keys \['fc0.b'\]"):
            net.set_params({"fc0.W": params["fc0.W"]})
        with pytest.raises(ValueError, match=r"extra keys \['fc1.W'\]"):
            net.set_params({**params, "fc1.W": params["fc0.W"]})
        net.set_params(params)
        params["fc0.W"] += 1.0
        assert not np.array_equal(net.layers[0].params["W"], params["fc0.W"])

    def test_bind_params_holds_the_arrays_and_rejects_a_mismatch(self):
        net = build_network([{"kind": "fc", "in": 2, "out": 3}], rng())
        arrays = {"fc0.W": np.ones((2, 3)), "fc0.b": np.zeros(3)}
        grads = {"fc0.W": np.empty((2, 3)), "fc0.b": np.empty(3)}
        net.bind_params(arrays, grads)
        assert net.layers[0].params["W"] is arrays["fc0.W"]
        assert net.param_arrays()["fc0.b"] is arrays["fc0.b"]
        assert all(net.get_grads()[k] is g for k, g in grads.items())
        arrays["fc0.W"] *= 2.0  # an in-place write is what the next forward reads
        y = net.forward(np.ones((1, 2)))
        assert_bits_equal(y, np.full((1, 3), 4.0))
        net.backward(np.ones_like(y))  # and backward writes the bound gradients
        assert_bits_equal(grads["fc0.W"], np.ones((2, 3)))
        assert_bits_equal(grads["fc0.b"], np.ones(3))
        for bad, bad_grads, message in [
            ({"fc0.W": np.ones((2, 3))}, grads, r"params: missing keys \['fc0.b'\]"),
            (arrays, {"fc0.W": np.ones((2, 3))}, r"grads: missing keys \['fc0.b'\]"),
            ({**arrays, "fc0.W": np.ones((3, 2))}, grads, r"fc0.W has shape \(3, 2\)"),
            ({**arrays, "fc0.b": np.zeros(3, dtype=np.float32)}, grads,
             "params: fc0.b must be C-contiguous float64"),
            ({**arrays, "fc0.b": [0.0, 0.0, 0.0]}, grads, "fc0.b must be C-contiguous"),
            (arrays, {**grads, "fc0.W": np.ones((3, 2)).T}, "grads: fc0.W must be C-contiguous"),
        ]:
            with pytest.raises(ValueError, match=message):
                net.bind_params(bad, bad_grads)
            # a rejected bind leaves every array as it was
            assert net.layers[0].params["b"] is arrays["fc0.b"]
            assert net.layers[0].grads["W"] is grads["fc0.W"]

    @pytest.mark.parametrize("cfg, message", [
        ({"kind": "maxpool2d", "size": 0}, "pool: size must be >= 1, got 0"),
        ({"kind": "maxpool2d", "size": -1}, "pool: size must be >= 1, got -1"),
        ({"kind": "maxpool2d", "size": 2, "stride": 0}, "pool: stride must be >= 1, got 0"),
        ({"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 3, "stride": 0},
         "conv: stride must be >= 1, got 0"),
        ({"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 3, "padding": -1},
         "conv: padding must be >= 0, got -1"),
        ({"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 0}, "conv: kernel must be >= 1"),
        ({"kind": "batchnorm", "features": 3, "momentum": 1.5},
         r"bn: momentum must be in \[0, 1\), got 1.5"),
        ({"kind": "batchnorm", "features": 3, "eps": 0.0},
         "bn: eps must be positive and finite, got 0.0"),
        ({"kind": "batchnorm", "features": 0}, "bn: features must be >= 1, got 0"),
        ({"kind": "fc", "in": 0, "out": 3}, "layer: fan_in must be >= 1, got 0"),
        ({"kind": "fc", "in": 3, "out": 0}, "layer: fan_out must be >= 1, got 0"),
        ({"kind": "lstm", "in": 3, "hidden": 0}, "layer: hidden_size must be >= 1, got 0"),
    ], ids=["pool-size-0", "pool-size-negative", "pool-stride-0", "conv-stride-0",
            "conv-padding-negative", "conv-kernel-0", "bn-momentum", "bn-eps-0",
            "bn-features-0", "fc-in-0", "fc-out-0", "lstm-hidden-0"])
    def test_bad_layer_argument_rejected_at_build(self, cfg, message):
        name = {"maxpool2d": "pool", "conv2d": "conv", "batchnorm": "bn"}.get(cfg["kind"], "layer")
        with pytest.raises(ValueError, match=message):
            build_network([{**cfg, "name": name}], rng())

    @pytest.mark.parametrize("cfg, hw", [
        ({"kind": "maxpool2d", "size": 3}, (2, 5)),
        ({"kind": "maxpool2d", "size": 3, "stride": 1}, (5, 2)),
        ({"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 5}, (4, 6)),
        ({"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 5, "padding": 1}, (2, 6)),
    ], ids=["pool-height", "pool-width", "conv", "conv-padded"])
    def test_input_smaller_than_window_raises_shape_error(self, cfg, hw):
        net = build_network([{**cfg, "name": "small"}], rng())
        with pytest.raises(ShapeError, match="small: input .* smaller than the"):
            net.forward(np.zeros((2, 1, *hw)))
        # one row or column more fits
        fits = tuple(n + 1 if n == min(hw) else n for n in hw)
        assert min(net.forward(np.zeros((2, 1, *fits))).shape[2:]) == 1


# -- eval passes -------------------------------------------------------------

def _trained_twins(name):
    """Two identical networks of test_layer_oracles.NETWORKS after one training
    forward, which leaves every layer a cache and batch norm running stats."""
    cfgs, x_shape, _ = NETWORKS[name]
    x = np.random.default_rng(7).normal(size=x_shape)
    nets = [build_network(cfgs, np.random.default_rng(8)) for _ in range(2)]
    for net in nets:
        net.forward(x, train=True)
    return nets, x


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_eval_forward_drops_every_cache_and_matches_layer_by_layer(name):
    (net, twin), x = _trained_twins(name)
    out = net.forward(x, train=False)
    assert [ly.name for ly in net.layers if ly._cache is not None] == []
    want = x
    for ly in twin.layers:  # a layer driven directly still caches, but batch norm
        want = ly.forward(want, train=False)
        assert (ly._cache is None) == isinstance(ly, BatchNorm)
    assert_bits_equal(out, want)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_backward_after_eval_forward_raises(name):
    (net, _), x = _trained_twins(name)
    out = net.forward(x, train=False)
    with pytest.raises(InvalidStateError):
        net.backward(np.ones_like(out))


# -- gradient checks ---------------------------------------------------------

def check_gradients(layer_cfgs, x, target_shape=None, labels=None, tol=1e-4, seed=0):
    """Analytic vs central-difference gradients through a squared-error or
    cross-entropy head.  The input keeps its memory layout (copies are
    order K)."""
    r = np.random.default_rng(seed)
    net = build_network(layer_cfgs, r)

    if labels is not None:
        def scalar_loss():
            net.reset_state()
            return cross_entropy(net.forward(x.copy(order="K"), train=True), labels)[0]
    else:
        target = np.random.default_rng(seed + 1).normal(size=target_shape)

        def scalar_loss():
            net.reset_state()
            return squared_error(net.forward(x.copy(order="K"), train=True), target)[0]

    net.reset_state()
    net.zero_grads()
    out = net.forward(x.copy(order="K"), train=True)
    if labels is not None:
        _, dout = cross_entropy(out, labels)
    else:
        _, dout = squared_error(out, target)
    net.backward(dout)
    analytic = {k: g.copy() for k, g in net.get_grads().items()}

    params = {k: ly.params[p] for k, ly, p in net.param_items()}
    numeric = finite_difference_grads(scalar_loss, params)
    for k in params:
        err = relative_error(analytic[k], numeric[k])
        assert err < tol, f"{k}: rel err {err}"


class TestGradients:
    def test_fully_connected(self):
        check_gradients(
            [{"kind": "fc", "in": 4, "out": 3}],
            np.random.default_rng(1).normal(size=(5, 4)), target_shape=(5, 3),
        )

    @pytest.mark.parametrize("fn", ["relu", "sigmoid", "tanh", "linear"])
    def test_activations(self, fn):
        check_gradients(
            [{"kind": "fc", "in": 4, "out": 4}, {"kind": "activation", "fn": fn}],
            np.random.default_rng(2).normal(size=(5, 4)) + 0.1, target_shape=(5, 4),
        )

    @pytest.mark.parametrize("fn, df", [
        ("relu", lambda z, y: (z > 0).astype(z.dtype)),
        ("sigmoid", lambda z, y: y * (1.0 - y)),
        ("tanh", lambda z, y: 1.0 - y * y),
        ("linear", lambda z, y: np.ones_like(y)),
    ])
    def test_activation_backward_reads_only_its_output(self, fn, df):
        # the derivative from the input and output both, as the layer once
        # took it, on +-0, NaN, ties and magnitudes from 1e-300 to 1e2
        r = np.random.default_rng(29)
        z = np.concatenate([[0.0, -0.0, np.nan, -np.nan, 1.5, 1.5, -1.5, -1.5, 1e-300, -1e-300],
                            r.normal(size=30) * 10.0 ** r.uniform(-8, 2, size=30)])
        dy = r.normal(size=z.shape)
        dy[:4] = [1.0, -1.0, 2.0, -0.0]
        layer = build_network([{"kind": "activation", "fn": fn}], rng()).layers[0]
        y = layer.forward(z.copy())
        assert layer._cache is y  # the output alone is kept for backward
        assert_bits_equal(layer.backward(dy), dy * df(z, y))

    def test_conv2d(self):
        check_gradients(
            [{"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kernel": 3, "padding": 1}],
            np.random.default_rng(3).normal(size=(2, 2, 5, 5)),
            target_shape=(2, 3, 5, 5),
        )

    def test_conv2d_stride(self):
        check_gradients(
            [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 2, "stride": 2}],
            np.random.default_rng(4).normal(size=(2, 1, 6, 6)),
            target_shape=(2, 2, 3, 3),
        )

    def test_conv2d_stride_several_channels(self):
        check_gradients(
            [{"kind": "conv2d", "in_ch": 3, "out_ch": 4, "kernel": 3, "stride": 2,
              "padding": 1}],
            np.random.default_rng(11).normal(size=(2, 3, 7, 7)),
            target_shape=(2, 4, 4, 4), tol=1e-7,
        )

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("conv", [True, False], ids=["conv2d-first", "batchnorm-first"])
    def test_batchnorm_4d_training_mode(self, conv, layout):
        x = np.random.default_rng(12).normal(size=(3, 2, 5, 5))
        if layout == "nhwc":  # the same values, channels-last in memory
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        cfgs = [{"kind": "batchnorm", "features": 3 if conv else 2}]
        if conv:
            cfgs.insert(0, {"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kernel": 3, "padding": 1})
        check_gradients(cfgs, x, target_shape=(3, 3 if conv else 2, 5, 5), tol=1e-5)

    def test_maxpool(self):
        check_gradients(
            [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 3},
             {"kind": "maxpool2d", "size": 2}],
            np.random.default_rng(5).normal(size=(2, 1, 6, 6)),
            target_shape=(2, 2, 2, 2),
        )

    def test_batchnorm_training_mode(self):
        check_gradients(
            [{"kind": "fc", "in": 3, "out": 4}, {"kind": "batchnorm", "features": 4}],
            np.random.default_rng(6).normal(size=(8, 3)), target_shape=(8, 4),
        )

    def test_lstm_three_steps(self):
        check_gradients(
            [{"kind": "lstm", "in": 3, "hidden": 4}],
            np.random.default_rng(7).normal(size=(3, 2, 3)), target_shape=(3, 2, 4),
        )

    def test_lstm_longer_sequence(self):
        check_gradients(
            [{"kind": "lstm", "in": 2, "hidden": 3},
             {"kind": "fc", "name": "head", "in": 3, "out": 2}],
            np.random.default_rng(8).normal(size=(5, 2, 2)), target_shape=(5, 2, 2),
        )

    def test_softmax_cross_entropy(self):
        labels = np.array([0, 2, 1])
        check_gradients(
            [{"kind": "fc", "in": 4, "out": 3}, {"kind": "softmax"}],
            np.random.default_rng(9).normal(size=(3, 4)), labels=labels,
        )

    def test_cnn_stack(self):
        labels = np.array([1, 0])
        check_gradients(
            [
                {"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 3},
                {"kind": "activation", "fn": "relu"},
                {"kind": "maxpool2d", "size": 2},
                {"kind": "flatten"},
                {"kind": "fc", "in": 2 * 3 * 3, "out": 2},
                {"kind": "softmax"},
            ],
            np.random.default_rng(10).normal(size=(2, 1, 8, 8)), labels=labels,
        )

    def test_zero_loss_grad_gives_zero_param_grads(self):
        net = build_network([{"kind": "fc", "in": 3, "out": 2}], rng())
        net.zero_grads()
        net.forward(np.ones((4, 3)))
        net.backward(np.zeros((4, 2)))
        for g in net.get_grads().values():
            assert np.all(g == 0)


# -- head/loss invariants ----------------------------------------------------

class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        r = rng()
        net = build_network([{"kind": "softmax"}], r)
        p = net.forward(r.normal(size=(20, 7)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_cross_entropy_nonnegative(self):
        r = rng()
        net = build_network([{"kind": "softmax"}], r)
        p = net.forward(r.normal(size=(20, 5)))
        loss, _ = cross_entropy(p, r.integers(0, 5, size=20))
        assert loss >= 0

    def test_classification_error_percent(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert classification_error(probs, np.array([0, 1, 1, 1])) == 25.0


class TestBatchNorm:
    def test_normalizes_batch(self):
        r = rng()
        net = build_network([{"kind": "batchnorm", "features": 5}], r)
        x = r.normal(3.0, 2.5, size=(256, 5))
        y = net.forward(x, train=True)
        assert np.abs(y.mean(axis=0)).max() < 1e-5
        assert np.abs(y.var(axis=0) - 1.0).max() < 1e-4

    def test_inference_uses_running_stats(self):
        r = rng()
        net = build_network([{"kind": "batchnorm", "features": 3}], r)
        x = r.normal(1.0, 2.0, size=(64, 3))
        for _ in range(200):
            net.forward(x, train=True)
        y = net.forward(x, train=False)
        assert np.abs(y.mean(axis=0)).max() < 0.05

    def test_buffers_are_the_running_stats_and_are_copied(self):
        r = rng()
        net = build_network([{"kind": "fc", "in": 2, "out": 3},
                             {"kind": "batchnorm", "features": 3, "name": "bn"}], r)
        net.forward(r.normal(size=(8, 2)), train=True)
        bn = net.layers[1]
        got = net.get_buffers()
        assert sorted(got) == ["bn.running_mean", "bn.running_var"]
        np.testing.assert_array_equal(got["bn.running_mean"], bn.running_mean)
        got["bn.running_var"][:] = 7.0
        assert not np.any(bn.running_var == 7.0)
        net.set_buffers(got)
        got["bn.running_var"][:] = 9.0
        np.testing.assert_array_equal(bn.running_var, np.full(3, 7.0))
        assert "bn.running_mean" not in net.get_params()

    def test_set_buffers_rejects_missing_and_extra_keys(self):
        net = build_network([{"kind": "batchnorm", "features": 3, "name": "bn"}], rng())
        good = net.get_buffers()
        with pytest.raises(ValueError, match=r"set_buffers: missing keys \['bn.running_var'\], "
                                             r"extra keys \[\]"):
            net.set_buffers({"bn.running_mean": good["bn.running_mean"]})
        with pytest.raises(ValueError, match=r"missing keys \[\], extra keys \['bn.x'\]"):
            net.set_buffers({**good, "bn.x": np.zeros(3)})

    def test_set_buffers_rejects_another_shape(self):
        # a (1,) mean would broadcast over the 3 features at eval
        net = build_network([{"kind": "batchnorm", "features": 3, "name": "bn"}], rng())
        with pytest.raises(ValueError, match=r"set_buffers: bn.running_mean has shape \(1,\), "
                                             r"the layer's \(3,\)"):
            net.set_buffers({**net.get_buffers(), "bn.running_mean": np.zeros(1)})
        np.testing.assert_array_equal(net.layers[0].running_mean, np.zeros(3))


# -- optimizers --------------------------------------------------------------

def views(vec, shapes):
    """Per-key views of `vec`, consecutive in the order of `shapes`, as
    ShadowParams lays out its vectors."""
    out, start = {}, 0
    for k, shape in shapes.items():
        size = int(np.prod(shape))
        out[k], start = vec[start:start + size].reshape(shape), start + size
    return out


def one_vector(arrays):
    """One vector holding copies of `arrays` in order, and its per-key views."""
    vec = np.concatenate([a.ravel() for a in arrays.values()])
    return vec, views(vec, {k: a.shape for k, a in arrays.items()})


class TestOptimizers:
    def test_zero_lr_leaves_params(self):
        w = np.array([1.0, 2.0])
        SGDNesterov(momentum=0.9).update(w, np.array([1.0, 1.0]), lr=0.0)
        np.testing.assert_array_equal(w, [1.0, 2.0])

    def test_plain_sgd_step(self):
        w = np.array([1.0])
        SGDNesterov(momentum=0.0).update(w, np.array([0.5]), lr=0.1)
        np.testing.assert_allclose(w, [0.95])

    def test_momentum_zero_is_plain_sgd_bit_for_bit(self):
        # weights and gradients with +0.0 entries, compared after each of 5 steps
        r = np.random.default_rng(23)
        w = r.normal(size=40)
        w[::4] = 0.0
        want = w.copy()
        opt = SGDNesterov(momentum=0.0)
        for _ in range(5):
            g = r.normal(size=40) * 10.0 ** r.uniform(-8, 3, size=40)
            g[r.random(40) < 0.3] = 0.0
            opt.update(w, g, lr=2e-3)
            want -= np.multiply(g, 2e-3)
            assert_bits_equal(w, want)

    def test_nesterov_hand_recurrence(self):
        # f(w) = w^2/2, grad = w; three steps vs hand recurrence
        mu, lr = 0.9, 0.1
        opt = SGDNesterov(momentum=mu)
        w = np.array([1.0])
        wt, v = 1.0, 0.0
        for _ in range(3):
            opt.update(w, w.copy(), lr=lr)
            gh = wt
            v = mu * v + gh
            wt = wt - lr * (gh + mu * v)
        np.testing.assert_allclose(w, [wt], rtol=1e-12)

    def test_adadelta_first_step_matches_hand(self):
        rho, eps, lr = 0.95, 1e-6, 1.0
        opt = AdaDelta(rho=rho, eps=eps)
        w = np.array([2.0])
        g = np.array([0.5])
        opt.update(w, g, lr=lr)
        eg = (1 - rho) * g * g
        dx = -np.sqrt(eps) / np.sqrt(eg + eps) * g
        np.testing.assert_allclose(w, 2.0 + lr * dx, rtol=1e-12)

    def test_adadelta_matches_first_update_bit_for_bit(self):
        r = np.random.default_rng(13)
        shapes = {"W": (6, 5), "b": (5,)}
        w, params = one_vector({k: r.normal(size=s) for k, s in shapes.items()})
        want = {k: p.copy() for k, p in params.items()}
        want_eg, want_ex = {}, {}
        opt = AdaDelta(rho=0.95, eps=1e-6)
        for step in range(200):
            # gradients from 1e-8 to 1e3, both signs, some exactly zero
            grads = {k: r.normal(size=s) * 10.0 ** r.uniform(-8, 3, size=s)
                     for k, s in shapes.items()}
            grads["b"][r.random(5) < 0.2] = 0.0
            lr = r.choice([1.0, 0.5, 1e-3])
            opt.update(w, one_vector(grads)[0], lr)
            adadelta_update_loop(want, grads, want_eg, want_ex, lr, 0.95, 1e-6)
        eg, ex = views(opt.eg, shapes), views(opt.ex, shapes)
        for k in shapes:
            assert_bits_equal(params[k], want[k])
            assert_bits_equal(eg[k], want_eg[k])
            assert_bits_equal(ex[k], want_ex[k])

    def test_adadelta_in_place_matches_first_update_after_every_step(self):
        # the charlm-lstm parameter shapes; gradients with +0.0 and -0.0 and
        # magnitudes from 1e-8 to 1e3, compared after each of 20 updates
        r = np.random.default_rng(19)
        shapes = {"lstm0.Wx": (16, 96), "lstm0.Wh": (24, 96), "lstm0.b": (96,),
                  "fc1.W": (24, 16), "fc1.b": (16,)}
        w, params = one_vector({k: r.normal(size=s) for k, s in shapes.items()})
        want = {k: p.copy() for k, p in params.items()}
        want_eg, want_ex = {}, {}
        opt = AdaDelta(rho=0.95, eps=1e-6)
        for step in range(20):
            grads = {k: r.normal(size=s) * 10.0 ** r.uniform(-8, 3, size=s)
                     for k, s in shapes.items()}
            for g in grads.values():
                g[r.random(g.shape) < 0.2] = r.choice([0.0, -0.0])
            lr = r.choice([1.0, 0.5, 1e-3])
            opt.update(w, one_vector(grads)[0], lr)
            adadelta_update_loop(want, grads, want_eg, want_ex, lr, 0.95, 1e-6)
            eg, ex = views(opt.eg, shapes), views(opt.ex, shapes)
            for k in shapes:
                assert_bits_equal(params[k], want[k])
                assert_bits_equal(eg[k], want_eg[k])
                assert_bits_equal(ex[k], want_ex[k])

    @pytest.mark.parametrize("mu", [0.9, 0.5, 0.0])
    def test_sgd_nesterov_matches_first_update_bit_for_bit(self, mu):
        r = np.random.default_rng(17)
        shapes = {"W": (6, 5), "b": (5,)}
        w, params = one_vector({k: r.normal(size=s) for k, s in shapes.items()})
        want = {k: p.copy() for k, p in params.items()}
        want_v = {}
        opt = SGDNesterov(momentum=mu)
        for step in range(200):
            # gradients from 1e-8 to 1e3, both signs, some +0.0 and some -0.0;
            # the first step starts from v = 0
            grads = {k: r.normal(size=s) * 10.0 ** r.uniform(-8, 3, size=s)
                     for k, s in shapes.items()}
            for g in grads.values():
                g[r.random(g.shape) < 0.2] = r.choice([0.0, -0.0])
            lr = r.choice([0.1, 2e-3, 1e-6])
            opt.update(w, one_vector(grads)[0], lr)
            sgd_nesterov_update_loop(want, grads, want_v, lr, mu)
            v = views(opt.v, shapes)
            for k in shapes:
                assert_bits_equal(params[k], want[k])
                if mu:
                    assert_bits_equal(v[k], want_v[k])

    def test_make_optimizer_dispatch(self):
        assert isinstance(make_optimizer(OptimizerConfig(kind="adadelta")), AdaDelta)
        with pytest.raises(ValueError):
            make_optimizer(OptimizerConfig(kind="adam"))

    @pytest.mark.parametrize("kwargs, message", [
        ({"learning_rate": float("inf"), "lr_schedule": {"initial_lr": float("inf")}},
         "learning_rate must be positive and finite, got inf"),
        ({"learning_rate": float("nan")}, "learning_rate must be positive and finite, got nan"),
        ({"lr_schedule": {"initial_lr": float("inf")}},
         "initial_lr must be positive and finite, got inf"),
        ({"lr_schedule": {"final_lr": 0.0}}, "final_lr must be positive and finite, got 0.0"),
        ({"kind": "adadelta", "rho": 5.0}, r"rho must be in \[0, 1\), got 5.0"),
        ({"kind": "adadelta", "rho": 1.0}, r"rho must be in \[0, 1\), got 1.0"),
        ({"kind": "adadelta", "rho": -0.1}, r"rho must be in \[0, 1\), got -0.1"),
        ({"kind": "adadelta", "eps": -1.0}, "eps must be positive and finite, got -1.0"),
        ({"kind": "adadelta", "eps": 0.0}, "eps must be positive and finite, got 0.0"),
        ({"kind": "adadelta", "eps": float("inf")}, "eps must be positive and finite, got inf"),
    ])
    def test_optimizer_config_rejects_non_finite_or_out_of_range(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OptimizerConfig(**kwargs)

    def test_optimizer_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0)
        with pytest.raises(ValueError):
            OptimizerConfig(momentum=1.0)
        # training starts at lr_schedule.initial_lr, so learning_rate must match it
        with pytest.raises(ValueError, match=r"learning_rate 0\.1 .*initial_lr 0\.01"):
            OptimizerConfig(learning_rate=0.1, lr_schedule={"initial_lr": 0.01,
                                                            "final_lr": 1e-4})


class TestLrSchedule:
    def cfg(self):
        return LrScheduleConfig(initial_lr=2e-3, final_lr=3.90625e-6,
                                decay_factor=2.0, patience_evals=4)

    def test_improving_metric_keeps_lr(self):
        s = LrSchedule(self.cfg())
        for m in [5.0, 4.0, 3.0, 2.0, 1.0]:
            assert s.step(m) == 2e-3

    def test_constant_metric_decays_after_patience(self):
        s = LrSchedule(self.cfg())
        s.step(1.0)
        for _ in range(3):
            assert s.step(1.0) == 2e-3
        assert s.step(1.0) == 1e-3

    def test_floor(self):
        s = LrSchedule(self.cfg())
        for _ in range(200):
            s.step(1.0)
        assert s.lr == 3.90625e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LrScheduleConfig(initial_lr=1e-6, final_lr=1e-3)
        with pytest.raises(ValueError):
            LrScheduleConfig(decay_factor=1.0)
        with pytest.raises(ValueError):
            LrScheduleConfig(patience_evals=0)


# -- determinism -------------------------------------------------------------

class TestDeterminism:
    def _train_once(self):
        r = np.random.default_rng(123)
        net = build_network(
            [{"kind": "fc", "in": 4, "out": 8}, {"kind": "activation", "fn": "relu"},
             {"kind": "fc", "in": 8, "out": 3}, {"kind": "softmax"}], r,
        )
        shadow = init_quantization(net.param_arrays(), {}, 0)
        net.bind_params(shadow.quantized, shadow.grads)
        opt = SGDNesterov(momentum=0.9)
        data_rng = np.random.default_rng(7)
        x = data_rng.normal(size=(32, 4))
        y = data_rng.integers(0, 3, size=32)
        for _ in range(10):
            net.zero_grads()
            p = net.forward(x)
            _, dp = cross_entropy(p, y)
            net.backward(dp)
            opt.update(shadow.master_vector, shadow.grad_vector, lr=0.05)
        return net.get_params()

    def test_bit_identical_across_runs(self):
        a, b = self._train_once(), self._train_once()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
