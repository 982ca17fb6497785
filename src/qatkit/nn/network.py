"""Network container, loss functions and the config-driven builder."""

from __future__ import annotations

import inspect
import typing

import numpy as np

from . import layers as L


class Network:
    """Ordered stack of layers with chained forward/backward."""

    def __init__(self, layer_list: list[L.Layer]):
        names = [ly.name for ly in layer_list]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate layer names: {names}")
        self.layers = layer_list

    def forward(self, x, train=True):
        """Output of the stack.  With `train=False` it is an inference pass:
        each layer's backward cache is dropped as soon as the layer returns,
        so only the activation in flight is held and nothing survives the
        call; `backward` after it raises InvalidStateError."""
        for ly in self.layers:
            x = ly.forward(x, train=train)
            if not train:
                ly._cache = None
        return x

    def backward(self, dy):
        """Set every layer's parameter gradients; returns None, since the
        first layer computes no input gradient."""
        for i in reversed(range(len(self.layers))):
            dy = self.layers[i].backward(dy, need_dx=i > 0)

    def zero_grads(self):
        for ly in self.layers:
            ly.zero_grads()

    def reset_state(self):
        """Does nothing now that no layer carries state between calls; kept
        because `perfbench/tracing.py` patches it by name.  ROADMAP item 4
        deletes it together with the benchmark's next change."""

    # -- parameter access ---------------------------------------------------

    def param_items(self):
        """Yield (key, layer, param_name) for every parameter, in layer order."""
        for ly in self.layers:
            for pname in sorted(ly.params):
                yield f"{ly.name}.{pname}", ly, pname

    def get_params(self) -> dict[str, np.ndarray]:
        return {key: ly.params[p].copy() for key, ly, p in self.param_items()}

    def param_arrays(self) -> dict[str, np.ndarray]:
        """The arrays the layers hold, by key; not copies."""
        return {key: ly.params[p] for key, ly, p in self.param_items()}

    def set_params(self, values: dict[str, np.ndarray]):
        """Copy in a value for every parameter, into the arrays the layers
        hold; a missing or extra key, or a value of another shape, raises."""
        _copy_into("set_params", values, self.param_arrays())

    def bind_params(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Make the layers hold `params` and `grads` themselves, not copies:
        forward reads the params, in-place writes included, and backward
        writes into `grads`.  A missing or extra key, or an array of another
        shape or not C-contiguous float64, raises ValueError, binding none."""
        for what, arrays in (("params", params), ("grads", grads)):
            _check_like(f"bind_params {what}", arrays, self.param_arrays())
            for key, arr in arrays.items():
                ok = isinstance(arr, np.ndarray) and arr.dtype == np.float64
                if not (ok and arr.flags.c_contiguous):
                    raise ValueError(f"bind_params {what}: {key} must be C-contiguous float64")
        for key, ly, p in self.param_items():
            ly.params[p], ly.grads[p] = params[key], grads[key]

    def buffer_items(self):
        """Yield (key, layer, attribute) for every buffer, in layer order."""
        for ly in self.layers:
            for name in ly.buffers:
                yield f"{ly.name}.{name}", ly, name

    def get_buffers(self) -> dict[str, np.ndarray]:
        return {key: getattr(ly, a).copy() for key, ly, a in self.buffer_items()}

    def set_buffers(self, values: dict[str, np.ndarray]):
        """Copy in a value for every buffer, into the arrays the layers hold;
        a missing or extra key, or a value of another shape, raises."""
        _copy_into("set_buffers", values,
                   {key: getattr(ly, a) for key, ly, a in self.buffer_items()})

    def get_grads(self) -> dict[str, np.ndarray]:
        return {key: ly.grads[p] for key, ly, p in self.param_items()}

    def quant_group_map(self) -> dict[str, list[str]]:
        """layer name -> the parameter keys of that layer quantized with one
        shared step, for each layer that has any."""
        return {ly.name: [f"{ly.name}.{n}" for n in ly.quant_keys]
                for ly in self.layers if ly.quant_keys}


def _check_like(what: str, values: dict, held: dict):
    """Raise ValueError, naming `what`, for a key of `held` that `values`
    lacks or one it adds, and the key for a value of another shape."""
    if values.keys() != held.keys():
        raise ValueError(f"{what}: missing keys {sorted(held.keys() - values.keys())}, "
                         f"extra keys {sorted(values.keys() - held.keys())}")
    for key, arr in held.items():
        if np.shape(values[key]) != arr.shape:
            raise ValueError(f"{what}: {key} has shape {np.shape(values[key])}, "
                             f"the layer's {arr.shape}")


def _copy_into(what: str, values: dict, held: dict):
    """Copy each of `values` into the array of its key in `held`, after
    `_check_like`."""
    _check_like(what, values, held)
    for key, arr in held.items():
        np.copyto(arr, values[key])


# -- losses -----------------------------------------------------------------

_EPS = 1e-12


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood of integer labels; returns (loss, dprobs).

    `probs` may be (batch, classes) or (time, batch, classes); labels match
    the leading shape.
    """
    p = probs.reshape(-1, probs.shape[-1])
    y = labels.reshape(-1)
    n = p.shape[0]
    picked = np.clip(p[np.arange(n), y], _EPS, None)
    loss = -float(np.log(picked).sum()) / n
    dp = np.zeros_like(p)
    dp[np.arange(n), y] = -1.0 / (picked * n)
    return loss, dp.reshape(probs.shape)


def classification_error(probs: np.ndarray, labels: np.ndarray) -> float:
    """Error rate in percent."""
    pred = probs.reshape(-1, probs.shape[-1]).argmax(axis=1)
    return 100.0 * float(np.mean(pred != labels.reshape(-1)))


def bits_per_char(probs: np.ndarray, labels: np.ndarray) -> float:
    """Average negative log2 likelihood per character."""
    p = probs.reshape(-1, probs.shape[-1])
    y = labels.reshape(-1)
    picked = np.clip(p[np.arange(p.shape[0]), y], _EPS, None)
    return -float(np.mean(np.log2(picked)))


# -- builder ----------------------------------------------------------------

# layer kind -> class.  A kind's config keys are `kind` and its constructor's
# parameters but `rng`, renamed by CONFIG_KEY_NAMES; each takes its default
# from the signature, and `name` defaults to the kind and the layer index.
LAYER_TYPES = {
    "fc": L.FullyConnected, "activation": L.Activation, "softmax": L.Softmax,
    "flatten": L.Flatten, "conv2d": L.Conv2D, "maxpool2d": L.MaxPool2D,
    "batchnorm": L.BatchNorm, "lstm": L.LSTM,
}
# constructor parameter -> config key, where the key cannot be a parameter name
CONFIG_KEY_NAMES = {"fan_in": "in", "fan_out": "out", "input_size": "in",
                    "hidden_size": "hidden"}
# kind -> the constructor parameters of its input and output width (the last
# axis); None for batchnorm, which passes the width it receives on, as the
# WIDTH_KEEPING kinds do.  Any other kind (flatten, conv2d, maxpool2d) ends
# the chain.
WIDTH_PARAMS = {"fc": ("fan_in", "fan_out"), "lstm": ("input_size", "hidden_size"),
                "batchnorm": ("features", None)}
WIDTH_KEEPING = ("activation", "softmax")
VALUE_TYPES = {bool: "a bool", int: "an int", float: "a float", str: "a str",
               dict: "a mapping", list: "a list"}


def reject_unknown(what: str, given, accepted):
    """Raise ValueError naming every entry of `given` that `accepted` lacks."""
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ValueError(f"unknown {what} {', '.join(map(repr, unknown))}; "
                         f"accepted: {', '.join(accepted)}")


def check_args(what: str, given: dict, fn, is_key=None, key_names=None) -> dict:
    """Config section `given` as keyword arguments of `fn`.  Its keys are the
    parameters of `fn` that `is_key` accepts (default all), renamed by
    `key_names`.  Raises ValueError, naming `what` and the key, for a `given`
    that is not a mapping, an unknown or missing required key, or a value that
    does not fit a bool, int, float, str, dict or list annotation, or an entry
    that does not fit the X of a list[X] annotation: a bool is not an int, and
    an int is a float."""
    if not isinstance(given, dict):
        raise ValueError(f"{what} must be a mapping, got {given!r}")
    params = {(key_names or {}).get(name, name): p
              for name, p in inspect.signature(fn, eval_str=True).parameters.items()
              if is_key is None or is_key(p)}
    reject_unknown(f"{what} key", given, params)
    missing = [k for k, p in params.items() if k not in given and p.default is p.empty]
    if missing:
        raise ValueError(f"{what}: missing required key {', '.join(map(repr, missing))}")
    for key, value in given.items():
        want = params[key].annotation
        _check_value(what, key, value, typing.get_origin(want) or want)
        if typing.get_origin(want) is list:
            for i, entry in enumerate(value):
                _check_value(what, f"{key}[{i}]", entry, *typing.get_args(want))
    return {params[key].name: value for key, value in given.items()}


def _check_value(what: str, key: str, value, want):
    if want in VALUE_TYPES and not (isinstance(value, bool) == (want is bool) and
                                    isinstance(value, (int, float) if want is float else want)):
        raise ValueError(f"{what}: {key} must be {VALUE_TYPES[want]}, got {value!r}")


def build_network(layer_cfgs: list[dict], rng: np.random.Generator) -> Network:
    """Build a Network from a list of layer description dicts (see
    LAYER_TYPES).  Initialization draws from `rng` in layer order, so a fixed
    seed gives identical parameters.

    Raises ValueError, naming the layer index and kind, for an unknown kind,
    a key or value `check_args` rejects, and, naming both layers, for an `in`
    or a batch norm's `features` that differs from the last width declared
    before it (see WIDTH_PARAMS); a layer constructor raises for a bad value.
    """
    layers = []
    width = None  # (layer name, width) the next layer receives, if declared
    for i, cfg in enumerate(layer_cfgs):
        kind = cfg.get("kind")
        reject_unknown(f"network[{i}] layer kind", [kind], LAYER_TYPES)
        cls = LAYER_TYPES[kind]
        given = {"name": f"{kind}{i}", **{k: v for k, v in cfg.items() if k != "kind"}}
        kwargs = check_args(f"network[{i}] {kind}", given, cls,
                            lambda p: p.name != "rng", CONFIG_KEY_NAMES)
        if "rng" in inspect.signature(cls).parameters:
            kwargs["rng"] = rng
        layers.append(cls(**kwargs))
        if kind in WIDTH_PARAMS:
            p_in, p_out = WIDTH_PARAMS[kind]
            if width is not None and kwargs[p_in] != width[1]:
                raise ValueError(f"network[{i}] {kind} {kwargs['name']!r}: "
                                 f"{CONFIG_KEY_NAMES.get(p_in, p_in)} {kwargs[p_in]} "
                                 f"does not match width {width[1]} of {width[0]!r}")
            if p_out is not None:
                width = (kwargs["name"], kwargs[p_out])
        elif kind not in WIDTH_KEEPING:
            width = None
    return Network(layers)
