"""Span tracing of qatkit from outside the package.

`Tracer.install()` replaces public functions and methods of each qatkit
module with thin wrappers that record a span (name, start, end, parent) per
call, and `Tracer.uninstall()` puts every original back.  Nothing under the
package changes; a module-level function is replaced in every qatkit module
that holds a reference to it, so `from .data import load_dataset` style
imports are traced too.

Spans stay in memory as `[name, start, end, parent_index]` lists and are
written out once, at the end.  `self_times` gives each span's duration minus
the union of its children's intervals, and `layer_metrics` turns a trace into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Layer class -> kind name used in metric names (the `kind` keys of build_network).
LAYER_KINDS = {
    "FullyConnected": "fc", "Activation": "activation", "Softmax": "softmax",
    "Flatten": "flatten", "Conv2D": "conv2d", "MaxPool2D": "maxpool2d",
    "BatchNorm": "batchnorm", "LSTM": "lstm",
}

HOOK = "trace.hook"  # span around the tracer's own bookkeeping


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- recording -----------------------------------------------------------

    def enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def exit(self, span: list):
        span[2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.enter(name)
        try:
            yield span
        finally:
            self.exit(span)

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrap `fn` in a span.  `before(args, kwargs)` returns a state that
        `after(state, result)` consumes; both run in a separate hook span so
        their cost is not charged to `name` or to its caller."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                hook = enter(HOOK)
                try:
                    state = before(args, kwargs)
                finally:
                    exit_(hook)
            span = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(span)
            if after is not None:
                hook = enter(HOOK)
                try:
                    after(state, result)
                finally:
                    exit_(hook)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def wrap_generator_method(self, fn, name: str):
        """Wrap a method returning an iterator so that each `next()` on it is
        one span: the time its consumer waits for the next item."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def timed():
                while True:
                    span = enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(span)
                    yield item

            return timed()

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, **hooks):
        """Replace `module.attr` and every other qatkit module's reference to
        the same function object."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod in _qatkit_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, generator=False, **hooks):
        original = cls.__dict__[attr]
        if generator:
            wrapper = self.wrap_generator_method(original, name)
        else:
            wrapper = self.wrap(original, name, **hooks)
        self._set(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    def install(self):
        """Wrap the public calls of data, harness, qat, quantizer, nn.layers,
        nn.network, nn.optim and nn.checkpoint."""
        from qatkit import data, harness, qat, quantizer
        from qatkit.nn import checkpoint, layers, network, optim

        self.patch_function(data, "load_dataset", "data.load_dataset")
        for attr in ("make_task", "train_float", "ensure_float_checkpoint",
                     "run_cell", "report"):
            self.patch_function(harness, attr, f"harness.{attr}")
        self.patch_function(harness, "_write_record", "harness.write_record")
        for task_cls in (harness.ClassificationTask, harness.CharLMTask):
            self.patch_method(task_cls, "batches", "harness.batches", generator=True)
            self.patch_method(task_cls, "evaluate", "harness.evaluate")

        for attr in ("run", "retrain_epoch", "init_quantization"):
            self.patch_function(qat, attr, f"qat.{attr}")
        self.patch_method(qat.ShadowParams, "requantize", "qat.requantize",
                          before=self._before_requantize, after=self._after_requantize)
        self.patch_method(qat.ShadowParams, "update_steps", "qat.update_steps",
                          before=self._before_update_steps,
                          after=self._after_update_steps)

        self.patch_function(quantizer, "optimize_step", "quantizer.optimize_step",
                            before=self._count_breakpoints)
        self.patch_function(quantizer, "quantize", "quantizer.quantize",
                            before=self._count_weights)

        for cls in _subclasses(layers.Layer):
            kind = LAYER_KINDS.get(cls.__name__, cls.__name__.lower())
            for method in ("forward", "backward"):
                if method in cls.__dict__:
                    self.patch_method(cls, method, f"layers.{kind}.{method}")

        for attr in ("forward", "backward", "set_params", "get_params", "get_grads",
                     "zero_grads", "reset_state"):
            self.patch_method(network.Network, attr, f"network.{attr}")
        self.patch_function(network, "build_network", "network.build")
        self.patch_function(network, "cross_entropy", "network.loss")

        for cls in (optim.SGDNesterov, optim.AdaDelta):
            self.patch_method(cls, "update", "optim.update")

        self.patch_function(checkpoint, "save_checkpoint", "checkpoint.save")
        self.patch_function(checkpoint, "load_checkpoint", "checkpoint.load")

    # -- counting hooks ------------------------------------------------------

    def _count_breakpoints(self, args, kwargs):
        group = kwargs.get("group", args[0] if args else None)
        m = kwargs.get("M", args[1] if len(args) > 1 else None)
        self.counters["quantizer.optimize_step.breakpoints"] += (
            int(np.count_nonzero(group.values)) * ((int(m) - 1) // 2)
        )

    def _count_weights(self, args, kwargs):
        w = kwargs.get("w", args[0] if args else None)
        self.counters["quantizer.quantize.weights"] += int(np.size(w))

    @staticmethod
    def _grouped_keys(shadow, gids):
        gids = shadow.groups if gids is None else gids
        return [k for gid in gids for k in shadow.groups[gid]]

    def _before_requantize(self, args, kwargs):
        shadow = args[0]
        gids = kwargs.get("gids", args[1] if len(args) > 1 else None)
        keys = self._grouped_keys(shadow, gids)
        return shadow, {k: np.array(shadow.quantized[k], copy=True) for k in keys}

    def _after_requantize(self, state, _result):
        shadow, before = state
        for k, old in before.items():
            self.counters["qat.requantize.changed"] += int(
                np.count_nonzero(shadow.quantized[k] != old))
            self.counters["qat.requantize.weights"] += old.size

    def _before_update_steps(self, args, kwargs):
        shadow = args[0]
        return shadow, {gid: spec.step for gid, spec in shadow.specs.items()}

    def _after_update_steps(self, state, _result):
        shadow, before = state
        for gid, step in before.items():
            self.counters["qat.update_steps.solves"] += 1
            self.counters["qat.update_steps.delta_changed"] += int(
                shadow.specs[gid].step != step)

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """One JSON object per line: id, name, start, end (s), parent id."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def _qatkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qatkit" or name.startswith("qatkit."))]


def wrapped_objects() -> list[str]:
    """Names of tracer wrappers still reachable from a qatkit module or from
    a class defined in one; empty once `uninstall` has run."""
    found = []
    for mod in _qatkit_modules():
        for key, value in list(vars(mod).items()):
            if getattr(value, "__wrapped_by_tracer__", False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("qatkit"):
                for attr, member in vars(value).items():
                    if getattr(member, "__wrapped_by_tracer__", False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- analysis ----------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        covered = _union_length([(s, e) for s, e in clipped if e > s])
        out.append((end - start) - covered)
    return out


def aggregate(spans, roots=None) -> dict[str, dict]:
    """name -> {calls, total_s, self_s} over all spans, or over the trees of
    the top-level spans whose name is in `roots`."""
    selfs = self_times(spans)
    keep = set()
    for i, (name, _start, _end, parent) in enumerate(spans):  # parents come first
        if roots is None or (parent < 0 and name in roots) or parent in keep:
            keep.add(i)
    out: dict[str, dict] = {}
    for i in sorted(keep):
        name, start, end, _parent = spans[i]
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += selfs[i]
    return out


# the benchmark's top-level spans: set-up and the sweep itself
ROOTS = ("setup", "sweep")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced set-up and sweep (without units)."""
    agg = aggregate(tracer.spans, ROOTS)
    c = tracer.counters

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {}
    bp = c["quantizer.optimize_step.breakpoints"]
    m["quantizer.optimize_step.calls"] = calls("quantizer.optimize_step")
    m["quantizer.optimize_step.self_s"] = self_s("quantizer.optimize_step")
    m["quantizer.optimize_step.breakpoints"] = bp
    m["quantizer.optimize_step.ns_per_breakpoint"] = (
        1e9 * self_s("quantizer.optimize_step") / bp if bp else 0.0)
    m["quantizer.quantize.calls"] = calls("quantizer.quantize")
    m["quantizer.quantize.self_s"] = self_s("quantizer.quantize")
    m["quantizer.quantize.weights"] = c["quantizer.quantize.weights"]
    m["qat.requantize.calls"] = calls("qat.requantize")
    m["qat.requantize.self_s"] = self_s("qat.requantize")
    m["qat.requantize.changed_ratio"] = _ratio(c["qat.requantize.changed"],
                                               c["qat.requantize.weights"])
    m["qat.update_steps.self_s"] = self_s("qat.update_steps")
    m["qat.update_steps.delta_changed_ratio"] = _ratio(
        c["qat.update_steps.delta_changed"], c["qat.update_steps.solves"])
    for name in ("init_quantization", "retrain_epoch", "run"):
        m[f"qat.{name}.self_s"] = self_s(f"qat.{name}")
    # per-kind sweep times would read 0 on every run of a workload without
    # that kind, so the sweep gives totals and per-kind call counts (the
    # layer probe times every kind); per-kind times are in `layer_kinds`
    kinds = sorted(LAYER_KINDS.values())
    m["layers.forward_s"] = sum(self_s(f"layers.{k}.forward") for k in kinds)
    m["layers.backward_s"] = sum(self_s(f"layers.{k}.backward") for k in kinds)
    for kind in kinds:
        m[f"layers.{kind}.calls"] = calls(f"layers.{kind}.forward")
    m["network.forward.self_s"] = self_s("network.forward")
    m["network.backward.self_s"] = self_s("network.backward")
    m["network.set_params.calls"] = calls("network.set_params")
    m["network.set_params.self_s"] = self_s("network.set_params")
    m["network.zero_grads.self_s"] = self_s("network.zero_grads")
    m["network.loss_s"] = self_s("network.loss")
    m["optim.update.calls"] = calls("optim.update")
    m["optim.update.self_s"] = self_s("optim.update")
    m["data.load_dataset_s"] = self_s("data.load_dataset")
    m["harness.batches_s"] = self_s("harness.batches")
    m["harness.evaluate.calls"] = calls("harness.evaluate")
    m["harness.evaluate.self_s"] = self_s("harness.evaluate")
    m["harness.train_float.self_s"] = self_s("harness.train_float")
    m["checkpoint.save_s"] = self_s("checkpoint.save")
    m["checkpoint.load_s"] = self_s("checkpoint.load")
    m["harness.write_record_s"] = self_s("harness.write_record")
    m["harness.report_s"] = self_s("harness.report")

    sweep = aggregate(tracer.spans, ("sweep",))
    wall = sweep.get("sweep", {}).get("total_s", 0.0)
    uncovered = (sweep.get("sweep", {}).get("self_s", 0.0)
                 + sweep.get(HOOK, {}).get("self_s", 0.0))
    m["trace.coverage_ratio"] = _ratio(wall - uncovered, wall)
    return m


def layer_kinds(tracer: Tracer) -> dict[str, dict]:
    """kind -> forward/backward self seconds and calls in set-up and sweep."""
    agg = aggregate(tracer.spans, ROOTS)
    out = {}
    for kind in sorted(LAYER_KINDS.values()):
        fwd = agg.get(f"layers.{kind}.forward", {})
        bwd = agg.get(f"layers.{kind}.backward", {})
        if fwd or bwd:
            out[kind] = {"forward_s": fwd.get("self_s", 0.0),
                         "backward_s": bwd.get("self_s", 0.0),
                         "calls": fwd.get("calls", 0)}
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
