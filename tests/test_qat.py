import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qatkit import harness, qat
from qatkit.harness import train_float, ExperimentConfig
from qatkit.nn import (
    Checkpoint,
    Network,
    OptimizerConfig,
    build_network,
    cross_entropy,
    make_optimizer,
)
from qatkit.records import RunRecord
from qatkit.quantizer import (
    DegenerateGroupError,
    WeightGroup,
    optimize_step,
    quantize,
)

from oracles import assert_bits_equal, quantize_array, run_reference


MLP = [
    {"kind": "fc", "in": 6, "out": 8, "name": "fc_in"},
    {"kind": "activation", "fn": "relu"},
    {"kind": "fc", "in": 8, "out": 3, "name": "fc_out"},
    {"kind": "softmax"},
]


def toy_task(seed=0):
    return harness.make_task(reference_config("fc", seed), seed)


def toy_float_ckpt(seed=0):
    net = build_network(MLP, np.random.default_rng(seed))
    return Checkpoint(layer_cfgs=MLP, params=net.get_params())


# -- schedules ---------------------------------------------------------------

def widths_and_updates(schedule, bits, max_epochs):
    plan = qat.parse_schedule(schedule).plan(bits, max_epochs)
    return [b for b, _ in plan], [u for _, u in plan]


class TestSchedules:
    def test_parse_round_trip(self):
        assert qat.parse_schedule("direct") == qat.Schedule("direct", 0)
        assert qat.parse_schedule("conventional") == qat.Schedule("conventional", 0)
        assert qat.parse_schedule("exhaustive") == qat.Schedule("exhaustive", 0)
        assert qat.parse_schedule("Adaptive ") == qat.Schedule("adaptive", None)
        assert qat.parse_schedule("adaptive_fix2") == qat.Schedule("adaptive_fix2", 2)
        assert qat.parse_schedule("adaptive_fix") == qat.Schedule("adaptive_fix1", 1)
        g = qat.parse_schedule("gradual:6-2:3:conventional")
        assert g == qat.Schedule("gradual6to2", 0, start_bits=6, end_bits=2,
                                 epochs_per_stage=3)
        assert qat.parse_schedule("gradual:6-2:3").adapt_epochs is None
        assert qat.parse_schedule("gradual:5-3:1:adaptive_fix2").adapt_epochs == 2
        for text in ("bogus", "gradual:6-2", "gradual:6-x:3", "gradual:6-2:3:conventional:x",
                     "adaptive_fix0", "adaptive_fixA", "adaptive:2", "",
                     "gradual:6-2:3:exhaustive"):
            with pytest.raises(ValueError, match=f"bad schedule '{text}'; accepted: direct"):
                qat.parse_schedule(text)

    def test_adaptive_every_epoch_always_updates(self):
        assert widths_and_updates("adaptive", 3, 10) == ([3] * 10, [True] * 10)

    def test_first_k_then_fix(self):
        assert widths_and_updates("adaptive_fix1", 2, 3) == ([2] * 3, [True, False, False])
        assert widths_and_updates("adaptive_fix2", 2, 3) == ([2] * 3, [True, True, False])

    def test_conventional_always_freezes(self):
        assert widths_and_updates("conventional", 2, 5) == ([2] * 5, [False] * 5)
        assert widths_and_updates("direct", 2, 5) == ([], [])

    def test_gradual_bit_sequence(self):
        assert widths_and_updates("gradual:6-2:2", 2, 10) == (
            [6, 6, 5, 5, 4, 4, 3, 3, 2, 2], [True] * 10)
        # adaptive_fixK counts from the start of each stage, the final one too
        assert widths_and_updates("gradual:4-2:2:adaptive_fix1", 2, 8) == (
            [4, 4, 3, 3, 2, 2, 2, 2], [True, False, True, False, True, False, False, False])

    @given(end=st.integers(2, 8), extra=st.integers(1, 6), eps=st.integers(1, 5),
           inner=st.sampled_from(["conventional", "adaptive", "adaptive_fix2"]))
    def test_gradual_drops_match_bits_at(self, end, extra, eps, inner):
        start = end + extra
        horizon = (extra + 3) * eps
        plan = qat.parse_schedule(f"gradual:{start}-{end}:{eps}:{inner}").plan(end, horizon)
        assert len(plan) == horizon
        drops = {e: plan[e][0] for e in range(1, horizon) if plan[e][0] != plan[e - 1][0]}
        assert plan[0][0] == start
        assert drops == {k * eps: start - k for k in range(1, extra + 1)}
        k = {"conventional": 0, "adaptive": horizon, "adaptive_fix2": 2}[inner]
        assert [u for _, u in plan] == [e - min(e // eps, extra) * eps < k
                                        for e in range(horizon)]

    def test_gradual_validation(self):
        for text in ("gradual:2-2:1", "gradual:6-1:1", "gradual:6-2:0",
                     "gradual:6-2:3:direct", "gradual:6-2:3:gradual:4-2:1"):
            with pytest.raises(ValueError, match="bad schedule"):
                qat.parse_schedule(text)
        with pytest.raises(ValueError, match="needs bits 2 and max_epochs >= 13"):
            qat.RetrainConfig(schedule="gradual:6-2:3", bits=4, max_epochs=20)
        with pytest.raises(ValueError, match="needs bits 2 and max_epochs >= 13"):
            qat.RetrainConfig(schedule="gradual:6-2:3", bits=2, max_epochs=12)
        assert qat.RetrainConfig(schedule="gradual:6-2:3", bits=2, max_epochs=13)
        with pytest.raises(ValueError, match="^schedule must be at most 8 bits wide, the "
                                             "widest supported width, got 'gradual:12-2:1'$"):
            qat.RetrainConfig(schedule="gradual:12-2:1", bits=2)
        assert qat.RetrainConfig(schedule="gradual:8-2:1", bits=2)

    @pytest.mark.parametrize("field, value", [
        ("stop_at_lr_floor", "false"),
        ("max_epochs", -3), ("max_epochs", True), ("max_epochs", 2.0),
        ("bits", 3.0), ("bits", "3"), ("bits", True), ("bits", 1), ("bits", 9),
        ("seed", -1),
    ])
    def test_value_types_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*, got {value!r}"):
            qat.RetrainConfig(schedule="conventional", **{field: value})


# -- shadow params -----------------------------------------------------------

class TestInitQuantization:
    def test_grid_master_recovered_exactly(self):
        master = {"a.W": np.array([[1.0, -2.0], [0.0, 2.0]]), "a.b": np.array([0.3])}
        groups = {"a": ["a.W"]}
        shadow = qat.init_quantization(master, groups, bits=3)
        assert shadow.specs["a"].step == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(shadow.quantized["a.W"], master["a.W"], atol=1e-12)

    def test_symmetric_pair_two_bits(self):
        shadow = qat.init_quantization({"g.W": np.array([-1.0, 1.0])}, {"g": ["g.W"]}, 2)
        assert shadow.specs["g"].step == pytest.approx(1.0)

    def test_matches_direct_optimize_step(self):
        rng = np.random.default_rng(0)
        master = {"l1.W": rng.normal(size=(5, 4)), "l2.W": rng.laplace(size=(4, 3))}
        groups = {"l1": ["l1.W"], "l2": ["l2.W"]}
        shadow = qat.init_quantization(master, groups, bits=4)
        for gid, keys in groups.items():
            step, _ = optimize_step(WeightGroup(master[keys[0]].ravel(), gid), 15)
            assert shadow.specs[gid].step == pytest.approx(step, rel=1e-12)

    def test_degenerate_group_names_group(self):
        with pytest.raises(DegenerateGroupError, match="dead") as e:
            qat.init_quantization({"dead.W": np.zeros(4)}, {"dead": ["dead.W"]}, 2)
        assert str(e.value).count("dead") == 1, str(e.value)

    @pytest.mark.parametrize("values, bits", [
        ([5e-324, 1e-323, 1.5e-323, 5e-324, -1e-323], 4),
        ([1e-300, 5e-324, -1e-310], 3),
    ], ids=["subnormal", "underflowing-squares"])
    def test_underflowing_group_names_group(self, values, bits):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGroupError, match="'tiny'.*step 0.0"):
                qat.init_quantization({"tiny.W": np.array(values)}, {"tiny": ["tiny.W"]}, bits)

    def test_overflowing_group_names_group_and_magnitude(self):
        master = {"big.W": np.array([3e160, -1e160, 2e159])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'big'.*overflows.*3e\\+160"):
                qat.init_quantization(master, {"big": ["big.W"]}, 3)
            shadow = qat.init_quantization({"big.W": np.array([1.0, -0.5, 0.2])}, {"big": ["big.W"]}, 3)
            shadow.master["big.W"][:] = master["big.W"]
            # not swallowed as a degenerate group by the adaptive re-solve
            with pytest.raises(ValueError, match="'big'.*overflows"):
                shadow.update_steps()

    def test_degenerate_group_keeps_its_step_during_adaptation(self, caplog):
        master = {"a.W": np.array([1.0, -1.0, 0.5]), "b.W": np.array([0.3, -2.0])}
        shadow = qat.init_quantization(master, {"a": ["a.W"], "b": ["b.W"]}, 2)
        step = shadow.specs["a"].step
        shadow.master["a.W"][:] = 0.0
        record = RunRecord(run_id="r", cell_bits=2, schedule="adaptive", seed=0)
        with caplog.at_level("WARNING", logger="qatkit.qat"):
            shadow.update_steps(record)
        assert shadow.specs["a"].step == step
        assert "group a degenerate during adaptation" in caplog.text
        assert record.events == ["degenerate-group:a"]
        assert_bits_equal(shadow.quantized["a.W"], np.zeros(3))

    def test_non_quantizable_shared_by_reference(self):
        master = {"a.W": np.array([1.0, -1.0]), "a.b": np.array([0.5])}
        shadow = qat.init_quantization(master, {"a": ["a.W"]}, 2)
        assert shadow.quantized["a.b"] is shadow.master["a.b"]

    def test_grid_membership(self):
        rng = np.random.default_rng(3)
        master = {"a.W": rng.normal(size=50)}
        shadow = qat.init_quantization(master, {"a": ["a.W"]}, 3)
        spec = shadow.specs["a"]
        mult = shadow.quantized["a.W"] / spec.step
        np.testing.assert_allclose(mult, np.round(mult), atol=1e-9)
        assert np.abs(mult).max() <= (spec.points - 1) / 2 + 1e-9


class TestInPlaceRequantize:
    def test_rebuilds_the_same_arrays_bit_for_bit(self):
        rng = np.random.default_rng(0)
        master = {"a.W": rng.normal(size=(6, 5)), "a.b": rng.normal(size=5),
                  "c.W": rng.normal(size=40), "c.U": rng.normal(size=(2, 3))}
        groups = {"a": ["a.W"], "c": ["c.W", "c.U"]}
        shadow = qat.init_quantization(master, groups, 3)
        master = shadow.master  # its views, which requantize reads
        arrays = {k: shadow.quantized[k] for keys in groups.values() for k in keys}
        for epoch in range(3):
            for v in master.values():
                v += rng.normal(scale=0.3, size=v.shape)
            master["c.W"][:3] = [-0.0, -1e-300, 0.0]
            if epoch == 2:
                shadow.update_steps()
            else:
                shadow.requantize()
            assert shadow.quantized["a.b"] is master["a.b"]
            for gid, keys in groups.items():
                spec = shadow.specs[gid]
                for k in keys:
                    assert shadow.quantized[k] is arrays[k]
                    assert_bits_equal(shadow.quantized[k],
                                      quantize_array(master[k], spec.step, spec.points))

    def test_rebuilds_only_the_groups_asked_for(self):
        master = {"a.W": np.array([0.9, -1.1]), "b.W": np.array([0.4, 2.0])}
        shadow = qat.init_quantization(master, {"a": ["a.W"], "b": ["b.W"]}, 2)
        master = shadow.master
        before = shadow.quantized["b.W"].copy()
        master["a.W"] *= -1.0
        master["b.W"] *= -1.0
        shadow.requantize(["a"])
        assert_bits_equal(shadow.quantized["a.W"],
                          quantize_array(master["a.W"], shadow.specs["a"].step, 3))
        assert_bits_equal(shadow.quantized["b.W"], before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_master_names_group_and_key(self, bad):
        master = {"a.W": np.ones(4), "b.W": np.ones((2, 2))}
        shadow = qat.init_quantization(master, {"a": ["a.W"], "b": ["b.W"]}, 2)
        shadow.master["b.W"][1, 0] = bad
        with pytest.raises(qat.DivergenceError, match="^group 'b', key 'b.W': .*non-finite"):
            shadow.requantize()

    def test_fit_names_run_and_epoch_of_a_non_finite_master(self, monkeypatch):
        # the third update of epoch 1 leaves an infinite master weight
        task = toy_task()
        per_epoch = sum(1 for _ in task.batches("train", 0))
        real = qat.make_optimizer
        calls = []

        def make_optimizer(cfg):
            opt = real(cfg)
            update = opt.update

            def poisoned(master, grads, lr):
                update(master, grads, lr)
                calls.append(1)
                if len(calls) == per_epoch + 3:
                    master[6 * 8] = np.inf  # fc_out.W[0, 0], after fc_in's 6x8 weights
            opt.update = poisoned
            return opt

        monkeypatch.setattr(qat, "make_optimizer", make_optimizer)
        cfg = retrain_cfg("conventional", max_epochs=3)
        with pytest.raises(qat.DivergenceError,
                           match="^b2_s0: epoch 1: group 'fc_out', key 'fc_out.W': "):
            qat.run(cfg, toy_float_ckpt(), task, run_id="b2_s0")

    def test_fit_names_run_epoch_and_batch_of_a_non_finite_loss(self):
        # a NaN input batch gives a NaN loss, which raises before backward,
        # with no numpy warning (the suite turns those into errors)
        task = toy_task()
        batches = task.batches
        task.batches = lambda split, epoch: ((np.full_like(x, np.nan), y)
                                             for x, y in batches(split, epoch))
        with pytest.raises(qat.DivergenceError,
                           match="^b2_s0: epoch 0: non-finite loss nan at batch 0$"):
            qat.run(retrain_cfg("conventional"), toy_float_ckpt(), task,
                    run_id="b2_s0")

    def test_per_batch_steps_allocate_no_weight_sized_arrays(self):
        # wide-fc shapes, 76,874 parameters.  Copying into the network and
        # zeroing allocate no weight-sized array; the optimizer's update and
        # the requantize each allocate one temporary, as large as the
        # parameter vector and the largest group, and no second such as a
        # gradient copy or a gathered group
        net = build_network([{"kind": "fc", "in": 32, "out": 256},
                             {"kind": "activation", "fn": "relu"},
                             {"kind": "fc", "in": 256, "out": 256},
                             {"kind": "activation", "fn": "relu"},
                             {"kind": "fc", "in": 256, "out": 10},
                             {"kind": "softmax"}], np.random.default_rng(0))
        shadow = qat.init_quantization(net.get_params(), net.quant_group_map(), 4)
        opt = make_optimizer(OptimizerConfig(
            learning_rate=0.002, lr_schedule={"initial_lr": 0.002, "final_lr": 1e-5}))
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(32, 32)), rng.integers(0, 10, size=32)
        steps = {
            "set_params": lambda: net.set_params(shadow.quantized),
            "zero_grads": net.zero_grads,
            "optimizer.update": lambda: opt.update(shadow.master_vector, shadow.grad_vector,
                                                   0.002),
            "requantize": shadow.requantize,
        }
        peaks = {}

        def step(name):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            steps[name]()
            peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - held)

        tracemalloc.start()
        try:
            for batch in range(3):
                if batch == 1:  # after the warm-up
                    peaks.clear()
                step("set_params")
                step("zero_grads")
                _, dout = cross_entropy(net.forward(x, train=True), y)
                net.backward(dout)
                step("optimizer.update")
                step("requantize")
        finally:
            tracemalloc.stop()
        largest_group = max(sum(shadow.master[k].nbytes for k in keys)
                            for keys in shadow.groups.values())
        bounds = {"set_params": 0, "zero_grads": 0,
                  "optimizer.update": shadow.master_vector.nbytes, "requantize": largest_group}
        assert all(peaks[name] < bounds[name] + 16 * 1024 for name in steps), (peaks, bounds)


# -- full runs ---------------------------------------------------------------

def optimizer(kind, lr, floor=False):
    """Starts at `lr`; with `floor`, halves after every evaluation without a
    new best, down to lr / 4."""
    return {"kind": kind, "learning_rate": lr,
            "lr_schedule": {"initial_lr": lr, "final_lr": lr / (4 if floor else 500),
                            "patience_evals": 1 if floor else 3}}


# name -> (ExperimentConfig keys, batching keys, optimizer kind, learning rate)
REFERENCE_NETWORKS = {
    "fc": ({"task": "classification-vector", "network": MLP,
            "dataset": {"kind": "clusters", "n_samples": 300, "classes": 3, "dim": 6,
                        "seed": 5, "spread": 0.6}},
           {"batch_size": 32}, "sgd_nesterov", 0.05),
    "cnn": ({"task": "classification-image",
             "dataset": {"kind": "digit-images", "n_samples": 120, "classes": 3, "seed": 5},
             "network": [{"kind": "conv2d", "in_ch": 1, "out_ch": 3, "kernel": 3},
                         {"kind": "batchnorm", "features": 3},
                         {"kind": "activation", "fn": "relu"}, {"kind": "maxpool2d", "size": 2},
                         {"kind": "flatten"}, {"kind": "fc", "in": 27, "out": 3},
                         {"kind": "softmax"}]},
            {"batch_size": 32}, "sgd_nesterov", 0.05),
    "lstm": ({"task": "char-language-model",
              "dataset": {"kind": "synthetic-text", "n_chars": 600, "vocab_size": 4, "seed": 3},
              "network": [{"kind": "lstm", "in": 4, "hidden": 6},
                          {"kind": "fc", "in": 6, "out": 4}, {"kind": "softmax"}]},
             {"unroll": 8, "update_stride": 8, "streams": 4}, "adadelta", 1.0),
}


def reference_config(net, seed, max_epochs=15, floor=False):
    keys, batching, kind, lr = REFERENCE_NETWORKS[net]
    return ExperimentConfig(**keys, seeds=[seed], float_training={
        **batching, "max_epochs": max_epochs, "optimizer": optimizer(kind, lr, floor)})


@functools.lru_cache(maxsize=None)  # shared: `qat.run` leaves a checkpoint as it was
def reference_ckpt(net, seed):
    return train_float(reference_config(net, seed), seed)[0]


def retrain_cfg(schedule, bits=2, max_epochs=4, seed=0):
    return qat.RetrainConfig(
        schedule=schedule, bits=bits, seed=seed, max_epochs=max_epochs,
        optimizer=OptimizerConfig(
            kind="sgd_nesterov", learning_rate=0.02,
            lr_schedule={"initial_lr": 0.02, "final_lr": 1e-5,
                         "decay_factor": 2.0, "patience_evals": 4},
        ),
    )


class ScriptedDevTask:
    """`task`'s batches and metrics (`toy_task()`'s by default), the e-th dev
    evaluation reporting dev_script[e] if a script is given.  Keeps each
    evaluation's split and metric in `metrics`, and copies of the layers'
    params and buffers, by key, in `seen[split]`."""

    def __init__(self, dev_script=None, task=None):
        self.task, self.dev_script = task or toy_task(), dev_script
        self.metric_name, self.batches = self.task.metric_name, self.task.batches
        self.seen, self.metrics = {"dev": [], "test": []}, []

    def evaluate(self, net, split):
        metric = self.task.evaluate(net, split)
        self.metrics.append((split, metric))
        held = {f"{ly.name}.{p}": w.copy() for ly in net.layers for p, w in ly.params.items()}
        held.update({f"{ly.name}.{b}": getattr(ly, b).copy() for ly in net.layers
                     for b in ly.buffers})
        self.seen[split].append(held)
        if split == "dev" and self.dev_script:
            return self.dev_script[len(self.seen["dev"]) - 1]
        return metric


def assert_same_params(got, want):
    assert got.keys() == want.keys()
    for k in want:
        assert_bits_equal(got[k], want[k])


class TestBestOnDev:
    """How `fit` keeps the best-on-dev state; what a run computes is pinned by
    `test_run_matches_reference`."""

    @pytest.mark.parametrize("schedule, restores", [("adaptive", 2), ("gradual:3-2:2", 3)])
    def test_best_is_quantized_once_per_stage(self, monkeypatch, schedule, restores):
        # dev improves every epoch, so every epoch takes a snapshot; `run`
        # builds one shadow, and the network's buffers are set by run's
        # set-up and by the restore at each stage change and at the end
        ckpt, built, init = reference_ckpt("fc", 0), [], qat.ShadowParams.__init__
        set_buffers, buffer_sets = Network.set_buffers, []

        def counting_init(shadow, *args):
            built.append(shadow)
            init(shadow, *args)

        def counting_set_buffers(net, values):
            buffer_sets.append(net)
            set_buffers(net, values)

        monkeypatch.setattr(qat.ShadowParams, "__init__", counting_init)
        monkeypatch.setattr(Network, "set_buffers", counting_set_buffers)
        task = ScriptedDevTask([5.0, 4.0, 3.0, 2.0])
        shadow, _ = qat.run(retrain_cfg(schedule, max_epochs=4), ckpt, task)
        assert built == [shadow]
        assert len(buffer_sets) == restores
        assert_same_params(task.seen["test"][0], task.seen["dev"][3])


# -- whole runs against the reference -------------------------------------------

# (schedule, bits, max_epochs): the float baseline and every form of
# qat.SCHEDULE_FORMS, gradual with each inner form
REFERENCE_FORMS = [("float", 2, 3), ("direct", 2, 3), ("conventional", 2, 3),
                   ("exhaustive", 2, 3), ("adaptive", 2, 3), ("adaptive", 2, 0),
                   ("adaptive_fix2", 3, 3), ("gradual:4-2:2", 2, 5),
                   ("gradual:4-2:1:conventional", 2, 3), ("gradual:3-2:2:adaptive_fix1", 2, 4)]
# (..., dev script, floor): the best epoch is never the last.  The floor stops
# the floor cases after epoch 3, but not the gradual one, which floors in its
# first stage; its stages' best epochs are 1 and 5.
REFERENCE_SCRIPTS = [("adaptive", 2, 4, [5, 1, 3, 4], False),
                     ("adaptive_fix2", 2, 6, [5, 1, 3, 4, 2, 6], True),
                     ("gradual:3-2:4", 2, 7, [5, 1, 3, 4, 3, 1, 2], True),
                     ("float", 2, 4, [5, 1, 3, 4], False),
                     ("float", 2, 6, [5, 1, 3, 4, 2, 6], True)]


REFERENCE_CASES = (
    [(net, seed, *form, None, False) for net in REFERENCE_NETWORKS for seed in (0, 1)
     for form in REFERENCE_FORMS]
    + [(net, 0, *script) for net in REFERENCE_NETWORKS for script in REFERENCE_SCRIPTS])


@pytest.mark.parametrize(
    "net, seed, schedule, bits, max_epochs, dev_script, floor", REFERENCE_CASES,
    ids=["-".join(map(str, c[:5])) + "-scripted" * bool(c[5]) + "-floor" * c[6]
         for c in REFERENCE_CASES])
def test_run_matches_reference(monkeypatch, net, seed, schedule, bits, max_epochs,
                               dev_script, floor):
    # every record field, the final master, quantized view, specs and
    # buffers, and what each evaluation saw, bit for bit
    ecfg = reference_config(net, seed, max_epochs, floor)
    cfg = qat.RetrainConfig(schedule=schedule.replace("float", "conventional"), bits=bits,
                            max_epochs=max_epochs, seed=seed,
                            optimizer=ecfg.float_training["optimizer"])
    task, ref_task = (ScriptedDevTask(dev_script, harness.make_task(ecfg, seed))
                      for _ in range(2))
    if schedule == "float":
        monkeypatch.setattr(harness, "make_task", lambda cfg, seed: task)
        ckpt, record = train_float(ecfg, seed)
        final, ref = run_reference(cfg, ckpt, ref_task, f"float_s{seed}", float_baseline=True)
        assert ckpt.layer_cfgs == ecfg.network
        got = ckpt.params, ckpt.params, {}, ckpt.buffers
    else:  # the buffers `run` leaves are those its test evaluation saw
        shadow, record = qat.run(cfg, reference_ckpt(net, seed), task, "cell")
        final, ref = run_reference(cfg, reference_ckpt(net, seed), ref_task, "cell")
        got = (shadow.master, shadow.quantized,
               {gid: (s.bits, s.step) for gid, s in shadow.specs.items()})
    assert record.to_dict() == ref.to_dict()
    assert task.metrics == ref_task.metrics
    for have, want in zip(got, final):
        assert_same_params(have, want)
    for split in ("dev", "test"):
        for have, want in zip(task.seen[split], ref_task.seen[split]):
            assert_same_params(have, want)


def test_reference_runs_without_the_code_it_checks(monkeypatch):
    ckpts = {net: reference_ckpt(net, 0) for net in ("cnn", "lstm")}

    def refuse(*args, **kwargs):
        raise AssertionError("the reference called the code it checks")

    for owner, names in ((qat, ("ShadowParams", "fit", "retrain_epoch", "init_quantization")),
                         (Network, ("bind_params", "set_params", "get_params", "get_grads",
                                    "zero_grads", "reset_state"))):
        for name in names:
            monkeypatch.setattr(owner, name, refuse)
    for net, schedule, float_baseline in (
            ("cnn", "exhaustive", False), ("cnn", "conventional", True),
            ("cnn", "gradual:3-2:1", False), ("lstm", "adaptive", False)):
        _, record = run_reference(qat.RetrainConfig(schedule=schedule, max_epochs=2), ckpts[net],
                                  harness.make_task(reference_config(net, 0), 0),
                                  float_baseline=float_baseline)
        assert [r.epoch for r in record.rows if r.split == "dev"] == [0, 1]


# -- one set of parameter arrays ------------------------------------------------

def assert_bound(net, arrays):
    """The network's layers hold `arrays` themselves."""
    held = net.param_arrays()
    assert held.keys() == arrays.keys()
    for k, v in arrays.items():
        assert held[k] is v, k


WIDE_FC = [{"kind": "fc", "in": 32, "out": 256}, {"kind": "activation", "fn": "relu"},
           {"kind": "fc", "in": 256, "out": 256}, {"kind": "activation", "fn": "relu"},
           {"kind": "fc", "in": 256, "out": 10}, {"kind": "softmax"}]


class TestBinding:
    @pytest.mark.parametrize("schedule", ["adaptive", "gradual:3-2:2", "exhaustive"])
    def test_network_computes_on_the_shadow_arrays(self, monkeypatch, schedule):
        # one shadow for the whole run, a gradual stage change included: the
        # network holds its quantized view at every epoch and at the test
        ckpt, task = reference_ckpt("fc", 0), toy_task()
        epochs, fits, tested = [], [], []  # each epoch's shadow; fit's (net, shadow)
        retrain_epoch, fit, evaluate = qat.retrain_epoch, qat.fit, task.evaluate

        def checking_epoch(shadow, net, *args, **kwargs):
            assert_bound(net, shadow.quantized)
            epochs.append(shadow)
            return retrain_epoch(shadow, net, *args, **kwargs)

        def checking_fit(cfg, net, shadow, *args):
            assert_bound(net, shadow.quantized)  # run's set-up
            fits.append((net, shadow))
            return fit(cfg, net, shadow, *args)

        def evaluating(net, split):
            if split == "test":
                tested.append(net.param_arrays())
            return evaluate(net, split)

        monkeypatch.setattr(qat, "retrain_epoch", checking_epoch)
        monkeypatch.setattr(qat, "fit", checking_fit)
        task.evaluate = evaluating
        final, _ = qat.run(retrain_cfg(schedule, max_epochs=4), ckpt, task)
        assert len(epochs) == 4 and all(s is final for s in epochs)
        (net, shadow), = fits
        assert shadow is final
        held, = tested
        assert held.keys() == final.quantized.keys()
        assert all(held[k] is v for k, v in final.quantized.items())
        assert_bound(net, final.quantized)
        # ungrouped keys are the master's arrays, grouped ones their own
        grouped = {k for keys in final.groups.values() for k in keys}
        for k, v in final.quantized.items():
            assert (v is final.master[k]) == (k not in grouped), k

    def test_run_leaves_the_checkpoint_as_it_was(self):
        ckpt = reference_ckpt("fc", 0)
        before = {k: v.copy() for k, v in ckpt.params.items()}
        for schedule in ("adaptive", "gradual:3-2:1"):
            shadow, _ = qat.run(retrain_cfg(schedule, max_epochs=3), ckpt, toy_task())
            assert not any(shadow.master[k] is v for k, v in ckpt.params.items())
        assert ckpt.params.keys() == before.keys()
        for k in before:
            assert_bits_equal(ckpt.params[k], before[k])

    def test_float_baseline_trains_the_network_arrays(self, monkeypatch):
        fit, seen = qat.fit, []

        def checking_fit(cfg, net, shadow, *args):
            assert_bound(net, shadow.master)
            seen.append(shadow)
            return fit(cfg, net, shadow, *args)

        monkeypatch.setattr(qat, "fit", checking_fit)
        train_float(reference_config("fc", 0), 0)
        assert len(seen) == 1 and not seen[0].groups

    @pytest.mark.parametrize("schedule, stages", [("adaptive", 1), ("gradual:3-2:2", 2)])
    def test_best_snapshot_is_written_into_its_arrays(self, monkeypatch, schedule, stages):
        # dev improves every epoch: each improvement is one np.copyto of the
        # master vector into one vector kept for the run, and each stage
        # change and the end copy that vector back into the master
        ckpt, epochs, copies = reference_ckpt("fc", 0), [], []  # copies: (kind, vector)
        retrain_epoch, copyto = qat.retrain_epoch, np.copyto

        def starting(shadow, *args, **kwargs):
            epochs.append(shadow)
            return retrain_epoch(shadow, *args, **kwargs)

        def recording(dst, src, *args, **kwargs):
            if epochs and src is epochs[0].master_vector:
                copies.append(("snapshot", dst))
            elif epochs and dst is epochs[0].master_vector:
                copies.append(("restore", src))
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(qat, "retrain_epoch", starting)
        monkeypatch.setattr(np, "copyto", recording)
        task = ScriptedDevTask([5.0, 4.0, 3.0, 2.0])
        shadow, _ = qat.run(retrain_cfg(schedule, max_epochs=4), ckpt, task)
        assert all(s is shadow for s in epochs)
        per_stage = 4 // stages
        assert [kind for kind, _ in copies] == (["snapshot"] * per_stage + ["restore"]) * stages
        assert all(vector is copies[0][1] for _, vector in copies)
        assert copies[0][1] is not shadow.master_vector

    def test_wide_fc_retraining_batch_allocates_no_weight_sized_array(self):
        # wide-fc's network, 76,874 parameters (600 KB); fc2's weight matrix
        # alone is 512 KB.  Eight rows keep the batch's activations at 16 KB
        # an array, so the bound is met only if no weight-sized array is
        # allocated beside the optimizer's one temporary: a weight-gradient
        # temporary, a copy into the network or a gathered group for the
        # solver
        net = build_network(WIDE_FC, np.random.default_rng(0))
        shadow = qat.init_quantization(net.param_arrays(), net.quant_group_map(), 4)
        net.bind_params(shadow.quantized, shadow.grads)
        opt = make_optimizer(OptimizerConfig(
            learning_rate=0.002, lr_schedule={"initial_lr": 0.002, "final_lr": 1e-5}))
        rng = np.random.default_rng(1)
        batch = [(rng.normal(size=(8, 32)), rng.integers(0, 10, size=8))]
        tracemalloc.start()
        try:
            qat.retrain_epoch(shadow, net, batch, opt, 0.002, False)  # the warm-up
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            qat.retrain_epoch(shadow, net, batch, opt, 0.002, False)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        bound = shadow.master_vector.nbytes + 256 * 1024
        assert peak < bound, f"{peak / 1024:.0f} KB, bound {bound / 1024:.0f} KB"


# -- the layout ------------------------------------------------------------------

LSTM_NET = [{"kind": "lstm", "in": 5, "hidden": 4}, {"kind": "fc", "in": 4, "out": 3},
            {"kind": "batchnorm", "features": 3}, {"kind": "softmax"}]


def offset(view, vector):
    """Where `view` starts in `vector`, in entries."""
    return (view.ctypes.data - vector.ctypes.data) // vector.itemsize


class TestLayout:
    def test_one_vector_per_role_laid_out_group_by_group(self):
        net = build_network(LSTM_NET, np.random.default_rng(0))
        params, groups = net.get_params(), net.quant_group_map()
        assert groups == {"lstm0": ["lstm0.Wx", "lstm0.Wh"], "fc1": ["fc1.W"]}
        shadow = qat.init_quantization(params, groups, 3)
        grouped = ["lstm0.Wx", "lstm0.Wh", "fc1.W"]
        ungrouped = ["lstm0.b", "fc1.b", "batchnorm2.beta", "batchnorm2.gamma"]
        assert list(shadow.master) == list(shadow.grads) == grouped + ungrouped
        assert shadow.master_vector.size == shadow.grad_vector.size == sum(
            v.size for v in params.values())
        assert shadow.quantized_vector.size == sum(params[k].size for k in grouped)
        at = 0
        for k in grouped + ungrouped:
            for role, vector in (("master", shadow.master_vector),
                                 ("grads", shadow.grad_vector)):
                view = getattr(shadow, role)[k]
                assert np.shares_memory(view, vector) and offset(view, vector) == at, (role, k)
            q = shadow.quantized[k]
            if k in grouped:
                assert np.shares_memory(q, shadow.quantized_vector), k
                assert offset(q, shadow.quantized_vector) == at, k
            else:
                assert q is shadow.master[k], k
            assert_bits_equal(shadow.master[k], params[k])
            at += params[k].size
        for gid, keys in groups.items():
            spec = shadow.specs[gid]
            for k in keys:
                assert_bits_equal(shadow.quantized[k], quantize(params[k], spec))

    def test_init_quantization_gathers_no_group(self, monkeypatch):
        # an LSTM group is two keys, 256 KB together; the solver reads them as
        # one slice of the master vector, with no concatenated copy beside it
        net = build_network([{"kind": "lstm", "in": 64, "hidden": 64}],
                            np.random.default_rng(0))
        params, groups = net.get_params(), net.quant_group_map()
        group_bytes = sum(params[k].nbytes for k in groups["lstm0"])
        real, seen = qat.optimize_step, []

        def solving(group, m):
            seen.append((group.values, tracemalloc.get_traced_memory()[0]))
            return real(group, m)

        monkeypatch.setattr(qat, "optimize_step", solving)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            shadow = qat.init_quantization(params, groups, 4)
        finally:
            tracemalloc.stop()
        (values, held), = seen
        assert np.shares_memory(values, shadow.master_vector)
        # on entering the solver: the master vector, and nothing group-sized more
        assert held - before < shadow.master_vector.nbytes + group_bytes // 2, held - before

    def test_best_view_allocates_no_second_gradient_vector(self, monkeypatch):
        # dev improves every epoch, and the best view is restored into the
        # shadow `run` built and bound: the test evaluation reads its
        # quantized vector and writes its gradient vector
        cfgs = [{"kind": "fc", "in": 6, "out": 256}, {"kind": "activation", "fn": "relu"},
                {"kind": "fc", "in": 256, "out": 3}, {"kind": "softmax"}]
        net = build_network(cfgs, np.random.default_rng(0))
        ckpt = Checkpoint(layer_cfgs=cfgs, params=net.get_params())
        init, built, tested = qat.ShadowParams.__init__, [], []

        def counting_init(shadow, *args):
            built.append(shadow)
            init(shadow, *args)

        monkeypatch.setattr(qat.ShadowParams, "__init__", counting_init)
        task = ScriptedDevTask([5.0, 4.0, 3.0, 2.0])
        evaluate = task.evaluate

        def evaluating(net, split):
            if split == "test":
                tested.append((net.param_arrays(), net.get_grads()))
            return evaluate(net, split)

        task.evaluate = evaluating
        shadow, _ = qat.run(retrain_cfg("adaptive", max_epochs=4), ckpt, task)
        assert built == [shadow]
        (params, grads), = tested
        grouped = [k for keys in shadow.groups.values() for k in keys]
        for k in grouped:
            assert np.shares_memory(params[k], shadow.quantized_vector), k
        for k, g in grads.items():
            assert g is shadow.grads[k] and np.shares_memory(g, shadow.grad_vector), k
