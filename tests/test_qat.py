import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qatkit import harness, qat
from qatkit.data import synthetic_clusters
from qatkit.harness import ClassificationTask, train_float, ExperimentConfig
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
    QuantizerSpec,
    WeightGroup,
    optimize_step,
    quantize,
)

from oracles import assert_bits_equal, assert_on_grid, group_vector, quantize_array


MLP = [
    {"kind": "fc", "in": 6, "out": 8, "name": "fc_in"},
    {"kind": "activation", "fn": "relu"},
    {"kind": "fc", "in": 8, "out": 3, "name": "fc_out"},
    {"kind": "softmax"},
]


BN_MLP = [MLP[0], {"kind": "batchnorm", "features": 8}, *MLP[1:]]


def toy_task(seed=0):
    splits = synthetic_clusters(n_samples=300, classes=3, dim=6, seed=5, spread=0.6)
    return ClassificationTask(splits, batch_size=32, seed=seed)


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

    @pytest.mark.parametrize("field, value", [
        ("stop_at_lr_floor", "false"),
        ("max_epochs", -3), ("max_epochs", True), ("max_epochs", 2.0),
        ("bits", 3.0), ("bits", "3"), ("bits", True), ("bits", 1),
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
        cfg = TestRun().retrain_cfg("conventional", max_epochs=3)
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
            qat.run(TestRun().retrain_cfg("conventional"), toy_float_ckpt(), task,
                    run_id="b2_s0")

    def test_per_batch_steps_allocate_no_weight_sized_arrays(self):
        # wide-fc shapes, 76,874 parameters; with fresh arrays these steps
        # allocated 513, 512, 1 and 1,024 KB a batch
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
        assert max(peaks.values()) < 16 * 1024, peaks


class TestRetrainEpoch:
    def _setup(self, seed=0):
        task = toy_task(seed)
        net = build_network(MLP, np.random.default_rng(seed))
        master = net.get_params()
        shadow = qat.init_quantization(master, net.quant_group_map(), 2)
        net.bind_params(shadow.quantized, shadow.grads)
        return task, net, shadow

    def test_zero_lr_leaves_shadow_unchanged(self):
        task, net, shadow = self._setup()
        before_master = {k: v.copy() for k, v in shadow.master.items()}
        before_q = {k: v.copy() for k, v in shadow.quantized.items()}
        opt = make_optimizer(OptimizerConfig(kind="sgd_nesterov"))
        qat.retrain_epoch(shadow, net, task.batches("train", 0), opt, 0.0, False)
        for k in before_master:
            np.testing.assert_array_equal(shadow.master[k], before_master[k])
            np.testing.assert_array_equal(shadow.quantized[k], before_q[k])

    def test_freeze_keeps_specs(self):
        task, net, shadow = self._setup()
        before = dict(shadow.specs)
        opt = make_optimizer(OptimizerConfig())
        qat.retrain_epoch(shadow, net, task.batches("train", 0), opt, 0.01, False)
        assert shadow.specs == before

    def test_update_step_matches_independent_solver(self):
        task, net, shadow = self._setup()
        opt = make_optimizer(OptimizerConfig())
        qat.retrain_epoch(shadow, net, task.batches("train", 0), opt, 0.01, True)
        for gid in shadow.groups:
            step, _ = optimize_step(
                WeightGroup(group_vector(shadow, gid), gid), shadow.specs[gid].points
            )
            assert shadow.specs[gid].step == pytest.approx(step, rel=1e-8)
            for k in shadow.groups[gid]:
                np.testing.assert_allclose(
                    shadow.quantized[k],
                    quantize(shadow.master[k], shadow.specs[gid]), atol=0,
                )

    def test_master_never_on_grid_by_construction(self):
        # master receives float updates; quantized is always derived
        task, net, shadow = self._setup()
        opt = make_optimizer(OptimizerConfig())
        qat.retrain_epoch(shadow, net, task.batches("train", 0), opt, 0.01, False)
        gid = next(iter(shadow.groups))
        k = shadow.groups[gid][0]
        mult = shadow.master[k] / shadow.specs[gid].step
        assert not np.allclose(mult, np.round(mult))


# -- full runs ---------------------------------------------------------------

def _float_ckpt_for_toy(seed=0):
    cfg = ExperimentConfig(
        task="classification-vector",
        dataset={"kind": "clusters", "n_samples": 300, "classes": 3, "dim": 6,
                 "seed": 5, "spread": 0.6},
        network=MLP,
        float_training={"max_epochs": 15, "batch_size": 32,
                        "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.05,
                                      "lr_schedule": {"initial_lr": 0.05, "final_lr": 1e-4,
                                                      "decay_factor": 2.0, "patience_evals": 3}}},
        seeds=[seed],
    )
    ckpt, _ = train_float(cfg, seed)
    return ckpt


class TestRun:
    def retrain_cfg(self, schedule, bits=2, max_epochs=4, seed=0):
        return qat.RetrainConfig(
            schedule=schedule, bits=bits, seed=seed, max_epochs=max_epochs,
            optimizer=OptimizerConfig(
                kind="sgd_nesterov", learning_rate=0.02,
                lr_schedule={"initial_lr": 0.02, "final_lr": 1e-5,
                             "decay_factor": 2.0, "patience_evals": 4},
            ),
        )

    def test_direct_runs_zero_epochs(self):
        ckpt = _float_ckpt_for_toy()
        task = toy_task()
        shadow, record = qat.run(self.retrain_cfg("direct"), ckpt, task)
        assert all(r.split != "train" for r in record.rows)
        assert record.final_test_metric is not None
        # direct metric equals evaluating the quantized checkpoint independently
        net = build_network(MLP, np.random.default_rng(0))
        net.set_params(ckpt.params)
        master = net.get_params()
        indep = qat.init_quantization(master, net.quant_group_map(), 2)
        net.set_params(indep.quantized)
        assert record.final_test_metric == pytest.approx(task.evaluate(net, "test"))

    def test_max_epochs_zero_equals_direct(self):
        ckpt = _float_ckpt_for_toy()
        task = toy_task()
        _, direct = qat.run(self.retrain_cfg("direct"), ckpt, task)
        _, zero = qat.run(self.retrain_cfg("adaptive", max_epochs=0), ckpt, task)
        assert zero.final_test_metric == pytest.approx(direct.final_test_metric)

    def test_exhaustive_init_picks_a_candidate_step(self):
        ckpt = _float_ckpt_for_toy()
        task = toy_task()
        net = build_network(MLP, np.random.default_rng(0))
        net.set_params(ckpt.params)
        init = qat.init_quantization(net.get_params(), net.quant_group_map(), 2)
        shadow, _ = qat.run(self.retrain_cfg("exhaustive"), ckpt, task)
        for gid, keys in shadow.groups.items():
            d0 = init.specs[gid].step
            candidates = np.geomspace(d0 / 2, 2 * d0, qat.EXHAUSTIVE_CANDIDATES)
            assert shadow.specs[gid].step in candidates, gid
            for k in keys:
                assert_on_grid(shadow.quantized[k], shadow.specs[gid].step,
                               shadow.specs[gid].points)

    def test_conventional_specs_constant(self):
        ckpt = _float_ckpt_for_toy()
        _, record = qat.run(self.retrain_cfg("conventional"), ckpt, toy_task())
        by_group = {}
        for d in record.deltas:
            by_group.setdefault(d.group_id, set()).add(d.delta)
        for gid, deltas in by_group.items():
            assert len(deltas) == 1, gid

    def test_adaptive_fix1_changes_only_first_epoch(self):
        ckpt = _float_ckpt_for_toy()
        _, record = qat.run(self.retrain_cfg("adaptive_fix1"), ckpt, toy_task())
        epochs = sorted({d.epoch for d in record.deltas})
        by_group_epoch = {(d.group_id, d.epoch): d.delta for d in record.deltas}
        groups = {d.group_id for d in record.deltas}
        for g in groups:
            later = [by_group_epoch[(g, e)] for e in epochs]
            assert len(set(later[0:])) <= 2  # epoch-0 update, then frozen
            assert len(set(later[1:])) == 1

    def test_adaptive_consistency_with_saved_master(self):
        # dev best at epoch 1: the returned shadow holds that epoch's master
        # and steps, which differ from the last epoch's
        ckpt = _float_ckpt_for_toy()
        task = ScriptedDevTask([5.0, 1.0, 3.0])
        shadow, record = qat.run(self.retrain_cfg("adaptive", max_epochs=3), ckpt, task)
        logged = {(d.epoch, d.group_id): d.delta for d in record.deltas}
        for gid in shadow.groups:
            step, _ = optimize_step(
                WeightGroup(group_vector(shadow, gid), gid), shadow.specs[gid].points
            )
            assert shadow.specs[gid].step == step == logged[1, gid], gid
            assert logged[2, gid] != step, gid

    def test_gradual_drops_one_bit_per_stage(self):
        ckpt = _float_ckpt_for_toy()
        cfg = self.retrain_cfg("gradual:4-2:2", max_epochs=6)
        shadow, record = qat.run(cfg, ckpt, toy_task())
        assert [e for e in record.events if e.startswith("drop-bit")] == [
            "drop-bit:2:3", "drop-bit:4:2",
        ]
        assert all(s.bits == 2 for s in shadow.specs.values())

    @pytest.mark.parametrize("schedule", [
        "direct", "conventional", "adaptive", "adaptive_fix2", "gradual:4-2:1",
    ])
    def test_quantized_weights_on_grid(self, schedule):
        ckpt = _float_ckpt_for_toy()
        shadow, _ = qat.run(self.retrain_cfg(schedule, max_epochs=4), ckpt, toy_task())
        assert shadow.groups
        for gid, keys in shadow.groups.items():
            for k in keys:
                assert_on_grid(shadow.quantized[k], shadow.specs[gid].step,
                               shadow.specs[gid].points)

    def test_seed_reproducibility(self):
        ckpt = _float_ckpt_for_toy()
        cfg = self.retrain_cfg("adaptive", max_epochs=2)
        _, a = qat.run(cfg, ckpt, toy_task())
        _, b = qat.run(cfg, ckpt, toy_task())
        assert a.to_dict() == b.to_dict()

    def test_delta_rows_positive_and_contiguous(self):
        ckpt = _float_ckpt_for_toy()
        _, record = qat.run(self.retrain_cfg("adaptive", max_epochs=3), ckpt, toy_task())
        epochs = sorted({d.epoch for d in record.deltas})
        assert epochs == list(range(len(epochs)))
        assert all(d.delta > 0 for d in record.deltas)


class ScriptedDevTask:
    """`toy_task`'s batches, with the dev metric of the e-th dev evaluation
    taken from `dev_script`; remembers the parameters and buffers each
    evaluation saw."""

    metric_name = "error"

    def __init__(self, dev_script):
        self.inner = toy_task()
        self.dev_script = dev_script
        self.seen = {"dev": [], "test": []}
        self.seen_buffers = {"dev": [], "test": []}

    def batches(self, split, epoch):
        return self.inner.batches(split, epoch)

    def evaluate(self, net, split):
        self.seen[split].append(net.get_params())
        self.seen_buffers[split].append(net.get_buffers())
        return self.dev_script[len(self.seen["dev"]) - 1] if split == "dev" else 0.0


def assert_same_params(got, want):
    assert got.keys() == want.keys()
    for k in want:
        np.testing.assert_array_equal(got[k], want[k], err_msg=k)


def params_differ(a, b):
    return any(not np.array_equal(a[k], b[k]) for k in a)


class TestBestOnDev:
    """Dev metrics [5, 1, 3, 4]: epoch 1 is best, and later epochs move the weights."""

    def test_final_test_eval_sees_best_epoch_quantized_weights(self):
        task = ScriptedDevTask([5.0, 1.0, 3.0, 4.0])
        cfg = TestRun().retrain_cfg("adaptive", max_epochs=4)
        qat.run(cfg, _float_ckpt_for_toy(), task)
        assert len(task.seen["dev"]) == 4 and len(task.seen["test"]) == 1
        assert_same_params(task.seen["test"][0], task.seen["dev"][1])
        assert params_differ(task.seen["test"][0], task.seen["dev"][3])

    @pytest.mark.parametrize("schedule, restores", [("adaptive", 2), ("gradual:3-2:2", 3)])
    def test_best_is_quantized_once_per_stage(self, monkeypatch, schedule, restores):
        # dev improves every epoch, so every epoch takes a snapshot; `run`
        # builds one shadow, and the network's buffers are set by run's
        # set-up and by the restore at each stage change and at the end
        ckpt, built, init = _float_ckpt_for_toy(), [], qat.ShadowParams.__init__
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
        shadow, _ = qat.run(TestRun().retrain_cfg(schedule, max_epochs=4), ckpt, task)
        assert built == [shadow]
        assert len(buffer_sets) == restores
        assert_same_params(task.seen["test"][0], task.seen["dev"][3])

    def test_final_test_eval_sees_best_epoch_buffers(self):
        task = ScriptedDevTask([5.0, 1.0, 3.0, 4.0])
        net = build_network(BN_MLP, np.random.default_rng(0))
        ckpt = Checkpoint(layer_cfgs=BN_MLP, params=net.get_params(), buffers=net.get_buffers())
        qat.run(TestRun().retrain_cfg("adaptive", max_epochs=4), ckpt, task)
        dev, test = task.seen_buffers["dev"], task.seen_buffers["test"]
        assert_same_params(test[0], dev[1])
        assert params_differ(test[0], dev[3])

    def test_float_checkpoint_holds_best_epoch_master(self, monkeypatch):
        task = ScriptedDevTask([5.0, 1.0, 3.0, 4.0])
        monkeypatch.setattr(harness, "make_task", lambda cfg, seed: task)
        cfg = ExperimentConfig(
            task="classification-vector",
            dataset={"kind": "clusters", "n_samples": 300, "classes": 3, "dim": 6,
                     "seed": 5, "spread": 0.6},
            network=MLP,
            float_training={"max_epochs": 4, "optimizer": {
                "learning_rate": 0.05, "lr_schedule": {"initial_lr": 0.05}}},
        )
        ckpt, _ = train_float(cfg, 0)
        # a float network has no quantized view: dev evaluates the master
        assert_same_params(ckpt.params, task.seen["dev"][1])
        assert_same_params(task.seen["test"][0], task.seen["dev"][1])
        assert params_differ(ckpt.params, task.seen["dev"][3])

    def test_float_checkpoint_holds_best_epoch_buffers(self, monkeypatch):
        task = ScriptedDevTask([5.0, 1.0, 3.0, 4.0])
        monkeypatch.setattr(harness, "make_task", lambda cfg, seed: task)
        cfg = ExperimentConfig(
            task="classification-vector",
            dataset={"kind": "clusters", "n_samples": 300, "classes": 3, "dim": 6,
                     "seed": 5, "spread": 0.6},
            network=BN_MLP,
            float_training={"max_epochs": 4, "optimizer": {
                "learning_rate": 0.05, "lr_schedule": {"initial_lr": 0.05}}},
        )
        ckpt, _ = train_float(cfg, 0)
        dev = task.seen_buffers["dev"]
        assert_same_params(ckpt.buffers, dev[1])
        assert_same_params(task.seen_buffers["test"][0], dev[1])
        assert params_differ(ckpt.buffers, dev[3])

    def test_next_gradual_stage_starts_from_stage_best_master(self, monkeypatch):
        task, ckpt = ScriptedDevTask([5.0, 1.0, 3.0, 4.0, 2.0]), _float_ckpt_for_toy()
        masters = []  # (master before, master after) each epoch's training
        retrain_epoch = qat.retrain_epoch

        def recording(shadow, *args, **kwargs):
            before = {k: v.copy() for k, v in shadow.master.items()}
            loss = retrain_epoch(shadow, *args, **kwargs)
            masters.append((before, {k: v.copy() for k, v in shadow.master.items()}))
            return loss

        monkeypatch.setattr(qat, "retrain_epoch", recording)
        cfg = TestRun().retrain_cfg("gradual:3-2:4", max_epochs=5)
        _, record = qat.run(cfg, ckpt, task)
        assert [e for e in record.events if e.startswith("drop-bit")] == ["drop-bit:4:2"]
        assert len(masters) == 5
        assert_same_params(masters[4][0], masters[1][1])
        assert params_differ(masters[4][0], masters[3][1])
        # the 2-bit stage has one epoch, so it is that stage's best
        assert_same_params(task.seen["test"][0], task.seen["dev"][4])

    def test_next_gradual_stage_starts_from_stage_best_buffers(self, monkeypatch):
        task = ScriptedDevTask([5.0, 1.0, 3.0, 4.0, 2.0])
        net = build_network(BN_MLP, np.random.default_rng(0))
        ckpt = Checkpoint(layer_cfgs=BN_MLP, params=net.get_params(), buffers=net.get_buffers())
        starts = []  # the network's buffers as each epoch's training starts
        retrain_epoch = qat.retrain_epoch

        def recording(shadow, net, *args, **kwargs):
            starts.append(net.get_buffers())
            return retrain_epoch(shadow, net, *args, **kwargs)

        monkeypatch.setattr(qat, "retrain_epoch", recording)
        qat.run(TestRun().retrain_cfg("gradual:3-2:4", max_epochs=5), ckpt, task)
        dev = task.seen_buffers["dev"]
        assert_same_params(starts[4], dev[1])
        assert params_differ(starts[4], dev[3])


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
        ckpt, task = _float_ckpt_for_toy(), toy_task()
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
        final, _ = qat.run(TestRun().retrain_cfg(schedule, max_epochs=4), ckpt, task)
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

    def test_final_shadow_stays_on_its_own_grid(self):
        # dev best at epoch 1: the shadow `run` returns holds that epoch's
        # view, the one the test evaluation saw, on its own grid
        task = ScriptedDevTask([5.0, 1.0, 3.0, 4.0])
        shadow, _ = qat.run(TestRun().retrain_cfg("adaptive", max_epochs=4),
                            _float_ckpt_for_toy(), task)
        assert_same_params(shadow.quantized, task.seen["test"][0])
        assert_same_params(shadow.quantized, task.seen["dev"][1])
        for gid, keys in shadow.groups.items():
            spec = shadow.specs[gid]
            for k in keys:
                assert_on_grid(shadow.quantized[k], spec.step, spec.points)
                assert_bits_equal(shadow.quantized[k], quantize(shadow.master[k], spec))

    def test_run_leaves_the_checkpoint_as_it_was(self):
        ckpt = _float_ckpt_for_toy()
        before = {k: v.copy() for k, v in ckpt.params.items()}
        for schedule in ("adaptive", "gradual:3-2:1"):
            shadow, _ = qat.run(TestRun().retrain_cfg(schedule, max_epochs=3), ckpt, toy_task())
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
        _float_ckpt_for_toy()
        assert len(seen) == 1 and not seen[0].groups

    @pytest.mark.parametrize("schedule, stages", [("adaptive", 1), ("gradual:3-2:2", 2)])
    def test_best_snapshot_is_written_into_its_arrays(self, monkeypatch, schedule, stages):
        # dev improves every epoch: each improvement is one np.copyto of the
        # master vector into one vector kept for the run, and each stage
        # change and the end copy that vector back into the master
        ckpt, epochs, copies = _float_ckpt_for_toy(), [], []  # copies: (kind, vector)
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
        shadow, _ = qat.run(TestRun().retrain_cfg(schedule, max_epochs=4), ckpt, task)
        assert all(s is shadow for s in epochs)
        per_stage = 4 // stages
        assert [kind for kind, _ in copies] == (["snapshot"] * per_stage + ["restore"]) * stages
        assert all(vector is copies[0][1] for _, vector in copies)
        assert copies[0][1] is not shadow.master_vector

    def test_wide_fc_retraining_batch_allocates_no_weight_sized_array(self):
        # wide-fc's network, 76,874 parameters; fc1's weight matrix alone is
        # 512 KB.  Eight rows keep the batch's activations at 16 KB an array,
        # so the bound is met only if no weight-sized array is allocated: a
        # weight-gradient temporary, a copy into the network or a gathered
        # group for the solver
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
        assert peak < 256 * 1024, f"{peak / 1024:.0f} KB"


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
        shadow, _ = qat.run(TestRun().retrain_cfg("adaptive", max_epochs=4), ckpt, task)
        assert built == [shadow]
        (params, grads), = tested
        grouped = [k for keys in shadow.groups.values() for k in keys]
        for k in grouped:
            assert np.shares_memory(params[k], shadow.quantized_vector), k
        for k, g in grads.items():
            assert g is shadow.grads[k] and np.shares_memory(g, shadow.grad_vector), k
