"""Acceptance gate: ten end-to-end checks run against released behavior.

Each test prints a single [PASS]/[FAIL] line with the measured numbers so the
gate can be audited from the test log alone.  The math core is checked against
independent oracles (straight-line scalar rounding, dense grid search, central
finite differences); the training claims are checked as ordering/property
statements on small seeded tasks, averaged over several seeds.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from qatkit import harness, qat
from qatkit.harness import ExperimentConfig
from qatkit.nn import build_network, cross_entropy
from qatkit.quantizer import QuantizerSpec, WeightGroup, optimize_step, quantize

from oracles import (finite_difference_grads, grid_search_mse, group_vector, relative_error,
                     scalar_quantize, squared_error)


def _verdict(num, title, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {title}: {detail}"
    print(line)
    assert ok, line


# -- shared desk-scale feed-forward task --------------------------------------

def _ffdnn_config():
    return ExperimentConfig(
        task="classification-vector",
        dataset={"kind": "clusters", "n_samples": 4000, "classes": 10, "dim": 16,
                 "seed": 77, "spread": 1.0, "fractions": (0.5, 0.2, 0.3)},
        network=[
            {"kind": "fc", "in": 16, "out": 32},
            {"kind": "activation", "fn": "relu"},
            {"kind": "fc", "in": 32, "out": 10},
            {"kind": "softmax"},
        ],
        float_training={"max_epochs": 40, "batch_size": 32,
                        "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.1,
                                      "momentum": 0.9,
                                      "lr_schedule": {"initial_lr": 0.1, "final_lr": 1e-3,
                                                      "decay_factor": 2.0,
                                                      "patience_evals": 4}}},
        retrain={"max_epochs": 30,
                 "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.005,
                               "momentum": 0.9,
                               "lr_schedule": {"initial_lr": 0.005, "final_lr": 0.005 / 512,
                                               "decay_factor": 2.0, "patience_evals": 2}}},
        seeds=[0],
    )


@pytest.fixture(scope="module")
def ffdnn():
    cfg = _ffdnn_config()
    seeds = list(range(7))
    ckpts, float_metrics = {}, []
    for s in seeds:
        ckpt, rec = harness.train_float(cfg, seed=s)
        ckpts[s] = ckpt
        float_metrics.append(rec.final_test_metric)
    cache = {}

    def mean_for(schedule, bits):
        key = (schedule, bits)
        if key not in cache:
            vals = []
            for s in seeds:
                task = harness.make_task(cfg, s)
                rc = harness.make_retrain_config(cfg, {"schedule": schedule, "bits": bits}, s)
                _, rec = qat.run(rc, ckpts[s], task)
                vals.append(rec.final_test_metric)
            cache[key] = float(np.mean(vals))
        return cache[key]

    return SimpleNamespace(cfg=cfg, seeds=seeds, ckpts=ckpts,
                           float_mean=float(np.mean(float_metrics)), mean_for=mean_for)


@pytest.fixture(scope="module")
def sweep_pair(tmp_path_factory):
    """Two identical small sweeps (adaptive 2-bit, two seeds) in fresh dirs."""
    cfg = ExperimentConfig(
        task="classification-vector",
        dataset={"kind": "clusters", "n_samples": 400, "classes": 2, "dim": 4,
                 "seed": 11, "spread": 0.25},
        network=[
            {"kind": "fc", "in": 4, "out": 8},
            {"kind": "activation", "fn": "relu"},
            {"kind": "fc", "in": 8, "out": 2},
            {"kind": "softmax"},
        ],
        float_training={"max_epochs": 20, "batch_size": 32,
                        "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.1,
                                      "momentum": 0.9,
                                      "lr_schedule": {"initial_lr": 0.1, "final_lr": 1e-4,
                                                      "decay_factor": 2.0,
                                                      "patience_evals": 3}}},
        retrain={"max_epochs": 4,
                 "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.05,
                               "lr_schedule": {"initial_lr": 0.05, "final_lr": 1e-4,
                                               "decay_factor": 2.0, "patience_evals": 4}}},
        cells=[{"bits": 2, "schedule": "adaptive"}],
        seeds=[0, 1],
    )
    dirs = []
    for name in ("a", "b"):
        d = tmp_path_factory.mktemp(f"sweep_{name}")
        harness.sweep(cfg, d)
        harness.report(d)
        dirs.append(d)
    return dirs


# -- 1. quantizer bit-exactness ------------------------------------------------

def test_01_quantizer_bit_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    mismatches, checked = 0, 0
    for bits, points in [(2, 3), (3, 7), (4, 15), (6, 63)]:
        w = rng.normal(scale=3.0, size=250_000)
        step = float(rng.uniform(0.01, 1.0))
        spec = QuantizerSpec.from_bits(bits, step)
        got = quantize(w, spec)
        want = np.array([scalar_quantize(float(x), step, points) for x in w])
        mismatches += int(np.count_nonzero(got != want))
        checked += w.size
    elapsed = time.perf_counter() - t0
    _verdict(1, "quantizer bit-exactness",
             mismatches == 0 and elapsed < 5.0,
             f"{checked} values, M in {{3,7,15,63}}, {mismatches} mismatches, {elapsed:.2f}s (< 5s)")


# -- 2. step-solver optimality ---------------------------------------------------

def test_02_step_solver_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    sizes = np.unique(np.geomspace(10, 10_000, 200).astype(int))
    dists = ["gaussian", "laplacian", "bimodal"]
    points_cycle = [3, 7, 15, 63]
    worst_ratio, n_groups = 0.0, 0
    i = 0
    while n_groups < 200:
        size = int(sizes[i % len(sizes)])
        dist = dists[i % 3]
        points = points_cycle[i % 4]
        i += 1
        if dist == "gaussian":
            w = rng.normal(scale=rng.uniform(0.1, 3.0), size=size)
        elif dist == "laplacian":
            w = rng.laplace(scale=rng.uniform(0.1, 3.0), size=size)
        else:
            sign = rng.choice([-1.0, 1.0], size=size)
            w = sign * rng.normal(loc=1.0, scale=0.3, size=size)
        if np.all(w == 0):
            continue
        _, mse = optimize_step(WeightGroup(w, f"g{i}"), points)
        hi = 2.0 * float(np.abs(w).max())
        candidates = np.geomspace(hi * 1e-4, hi, 100_000)
        _, grid_mse = grid_search_mse(w, points, candidates)
        worst_ratio = max(worst_ratio, mse / grid_mse if grid_mse > 0 else 1.0)
        n_groups += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, "step-solver optimality",
             worst_ratio <= 1.0 + 1e-6 and elapsed < 120.0,
             f"{n_groups} groups, worst solver/grid MSE ratio {worst_ratio:.9f} "
             f"(<= 1+1e-6), {elapsed:.1f}s (< 2min)")


# -- 3. gradient correctness ---------------------------------------------------

def _grad_error(layer_cfgs, x, target_shape=None, labels=None, seed=0):
    net = build_network(layer_cfgs, np.random.default_rng(seed))
    if labels is not None:
        def scalar_loss():
            net.reset_state()
            return cross_entropy(net.forward(x.copy(), train=True), labels)[0]
    else:
        target = np.random.default_rng(seed + 1).normal(size=target_shape)

        def scalar_loss():
            net.reset_state()
            return squared_error(net.forward(x.copy(), train=True), target)[0]

    net.reset_state()
    net.zero_grads()
    out = net.forward(x.copy(), train=True)
    if labels is not None:
        _, dout = cross_entropy(out, labels)
    else:
        _, dout = squared_error(out, target)
    net.backward(dout)
    analytic = {k: g.copy() for k, g in net.get_grads().items()}
    params = {k: ly.params[p] for k, ly, p in net.param_items()}
    # eps=1e-5 keeps cancellation noise down for parameters whose true
    # gradient is exactly zero (e.g. a bias feeding into batch norm)
    numeric = finite_difference_grads(scalar_loss, params, eps=1e-5)
    return max(relative_error(analytic[k], numeric[k]) for k in params) if params else 0.0


def test_03_gradient_correctness():
    t0 = time.perf_counter()
    r = np.random.default_rng
    cases = {
        "fc": ([{"kind": "fc", "in": 4, "out": 3}],
               r(1).normal(size=(5, 4)), (5, 3), None),
        "activation": ([{"kind": "fc", "in": 4, "out": 4},
                        {"kind": "activation", "fn": "sigmoid"}],
                       r(2).normal(size=(5, 4)), (5, 4), None),
        "softmax": ([{"kind": "fc", "in": 4, "out": 3}, {"kind": "softmax"}],
                    r(3).normal(size=(3, 4)), None, np.array([0, 2, 1])),
        "conv2d": ([{"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kernel": 3,
                     "padding": 1}],
                   r(4).normal(size=(2, 2, 5, 5)), (2, 3, 5, 5), None),
        "maxpool2d": ([{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 3},
                       {"kind": "maxpool2d", "size": 2}],
                      r(5).normal(size=(2, 1, 6, 6)), (2, 2, 2, 2), None),
        "flatten": ([{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kernel": 3},
                     {"kind": "flatten"},
                     {"kind": "fc", "in": 2 * 4 * 4, "out": 2}],
                    r(6).normal(size=(2, 1, 6, 6)), (2, 2), None),
        "batchnorm": ([{"kind": "fc", "in": 3, "out": 4},
                       {"kind": "batchnorm", "features": 4}],
                      r(7).normal(size=(8, 3)), (8, 4), None),
        "lstm": ([{"kind": "lstm", "in": 3, "hidden": 4}],
                 r(8).normal(size=(4, 2, 3)), (4, 2, 4), None),
    }
    errs = {}
    for kind, (cfgs, x, tshape, labels) in cases.items():
        errs[kind] = _grad_error(cfgs, x, target_shape=tshape, labels=labels)
    elapsed = time.perf_counter() - t0
    worst = max(errs, key=errs.get)
    _verdict(3, "gradient correctness",
             all(e < 1e-4 for e in errs.values()) and elapsed < 60.0,
             f"all {len(errs)} layer kinds < 1e-4 rel err "
             f"(worst {worst}: {errs[worst]:.2e}), {elapsed:.1f}s (< 1min)")


# -- 4. retraining loop fidelity -------------------------------------------------

def test_04_adaptive_loop_fidelity():
    cfg = ExperimentConfig(
        task="classification-vector",
        dataset={"kind": "clusters", "n_samples": 600, "classes": 4, "dim": 6,
                 "seed": 3, "spread": 0.8},
        network=[
            {"kind": "fc", "in": 6, "out": 12},
            {"kind": "activation", "fn": "relu"},
            {"kind": "fc", "in": 12, "out": 4},
            {"kind": "softmax"},
        ],
        float_training={"max_epochs": 15, "batch_size": 32,
                        "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.1,
                                      "momentum": 0.9,
                                      "lr_schedule": {"initial_lr": 0.1, "final_lr": 1e-3,
                                                      "decay_factor": 2.0,
                                                      "patience_evals": 3}}},
        retrain={"max_epochs": 3,
                 "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.01,
                               "momentum": 0.9,
                               "lr_schedule": {"initial_lr": 0.01, "final_lr": 1e-5,
                                               "decay_factor": 2.0, "patience_evals": 4}}},
        seeds=[0],
    )
    ckpt, _ = harness.train_float(cfg, seed=0)
    task = harness.make_task(cfg, 0)
    rc = harness.make_retrain_config(cfg, {"schedule": "adaptive", "bits": 3}, 0)
    rc.stop_at_lr_floor = False
    shadow, record = qat.run(rc, ckpt, task)

    worst_rel, on_grid = 0.0, True
    for gid, keys in shadow.groups.items():
        spec = shadow.specs[gid]
        # the stored step must be reproducible from the saved master weights
        step, _ = optimize_step(WeightGroup(group_vector(shadow, gid), gid), spec.points)
        worst_rel = max(worst_rel, abs(step - spec.step) / spec.step)
        for k in keys:
            q = shadow.quantized[k]
            n = np.round(q / spec.step)
            n[q == 0.0] = 0.0
            if np.abs(n).max() > spec.max_level or not np.array_equal(q, n * spec.step):
                on_grid = False
    deltas_logged = len({row.epoch for row in record.deltas}) == rc.max_epochs
    _verdict(4, "adaptive loop fidelity",
             worst_rel < 1e-8 and on_grid and deltas_logged,
             f"step reproduction rel err {worst_rel:.2e} (< 1e-8), "
             f"all quantized weights exact grid multiples: {on_grid}")


# -- 5-7. schedule ordering on the desk-scale task -------------------------------

def test_05_schedule_ordering(ffdnn):
    t0 = time.perf_counter()
    direct = ffdnn.mean_for("direct", 2)
    conv = ffdnn.mean_for("conventional", 2)
    adaptive = ffdnn.mean_for("adaptive", 2)
    elapsed = time.perf_counter() - t0
    ok = (direct > conv and direct - conv >= 5.0
          and adaptive <= conv + 0.2 and elapsed < 900.0)
    _verdict(5, "2-bit schedule ordering",
             ok,
             f"{len(ffdnn.seeds)} seeds, mean test error: direct {direct:.2f} > "
             f"conventional {conv:.2f} (gap {direct - conv:.2f} >= 5) and "
             f"adaptive {adaptive:.2f} <= conventional+0.2, {elapsed:.1f}s (< 15min)")


def test_06_precision_monotonicity(ffdnn):
    errs = {b: ffdnn.mean_for("adaptive", b) for b in (2, 3, 4, 6)}
    chain = [errs[b] for b in (2, 3, 4, 6)]
    monotone = all(chain[i + 1] <= chain[i] + 0.3 for i in range(len(chain) - 1))
    near_float = errs[6] <= ffdnn.float_mean + 0.5
    _verdict(6, "precision monotonicity",
             monotone and near_float,
             f"adaptive error by bits {{2:{errs[2]:.2f}, 3:{errs[3]:.2f}, "
             f"4:{errs[4]:.2f}, 6:{errs[6]:.2f}}} non-increasing within 0.3; "
             f"6-bit <= float {ffdnn.float_mean:.2f} + 0.5")


def test_07_gradual_schedule(ffdnn):
    conv = ffdnn.mean_for("conventional", 2)
    gradual = ffdnn.mean_for("gradual:6-2:3", 2)
    _verdict(7, "gradual precision reduction",
             gradual <= conv + 0.2,
             f"{len(ffdnn.seeds)} seeds, gradual 6->2 {gradual:.2f} <= "
             f"conventional 2-bit {conv:.2f} + 0.2")


# -- 8-9. artifacts and determinism ----------------------------------------------

def test_08_trajectory_export(sweep_pair):
    import csv

    with open(sweep_pair[0] / "trajectory.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    nonempty = len(rows) > 0
    positive = all(float(r["delta"]) > 0 for r in rows)
    contiguous = True
    by_series = {}
    for r in rows:
        by_series.setdefault((r["run_id"], r["group_id"]), []).append(int(r["epoch"]))
    for epochs in by_series.values():
        if epochs != list(range(epochs[0], epochs[0] + len(epochs))):
            contiguous = False
    _verdict(8, "step-size trajectory export",
             nonempty and positive and contiguous,
             f"{len(rows)} rows over {len(by_series)} (run, group) series; "
             f"epochs contiguous, all deltas > 0")


def test_09_determinism(sweep_pair):
    a, b = sweep_pair
    same = {name: (a / name).read_bytes() == (b / name).read_bytes()
            for name in ("results.csv", "summary.csv", "trajectory.csv")}
    _verdict(9, "sweep determinism",
             all(same.values()),
             f"repeated sweep byte-identical: {same}")


# -- 10. CNN / char-LM smoke ------------------------------------------------------

def _schedule_means(records):
    by = {}
    for r in records:
        by.setdefault(r.schedule, []).append(r.final_test_metric)
    return {k: float(np.mean(v)) for k, v in by.items()}


def test_10_cnn_and_char_lm_smoke(tmp_path):
    t0 = time.perf_counter()
    cells = [{"bits": 2, "schedule": "conventional"}, {"bits": 2, "schedule": "adaptive"}]

    cnn_cfg = ExperimentConfig(
        task="classification-image",
        dataset={"kind": "digit-images", "n_samples": 2500, "classes": 10, "seed": 5,
                 "noise": 0.5, "fractions": (0.5, 0.2, 0.3)},
        network=[
            {"kind": "conv2d", "in_ch": 1, "out_ch": 12, "kernel": 3, "padding": 1},
            {"kind": "activation", "fn": "relu"},
            {"kind": "maxpool2d", "size": 2},
            {"kind": "flatten"},
            {"kind": "fc", "in": 12 * 4 * 4, "out": 10},
            {"kind": "softmax"},
        ],
        float_training={"max_epochs": 25, "batch_size": 32,
                        "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.05,
                                      "momentum": 0.9,
                                      "lr_schedule": {"initial_lr": 0.05, "final_lr": 5e-4,
                                                      "decay_factor": 2.0,
                                                      "patience_evals": 3}}},
        retrain={"max_epochs": 15,
                 "optimizer": {"kind": "sgd_nesterov", "learning_rate": 0.005,
                               "momentum": 0.9,
                               "lr_schedule": {"initial_lr": 0.005, "final_lr": 0.005 / 512,
                                               "decay_factor": 2.0, "patience_evals": 2}}},
        cells=cells, seeds=[0, 1, 2, 3, 4],
    )
    cnn_records = harness.sweep(cnn_cfg, tmp_path / "cnn")
    cnn = _schedule_means(cnn_records)

    lm_cfg = ExperimentConfig(
        task="char-language-model",
        dataset={"kind": "synthetic-text", "n_chars": 12000, "vocab_size": 16, "seed": 21},
        network=[
            {"kind": "lstm", "in": 16, "hidden": 24},
            {"kind": "fc", "in": 24, "out": 16},
            {"kind": "softmax"},
        ],
        float_training={"max_epochs": 15, "unroll": 16, "update_stride": 16, "streams": 16,
                        "optimizer": {"kind": "adadelta", "learning_rate": 1.0,
                                      "lr_schedule": {"initial_lr": 1.0, "final_lr": 1e-2,
                                                      "decay_factor": 2.0,
                                                      "patience_evals": 3}}},
        retrain={"max_epochs": 15,
                 "optimizer": {"kind": "adadelta", "learning_rate": 0.5,
                               "lr_schedule": {"initial_lr": 0.5, "final_lr": 0.5 / 64,
                                               "decay_factor": 2.0, "patience_evals": 3}}},
        cells=cells, seeds=[0, 1, 2],
    )
    lm_records = harness.sweep(lm_cfg, tmp_path / "charlm")
    lm = _schedule_means(lm_records)

    elapsed = time.perf_counter() - t0
    recorded = ((tmp_path / "cnn").exists() and (tmp_path / "charlm").exists()
                and len(cnn_records) == 10 and len(lm_records) == 6)
    ok = (cnn["adaptive"] <= cnn["conventional"] + 0.3
          and lm["adaptive"] <= lm["conventional"] + 0.05
          and recorded and elapsed < 1800.0)
    _verdict(10, "CNN / char-LM smoke",
             ok,
             f"2-bit CNN error: adaptive {cnn['adaptive']:.2f} <= "
             f"conventional {cnn['conventional']:.2f} + 0.3 (5 seeds); "
             f"char-LM BPC: adaptive {lm['adaptive']:.3f} <= "
             f"conventional {lm['conventional']:.3f} + 0.05 (3 seeds); "
             f"{elapsed:.0f}s (< 30min)")
