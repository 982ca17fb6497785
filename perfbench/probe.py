"""Fixed-size probes run beside the traced sweep.

The step-solver probe times `optimize_step` on seeded Gaussian groups at fixed
sizes and bit widths and re-checks each result two ways.  The layer probe
times one forward and one backward call of every layer kind at the shape the
benchmark's workloads use, so each kind has a time on every workload, also
where the workload's own network lacks it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SIZES = (1_000, 10_000, 100_000)
BITS = (2, 4, 6)
SCAN_POINTS = 512
MIN_PROBE_S = 0.2  # repeat small cases until this much time has been measured
MAX_REPEATS = 25
LAYER_REPEATS = 41

# kind -> (layer config for build_network, input shape); batch 32, or a
# 16-step window of 16 streams for the LSTM
LAYER_SHAPES = {
    "conv2d": ({"kind": "conv2d", "in_ch": 1, "out_ch": 12, "kernel": 3, "padding": 1},
               (32, 1, 8, 8)),
    "batchnorm": ({"kind": "batchnorm", "features": 12}, (32, 12, 8, 8)),
    "activation": ({"kind": "activation", "fn": "relu"}, (32, 256)),
    "maxpool2d": ({"kind": "maxpool2d", "size": 2}, (32, 12, 8, 8)),
    "flatten": ({"kind": "flatten"}, (32, 12, 4, 4)),
    "fc": ({"kind": "fc", "in": 256, "out": 256}, (32, 256)),
    "softmax": ({"kind": "softmax"}, (32, 10)),
    "lstm": ({"kind": "lstm", "in": 16, "hidden": 24}, (16, 16, 16)),
}


def metric_name(n: int, bits: int) -> str:
    return f"quantizer.probe.N{n}_b{bits}_s"


def dense_scan_min(w: np.ndarray, bits: int, step: float) -> float:
    """Smallest quant_mse over a geometric scan of steps around the range of w."""
    from qatkit.quantizer import QuantizerSpec, WeightGroup, quant_mse

    group = WeightGroup(w)
    hi = 2.0 * float(np.abs(w).max())
    steps = np.geomspace(hi * 1e-4, hi, SCAN_POINTS)
    # always include the neighbourhood of the solver's answer
    steps = np.concatenate([steps, step * np.linspace(0.98, 1.02, 41)])
    return min(quant_mse(group, QuantizerSpec.from_bits(bits, float(s))) for s in steps)


def run_solver(seed: int) -> dict:
    """Time every (N, bits) case; return seconds per call plus the checks."""
    from qatkit.quantizer import QuantizerSpec, WeightGroup, optimize_step, quant_mse

    times, checks = {}, {}
    for n in SIZES:
        for bits in BITS:
            w = np.random.default_rng((seed, n, bits)).normal(size=n)
            group = WeightGroup(w, f"probe_N{n}_b{bits}")
            m = 2 ** bits - 1
            samples, total = [], 0.0
            while not samples or (total < MIN_PROBE_S and len(samples) < MAX_REPEATS):
                t0 = time.perf_counter()
                step, mse = optimize_step(group, m)
                dt = time.perf_counter() - t0
                samples.append(dt)
                total += dt
            times[metric_name(n, bits)] = statistics.median(samples)
            exact = quant_mse(group, QuantizerSpec.from_bits(bits, step)) == mse
            scan = dense_scan_min(w, bits, step)
            # a scan step may tie the optimum; beating it beyond rounding fails
            optimal = scan >= mse * (1.0 - 1e-12)
            checks[f"N{n}_b{bits}_mse_exact"] = bool(exact)
            checks[f"N{n}_b{bits}_no_better_scan_step"] = bool(optimal)
    return {"times": times, "checks": checks}


def layer_metric_names(kind: str) -> tuple[str, str]:
    return f"layers.{kind}.probe_forward_s", f"layers.{kind}.probe_backward_s"


def run_layers(seed: int) -> dict:
    """Median seconds per forward and per backward call of each layer kind."""
    from qatkit.nn import build_network

    times, checks = {}, {}
    for kind, (cfg, shape) in LAYER_SHAPES.items():
        rng = np.random.default_rng((seed, len(kind)))
        layer = build_network([cfg], rng).layers[0]
        x = rng.normal(size=shape)
        fwd, bwd = [], []
        for _ in range(LAYER_REPEATS):
            layer.zero_grads()
            t0 = time.perf_counter()
            y = layer.forward(x, train=True)
            t1 = time.perf_counter()
            dx = layer.backward(np.ones_like(y))
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        f_name, b_name = layer_metric_names(kind)
        times[f_name], times[b_name] = statistics.median(fwd), statistics.median(bwd)
        checks[f"{kind}_finite"] = bool(np.all(np.isfinite(y)) and np.all(np.isfinite(dx))
                                        and dx.shape == x.shape)
    return {"times": times, "checks": checks}
