import math
import tracemalloc

import numpy as np
import pytest

from qatkit import quantizer
from qatkit.quantizer import (
    SWEEP_CHUNK,
    DegenerateGroupError,
    QuantizerSpec,
    WeightGroup,
    exhaustive_search_step,
    optimize_step,
    points_for_bits,
    quant_mse,
    quantize,
)

from oracles import (
    assert_bits_equal,
    grid_search_mse,
    grid_search_mse_slow,
    optimize_step_loop,
    quant_mse_direct,
    quantize_array,
    scalar_quantize,
)


class TestPointsForBits:
    @pytest.mark.parametrize("bits,expected", [(2, 3), (3, 7), (4, 15), (6, 63)])
    def test_table_values(self, bits, expected):
        assert points_for_bits(bits) == expected

    def test_rejects_one_bit(self):
        with pytest.raises(ValueError):
            points_for_bits(1)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            points_for_bits(2.5)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        spec = QuantizerSpec.from_bits(4, 0.37)
        assert quantize(0.0, spec) == 0.0

    def test_hand_values_m3(self):
        spec = QuantizerSpec.from_bits(2, 1.0)
        out = quantize(np.array([0.4, 0.6, -2.3]), spec)
        np.testing.assert_array_equal(out, [0.0, 1.0, -1.0])

    def test_clipping_m7(self):
        spec = QuantizerSpec.from_bits(3, 0.5)
        assert quantize(2.0, spec) == 1.5

    def test_matches_scalar_oracle_exactly(self):
        rng = np.random.default_rng(7)
        w = rng.normal(0, 1, size=1000)
        for bits in (2, 3, 4, 6):
            spec = QuantizerSpec.from_bits(bits, 0.173)
            got = quantize(w, spec)
            want = np.array([scalar_quantize(v, spec.step, spec.points) for v in w])
            np.testing.assert_array_equal(got, want)

    def test_rejects_non_finite(self):
        spec = QuantizerSpec.from_bits(2, 1.0)
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.nan]), spec)

    def test_scalar_in_scalar_out(self):
        spec = QuantizerSpec.from_bits(2, 1.0)
        assert isinstance(quantize(0.7, spec), float)


def in_place_cases():
    """(name, weights, spec) on the rounding's edges, each at 2, 3 and 6 bits."""
    cases = []
    for bits in (2, 3, 6):
        step = 0.173
        spec = QuantizerSpec.from_bits(bits, step)
        k = spec.max_level
        halves = (np.arange(-k - 2, k + 2) + 0.5) * step
        cases += [
            (f"half-steps-{bits}", np.concatenate([halves, np.nextafter(halves, 0.0),
                                                   np.nextafter(halves, np.inf)]), spec),
            (f"beyond-clip-{bits}", np.array([k + 0.5, k + 1, 10 * k, 1e300]) * step
             * np.array([[1.0], [-1.0]]), spec),
            (f"signed-zeros-{bits}", np.array([-1e-300, -5e-324, -0.0, 0.0, 5e-324,
                                               -0.49 * step, 0.49 * step]), spec),
            (f"gaussian-{bits}", np.random.default_rng(bits).normal(size=(7, 9)), spec),
        ]
    return cases


class TestQuantizeInPlace:
    """`quantize` with `out`, as ShadowParams rebuilds its view, against the
    first array quantizer bit for bit."""

    @pytest.mark.parametrize("name, w, spec", in_place_cases(),
                             ids=[c[0] for c in in_place_cases()])
    def test_matches_array_oracle(self, name, w, spec):
        want = quantize_array(w, spec.step, spec.points)
        assert_bits_equal(quantize(w, spec), want)
        out = np.full(w.shape, 7.0)
        assert quantize(w, spec, out=out) is out
        assert_bits_equal(out, want)

    def test_signs_of_zero(self):
        # sgn(-0.0) is +0.0, so -0.0 quantizes to +0.0 and a tiny negative to -0.0
        spec = QuantizerSpec.from_bits(2, 1.0)
        got = quantize(np.array([-0.0, -1e-300, 0.0]), spec, out=np.empty(3))
        assert list(np.signbit(got)) == [False, True, False]

    @pytest.mark.parametrize("x", [0.7, -0.0, -1e-300, 2.6, np.float64(-0.5)])
    def test_scalar_matches_oracle(self, x):
        spec = QuantizerSpec.from_bits(3, 0.5)
        got = quantize(x, spec)
        assert isinstance(got, float)
        assert_bits_equal(got, quantize_array(x, spec.step, spec.points))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_and_leaves_out(self, bad):
        spec = QuantizerSpec.from_bits(2, 1.0)
        w = np.array([0.4, bad, -2.0])
        with pytest.raises(ValueError, match="non-finite"):
            quantize_array(w, spec.step, spec.points)
        out = np.full(3, 5.0)
        with pytest.raises(ValueError, match="non-finite"):
            quantize(w, spec, out=out)
        assert_bits_equal(out, np.full(3, 5.0))
        with pytest.raises(ValueError, match="non-finite"):
            quantize(bad, spec)

    def test_out_must_match(self):
        spec = QuantizerSpec.from_bits(2, 1.0)
        for out in (np.empty(4), np.empty((3, 1)), np.empty(3, dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be float64 of shape"):
                quantize(np.ones(3), spec, out=out)


class TestQuantizerSpec:
    @pytest.mark.parametrize("step", [0.0, -1.0, float("inf"), float("nan")])
    def test_step_positive_finite(self, step):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=2, step=step)

    @pytest.mark.parametrize("bits", [1, 2.5, True])
    def test_bad_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=bits, step=1.0)

    @pytest.mark.parametrize("bits", [2, 3, 4, 6])
    def test_points_follow_bits(self, bits):
        assert QuantizerSpec(bits=bits, step=1.0).points == 2**bits - 1


class TestQuantMse:
    def test_on_grid_is_zero(self):
        g = WeightGroup(np.array([1.0]), "g")
        assert quant_mse(g, QuantizerSpec.from_bits(2, 1.0)) == 0.0

    def test_half_weight(self):
        g = WeightGroup(np.array([0.5]), "g")
        # 0.5 rounds up to 1.0; (1/2)(0.5)^2
        assert quant_mse(g, QuantizerSpec.from_bits(2, 1.0)) == pytest.approx(0.125)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(0, 2, size=500)
        g = WeightGroup(vals, "g")
        for bits, step in [(2, 0.8), (3, 0.21), (6, 0.05)]:
            spec = QuantizerSpec.from_bits(bits, step)
            assert quant_mse(g, spec) == pytest.approx(
                quant_mse_direct(vals, step, spec.points), abs=1e-12
            )


class TestOptimizeStep:
    def test_constant_group_m3(self):
        g = WeightGroup(np.full(17, 0.42), "g")
        step, mse = optimize_step(g, 3)
        assert step == pytest.approx(0.42, rel=1e-10)
        assert mse == pytest.approx(0.0, abs=1e-20)

    def test_symmetric_pair(self):
        step, mse = optimize_step(WeightGroup(np.array([-1.0, 1.0]), "g"), 3)
        assert step == pytest.approx(1.0, rel=1e-10)
        assert mse == pytest.approx(0.0, abs=1e-20)

    def test_near_global_minimum_vs_grid(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, size=1000)
        step, mse = optimize_step(WeightGroup(w, "g"), 3)
        wmax = np.abs(w).max()
        candidates = np.linspace(2 * wmax / 1e5, 2 * wmax, 100000)
        _, grid_mse = grid_search_mse(w, 3, candidates)
        assert mse <= (1 + 1e-6) * grid_mse

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateGroupError):
            optimize_step(WeightGroup(np.zeros(5), "g"), 3)

    def test_even_or_small_m_rejected(self):
        g = WeightGroup(np.array([1.0, 2.0]), "g")
        with pytest.raises(ValueError):
            optimize_step(g, 4)
        with pytest.raises(ValueError):
            optimize_step(g, 1)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 1, size=200)
        assert optimize_step(WeightGroup(w, "g"), 7) == optimize_step(
            WeightGroup(w, "g"), 7
        )

    def test_stationarity_fixed_point(self):
        # at the returned step, step == sum(n*w)/sum(n^2) for its own levels
        rng = np.random.default_rng(9)
        for m in (3, 7, 15, 63):
            w = rng.laplace(0, 1, size=500)
            step, _ = optimize_step(WeightGroup(w, "g"), m)
            k = (m - 1) // 2
            n = np.sign(w) * np.minimum(np.floor(np.abs(w) / step + 0.5), k)
            assert step == pytest.approx(np.dot(n, w) / np.dot(n, n), rel=1e-6)

    def test_precision_monotonicity(self):
        rng = np.random.default_rng(13)
        w = rng.normal(0, 1, size=800)
        g = WeightGroup(w, "g")
        mses = [optimize_step(g, m)[1] for m in (3, 7, 15, 63)]
        for lo, hi in zip(mses[1:], mses[:-1]):
            assert lo <= hi * (1 + 1e-9)


def assert_same_as_loop(w, bits):
    g = WeightGroup(w, "g")
    m = points_for_bits(bits)
    step, mse = optimize_step(g, m)
    ref_step, ref_mse = optimize_step_loop(g, m)
    assert type(step) is float
    assert step == ref_step and mse == ref_mse, (step, ref_step, mse, ref_mse)


class TestOptimizeStepMatchesLoop:
    """The vectorized sweep returns the reference loop's (step, mse) exactly."""

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6])
    def test_gaussian(self, bits):
        rng = np.random.default_rng(100 + bits)
        for n in (2, 37, 600):
            assert_same_as_loop(rng.normal(0, 1, size=n), bits)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6])
    def test_heavy_same_value_ties(self, bits):
        rng = np.random.default_rng(200 + bits)
        assert_same_as_loop(rng.choice(rng.normal(0, 1, size=4), size=500), bits)
        for name, w in shuffled(tie_heavy_groups(rng), 250 + bits):
            assert_same_as_loop(w, bits)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6])
    def test_integer_valued(self, bits):
        rng = np.random.default_rng(300 + bits)
        assert_same_as_loop(rng.integers(-20, 21, size=500).astype(np.float64), bits)

    # x/0.5 == fl(3x)/1.5 == fl(5x)/2.5 can hold without 3x and 5x being
    # exact, so equal breakpoints come from different levels and weights.
    # On these (seed, bits) the sweep's result depends on their order.
    @pytest.mark.parametrize("seed,bits", [(1, 3), (13, 5), (51, 4), (54, 4)])
    def test_inexact_cross_level_ties(self, seed, bits):
        rng = np.random.default_rng(400 + seed)
        x = np.abs(rng.normal(0, 1, size=300))
        w = np.concatenate([rng.normal(0, 1, size=1500), x, 3 * x, 5 * x])
        rng.shuffle(w)
        assert_same_as_loop(w, bits)

    @pytest.mark.parametrize("bits", [2, 4, 6])
    def test_single_weight(self, bits):
        assert_same_as_loop(np.array([-0.731]), bits)

    @pytest.mark.parametrize("bits", [2, 4, 6])
    def test_all_weights_tied(self, bits):
        assert_same_as_loop(np.full(257, -1.3), bits)

    @pytest.mark.parametrize("bits", [2, 4, 6])
    def test_magnitude_range_over_1e12(self, bits):
        rng = np.random.default_rng(500 + bits)
        w = rng.normal(0, 1, size=400) * 10.0 ** rng.uniform(-6.5, 6.5, size=400)
        assert np.abs(w).max() / np.abs(w).min() > 1e12
        assert_same_as_loop(w, bits)

    @pytest.mark.parametrize("bits", [2, 4, 6])
    def test_zeros_mixed_in(self, bits):
        rng = np.random.default_rng(600 + bits)
        w = rng.normal(0, 1, size=500)
        w[rng.random(500) < 0.4] = 0.0
        assert_same_as_loop(w, bits)

    @pytest.mark.parametrize("breakpoints", [SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1,
                                             3 * SWEEP_CHUNK + 7])
    def test_breakpoint_count_at_chunk_edges(self, breakpoints):
        # 2 bits: one breakpoint per weight; 3 bits: three
        rng = np.random.default_rng(breakpoints)
        assert_same_as_loop(rng.normal(0, 1, size=breakpoints), 2)
        if breakpoints % 3 == 0:
            assert_same_as_loop(rng.normal(0, 1, size=breakpoints // 3), 3)


def tie_heavy_groups(rng):
    """(name, weights) with many equal breakpoints."""
    yield "integers", rng.integers(-20, 21, size=400).astype(np.float64)
    # x/0.5 == fl(3x)/1.5 == fl(5x)/2.5 across levels and weights; the
    # magnitudes are inexact, so the order of the ties changes the sums
    x = np.abs(rng.normal(size=60))
    yield "cross-level", rng.permutation(np.concatenate([rng.normal(size=200), x, 3 * x,
                                                         5 * x, -7 * x]))
    # |w|/(k - 0.5) underflows to 0 for the larger k; normal weights beside
    tiny = rng.choice([5e-324, 1e-323, 1.5e-323, 2.5e-323, 5e-322], size=200)
    yield "subnormal", np.concatenate([tiny, -tiny[:50], rng.normal(0, 1e-310, size=50),
                                       rng.normal(size=100)])


def shuffled(groups, seed):
    """(name, weights) of `groups`, each in a shuffled index order: the sweep
    sorts magnitudes without stability, so its result must not depend on the
    order that leaves equal ones in."""
    rng = np.random.default_rng(seed)
    return [(f"{name}-shuffled", rng.permutation(w)) for name, w in groups]


class TestSweepWindows:
    """The sweep holds one window of breakpoints at a time; windows of any
    size give the reference loop's result."""

    @pytest.mark.parametrize("chunk", [5, 64])
    @pytest.mark.parametrize("bits", [2, 3, 5, 6])
    def test_tiny_windows_match_loop_on_ties(self, monkeypatch, chunk, bits):
        monkeypatch.setattr(quantizer, "SWEEP_CHUNK", chunk)
        rng = np.random.default_rng(700 + bits)
        groups = list(tie_heavy_groups(rng))
        for name, w in groups + shuffled(groups, 750 + bits):
            assert_same_as_loop(w, bits)
        assert_same_as_loop(rng.normal(size=300), bits)

    @pytest.mark.parametrize("chunk", [5, 64, 1000])
    def test_windows_hold_the_breakpoints_in_reference_order(self, chunk):
        rng = np.random.default_rng(chunk)
        ties = list(tie_heavy_groups(rng))
        groups = [("gaussian", rng.normal(size=700)), *ties, *shuffled(ties, chunk + 1)]
        for name, w in groups:
            absw = np.abs(w[w != 0])
            rank = np.argsort(absw)  # as optimize_step sorts, ties in any order
            for max_level in (1, 3, 15):
                halves = np.arange(1, max_level + 1) - 0.5
                # the reference's order: value, then weight index, then level
                bp = (absw[:, None] / halves).ravel()
                order = np.argsort(bp, kind="stable")
                windows = list(quantizer._breakpoint_windows(absw[rank], rank, max_level,
                                                             chunk))
                for got, want in zip(zip(*windows), (bp, np.repeat(absw, max_level),
                                                     np.tile(halves, absw.size))):
                    np.testing.assert_array_equal(np.concatenate(got), want[order])
                if name == "gaussian":  # no ties: every window is chunk +- chunk/2
                    sizes = [b.size for b, _, _ in windows]
                    assert max(sizes) <= chunk + chunk // 2
                    if absw.size * max_level > 2 * chunk:
                        assert min(sizes[:-1]) >= chunk // 2

    def test_peak_memory_is_far_below_n_times_k(self):
        # 65,536 weights at 6 bits: one N*K array of doubles alone is 16.8 MB
        g = WeightGroup(np.random.default_rng(0).normal(size=65536), "g")
        tracemalloc.start()
        try:
            optimize_step(g, 63)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


class TestGridOracleSelfCheck:
    def test_fast_oracle_matches_slow(self):
        rng = np.random.default_rng(21)
        w = rng.normal(0, 1, size=60)
        candidates = np.linspace(0.01, 2.5, 400)
        for m in (3, 7, 15):
            fast = grid_search_mse(w, m, candidates)
            slow = grid_search_mse_slow(w, m, candidates)
            assert fast[0] == pytest.approx(slow[0])
            assert fast[1] == pytest.approx(slow[1], abs=1e-9)


class TestExhaustiveSearch:
    def test_finds_candidate_nearest_truth(self):
        w = np.array([-1.0, 1.0, 1.0, -1.0])
        g = WeightGroup(w, "g")

        def score(step):
            return quant_mse(g, QuantizerSpec.from_bits(2, step))

        best = exhaustive_search_step(1.0, score, 33)
        candidates = np.geomspace(0.5, 2.0, 33)
        assert best == pytest.approx(candidates[np.argmin(np.abs(candidates - 1.0))])

    def test_constant_score_ties_to_smallest(self):
        # with no score below inf (inf or NaN) it still returns a step, the smallest
        for score in (1.0, math.inf, math.nan):
            best = exhaustive_search_step(0.8, lambda s: score, 9)
            assert best == pytest.approx(0.4), score

    def test_nan_before_finite_scores_is_passed_over(self):
        # candidates 0.5, 0.79, 1.26, 2.0: the NaN at 0.5 never wins
        best = exhaustive_search_step(1.0, lambda s: math.nan if s < 0.6 else abs(s - 1.3), 4)
        assert best == pytest.approx(1.26, abs=0.01)

    def test_agrees_with_restricted_grid(self):
        rng = np.random.default_rng(31)
        w = rng.normal(0, 1, size=300)
        g = WeightGroup(w, "g")
        init = 0.9

        def score(step):
            return quant_mse(g, QuantizerSpec.from_bits(3, step))

        best = exhaustive_search_step(init, score, 64)
        candidates = np.geomspace(init / 2, 2 * init, 64)
        grid_best, _ = grid_search_mse(w, 7, candidates)
        spacing = candidates[1] / candidates[0]
        assert grid_best / spacing <= best <= grid_best * spacing

    def test_input_validation(self):
        with pytest.raises(ValueError):
            exhaustive_search_step(-1.0, lambda s: 0.0, 8)
        with pytest.raises(ValueError):
            exhaustive_search_step(1.0, lambda s: 0.0, 1)


class TestSolverConfigValidation:
    def test_group_validation(self):
        with pytest.raises(ValueError):
            WeightGroup(np.array([]), "g")
        with pytest.raises(ValueError):
            WeightGroup(np.array([1.0, np.inf]), "g")
