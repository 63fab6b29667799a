import numpy as np
import pytest
from scipy.stats import norm

from firmgrowth.analysis import (
    binned_means,
    binned_volatility_moments,
    edge_bins,
    equal_count_bins,
    hill_estimator,
    hill_profile,
    kde_gaussian,
    ks_2sample,
    ks_distance,
    loglog_ols,
    normal_reference_bandwidth,
    rescale_collapse,
    weighted_loglog_slope,
)
from firmgrowth.distributions import pareto_sample
from firmgrowth.groups import Groups


def rank_split(keys, n_bins):
    """Each key's equal-count bin: a stable argsort cut into n_bins runs."""
    order = np.argsort(np.asarray(keys), kind="stable")
    assign = np.empty(order.size, dtype=np.int64)
    for b, group in enumerate(np.array_split(order, n_bins)):
        assign[group] = b
    return assign


def labels(bins):
    """Each row's bin, read back from the Groups."""
    out = np.empty(bins.order.size, dtype=np.int64)
    out[bins.order] = np.repeat(bins.keys, bins.counts)
    return out


def moments(keys, vols, q_list, n_bins):
    return binned_volatility_moments(equal_count_bins(keys, n_bins), keys, vols, q_list)


class TestEqualCountBins:
    def test_two_bins_of_two(self):
        assign = labels(equal_count_bins([3.0, 1.0, 4.0, 2.0], 2))
        assert assign.tolist() == [1, 0, 1, 0]

    def test_paper_sized_split(self):
        rng = np.random.default_rng(0)
        bins = equal_count_bins(rng.random(24233), 25)
        assert bins.keys.tolist() == list(range(25))
        assert sorted(set(bins.counts.tolist())) == [969, 970]

    def test_all_equal_keys_stable(self):
        assign = labels(equal_count_bins(np.ones(10), 5))
        assert assign.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_partition(self):
        rng = np.random.default_rng(1)
        keys = rng.random(1000)
        bins = equal_count_bins(keys, 7)
        assert np.sort(bins.order).tolist() == list(range(1000))
        # bin boundaries are monotone in the key
        per_bin = bins.split(keys)
        for b in range(6):
            assert per_bin[b].max() <= per_bin[b + 1].min() + 1e-15

    @pytest.mark.parametrize("keys, n_bins", [
        ([2.0, 1.0, 2.0, 2.0, 1.0, 3.0, 2.0], 3),          # ties across bin edges
        ([np.nan, 1.0, np.nan, 0.5, 2.0, np.nan], 4),      # NaN ranks last
        (np.round(np.random.default_rng(2).random(1001), 1), 1),
        (np.round(np.random.default_rng(3).random(1001), 1), 1001),
        (np.round(np.random.default_rng(4).random(1001), 1), 25),
    ])
    def test_is_groups_of_rank_split(self, keys, n_bins):
        got = equal_count_bins(keys, n_bins)
        ref = Groups.of(rank_split(keys, n_bins))
        for field in ("keys", "order", "starts", "counts"):
            a, b = getattr(got, field), getattr(ref, field)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field

    def test_too_many_bins(self):
        with pytest.raises(ValueError):
            equal_count_bins([1.0, 2.0], 3)


class TestBinnedMoments:
    def test_single_bin_second_moment(self):
        bins = equal_count_bins([1.0, 2.0], 1)
        mean_size, m = binned_volatility_moments(bins, [1.0, 2.0], [1.0, 2.0], [2])
        assert m[2].tolist() == pytest.approx([2.5])
        assert mean_size.tolist() == pytest.approx([1.5])
        assert bins.counts.tolist() == [2]

    def test_deterministic_power_law_reproduced(self):
        # one firm per bin: the binned points sit exactly on the input curve
        sizes = np.logspace(0, 2, 12)
        vols = 3.0 * sizes**-0.2
        ms, m = moments(sizes, vols, [1], n_bins=12)
        mv = m[1]
        assert mv == pytest.approx(3.0 * ms**-0.2, rel=1e-12)
        assert loglog_ols(ms, mv).slope == pytest.approx(-0.2, abs=1e-12)
        # with coarse bins over a light-tailed key the distortion stays mild
        rng = np.random.default_rng(2)
        big = np.sort(1.0 + 99.0 * rng.random(5000))
        ms, m = moments(big, 3.0 * big**-0.2, [1], n_bins=25)
        fit = loglog_ols(ms, m[1])
        assert fit.slope == pytest.approx(-0.2, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            binned_volatility_moments(equal_count_bins([1.0], 1), [1.0], [1.0, 2.0], [1])
        # a bin holding a row past the sizes
        with pytest.raises(IndexError):
            binned_volatility_moments(equal_count_bins([1.0, 2.0], 1), [1.0], [1.0], [1])

    def test_within_bin_permutation_invariance(self):
        sizes = np.array([1.0, 1.1, 5.0, 5.1])
        vols = np.array([0.2, 0.4, 0.6, 0.8])
        _, a = moments(sizes, vols, [1, 2], n_bins=2)
        _, b = moments(sizes[[1, 0, 3, 2]], vols[[1, 0, 3, 2]], [1, 2], n_bins=2)
        assert list(a) == list(b) == [1, 2]
        for q in a:
            assert a[q] == pytest.approx(b[q])

    def test_means_over_any_groups(self):
        bins = Groups.of(np.array(["b", "a", "b", "c"]))
        x, y = binned_means(bins, iter([[1.0, 2.0, 3.0, 4.0], [True, False, False, True]]))
        assert x.tolist() == [2.0, 2.0, 4.0]
        assert y.tolist() == [0.0, 0.5, 1.0]


class TestEdgeBins:
    # 1.0, 2.0 and 4.0 lie on edges, 0.5 below the first edge, 16.0 on the
    # last and 40.0 past it; 4.0 is the one size in [4, 8)
    EDGES = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    SIZES = np.array([3.0, 2.0, 0.5, 16.0, 1.0, 9.0, 40.0, 1.5, 4.0, 3.9, 2.0, 15.9])

    def test_matches_digitize_mask_loop(self):
        bins = edge_bins(self.SIZES, self.EDGES)
        idx = np.digitize(self.SIZES, self.EDGES) - 1
        assert bins.keys.tolist() == [0, 1, 2, 3]
        assert bins.counts.tolist() == [2, 4, 1, 2]
        for key, rows in zip(bins.keys, bins.split(np.arange(self.SIZES.size))):
            assert rows.tolist() == np.flatnonzero(idx == key).tolist()
        (means,) = binned_means(bins, [self.SIZES])
        ref = np.array([self.SIZES[idx == key].mean() for key in bins.keys])
        assert means.tobytes() == ref.tobytes()

    def test_rows_outside_the_edges_are_left_out(self):
        bins = edge_bins(self.SIZES, self.EDGES)
        assert sorted(bins.order.tolist()) == [0, 1, 4, 5, 7, 8, 9, 10, 11]
        assert bins.order.size == bins.counts.sum()

    def test_empty_bin_has_no_key(self):
        sizes = np.delete(self.SIZES, 8)  # the one size in [4, 8)
        bins = edge_bins(sizes, self.EDGES)
        assert bins.keys.tolist() == [0, 1, 3]
        assert bins.counts.tolist() == [2, 4, 2]
        assert edge_bins(sizes, [100.0, 200.0]).keys.size == 0


class TestLogLogOls:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = loglog_ols(x, 10.0 * x**-0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_points_rejected(self):
        with pytest.raises(ValueError):
            loglog_ols([1.0, 2.0], [1.0, 2.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            loglog_ols([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])

    def test_slope_invariant_under_y_scaling(self):
        rng = np.random.default_rng(3)
        x = np.linspace(1, 50, 20)
        y = 2.0 * x**-0.7 * np.exp(0.05 * rng.standard_normal(20))
        a = loglog_ols(x, y)
        b = loglog_ols(x, 137.0 * y)
        assert a.slope == pytest.approx(b.slope, rel=1e-12)
        assert a.intercept != b.intercept

    def test_weighted_slope_matches_unweighted_for_equal_weights(self):
        x = np.array([1.0, 3.0, 9.0, 27.0])
        y = 5.0 * x**-0.3
        assert weighted_loglog_slope(x, y, np.ones(4)) == pytest.approx(
            loglog_ols(x, y).slope, rel=1e-12
        )


class TestKde:
    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            kde_gaussian([1.0], np.linspace(0, 2, 10))

    def test_zero_dispersion_rejected(self):
        with pytest.raises(ValueError):
            kde_gaussian([1.0, 1.0, 1.0], np.linspace(0, 2, 10))

    def test_bandwidth_that_underflows_to_zero_rejected(self):
        # an IQR of one subnormal step makes the reference bandwidth 0.0
        x = np.concatenate([np.zeros(200), np.full(199, 5e-324), [1.0]])
        assert normal_reference_bandwidth(x) == 0.0
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            kde_gaussian(x, np.linspace(0, 1, 10))

    def test_standard_normal_accuracy_large_sample(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(10**6)
        grid = np.linspace(-3, 3, 1001)
        est = kde_gaussian(x, grid)
        assert np.max(np.abs(est.values - norm.pdf(grid))) < 0.01

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5000)
        h = normal_reference_bandwidth(x)
        grid = np.linspace(x.min() - 5 * h, x.max() + 5 * h, 2000)
        est = kde_gaussian(x, grid)
        assert np.trapezoid(est.values, grid) == pytest.approx(1.0, abs=0.01)

    def test_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(6)
        half = rng.standard_normal(500)
        x = np.concatenate([half, -half])  # exactly symmetric about 0
        grid = np.linspace(-4, 4, 801)
        est = kde_gaussian(x, grid)
        assert np.all(est.values >= 0)
        assert np.max(np.abs(est.values - est.values[::-1])) < 1e-10

    def test_binned_path_matches_exact_path(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(30_000)
        grid = np.linspace(-3, 3, 501)
        exact = kde_gaussian(x, grid)
        from firmgrowth.analysis import _kde_binned

        binned = _kde_binned(x, grid, normal_reference_bandwidth(x))
        assert np.max(np.abs(exact.values - binned)) < 5e-5

    # kernel half-widths in grid steps: a 3-point kernel, a mid-size one, and
    # one longer than the grid, as when the bandwidth is wide relative to the
    # sample range
    @pytest.mark.parametrize("half_width", [1, 700, 40_000])
    def test_convolution_is_bit_identical_to_fftconvolve(self, half_width):
        from scipy.signal import fftconvolve

        from firmgrowth.analysis import _convolve_same

        rng = np.random.default_rng(half_width)
        weights = rng.random(1 << 16) * (rng.random(1 << 16) < 0.3)
        offsets = np.arange(-half_width, half_width + 1) / half_width
        kernel = np.exp(-0.5 * (8.5 * offsets) ** 2)
        got = _convolve_same(weights, kernel)
        assert got.tobytes() == fftconvolve(weights, kernel, mode="same").tobytes()

    def test_fast_length_matches_scipy(self):
        # SciPy is the oracle here only; the package computes the length itself
        from scipy.fft import next_fast_len

        from firmgrowth.analysis import _next_fast_len

        for n in [*range(1, (1 << 17) + 1), *range(1 << 20, (1 << 20) + 5_000)]:
            assert _next_fast_len(n) == next_fast_len(n, True), n

    def test_bandwidth_matches_rule(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4096)
        sd = x.std(ddof=1)
        q75, q25 = np.percentile(x, [75, 25])
        expect = 1.06 * min(sd, (q75 - q25) / 1.34) * 4096**-0.2
        assert normal_reference_bandwidth(x) == pytest.approx(expect, rel=1e-12)


def collapse(per_bin):
    """rescale_collapse over the bins 0, 1, ... holding the arrays of `per_bin`."""
    labels = np.repeat(np.arange(len(per_bin)), [len(b) for b in per_bin])
    return rescale_collapse(Groups.of(labels), np.concatenate(per_bin))


class TestRescaleCollapse:
    def test_simple_bin(self):
        out = collapse([[2.0, 4.0]])
        assert out[0] == pytest.approx([2 / 3, 4 / 3])

    def test_output_means_are_one(self):
        rng = np.random.default_rng(9)
        bins = [rng.random(50) + 0.1 for _ in range(4)]
        for r in collapse(bins):
            assert r.mean() == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        bins = [rng.random(30) + 0.1]
        a = collapse(bins)[0]
        b = collapse([bins[0] * 7.3])[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_bin_rejected(self):
        empty = Groups(np.array([0]), np.array([], dtype=np.int64), np.array([0]), np.array([0]))
        with pytest.raises(ValueError), pytest.warns(RuntimeWarning):
            rescale_collapse(empty, [])

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [np.nan, 1.0]])
    def test_non_positive_mean_names_bin(self, bad):
        with pytest.raises(ValueError, match="bin 1 has mean"):
            collapse([[1.0, 2.0], bad, [3.0]])

    def test_rows_in_input_order_within_a_bin(self):
        bins = equal_count_bins([5.0, 1.0, 6.0, 2.0], 2)
        out = rescale_collapse(bins, [4.0, 1.0, 2.0, 3.0])
        assert [r.tolist() for r in out] == [[0.5, 1.5], [4 / 3, 2 / 3]]


class TestHill:
    def test_known_pareto(self):
        rng = np.random.default_rng(11)
        draws = pareto_sample(rng.random(10**6), 1.0, 1.5)
        index, se = hill_estimator(draws, 0.01)
        assert index == pytest.approx(1.5, abs=0.1)
        assert se == pytest.approx(index / 100, rel=1e-12)

    def test_thin_tail_has_no_plateau(self):
        rng = np.random.default_rng(12)
        draws = rng.exponential(size=10**5) + 1e-9
        prof = hill_profile(draws, fractions=(0.005, 0.05))
        # exponential tails: the apparent index grows as the fraction shrinks
        assert prof[0.005][0] > prof[0.05][0] * 1.3

    def test_all_equal_rejected(self):
        with pytest.raises(ValueError):
            hill_estimator(np.ones(10**4), 0.01)

    def test_too_few_tail_samples(self):
        with pytest.raises(ValueError):
            hill_estimator(np.arange(1, 101, dtype=float), 0.1)


class TestKs:
    def test_single_sample_at_median(self):
        assert ks_distance([0.0], lambda x: norm.cdf(x)) == pytest.approx(0.5)

    def test_uniform_large_sample(self):
        rng = np.random.default_rng(13)
        assert ks_distance(rng.random(10**5), lambda x: np.clip(x, 0, 1)) < 0.01

    def test_root_n_scaling(self):
        rng = np.random.default_rng(14)
        d_small = np.median(
            [ks_distance(rng.random(100), lambda x: np.clip(x, 0, 1)) for _ in range(30)]
        )
        d_big = np.median(
            [ks_distance(rng.random(10000), lambda x: np.clip(x, 0, 1)) for _ in range(30)]
        )
        assert d_big < d_small / 5

    def test_two_sample_identical(self):
        x = np.linspace(0, 1, 50)
        assert ks_2sample(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_disjoint(self):
        assert ks_2sample([0.0, 1.0], [5.0, 6.0]) == pytest.approx(1.0)
