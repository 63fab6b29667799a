import numpy as np
import pytest

from firmgrowth import model
from firmgrowth.analysis import equal_count_bins, hill_estimator, ks_distance, loglog_ols
from firmgrowth.cli import write_table_csv
from firmgrowth.model import (
    FirmPopulation,
    FixedCount,
    ModelParams,
    Panel,
    ParetoCount,
    _philox_doubles,
    aggregate_firms,
    draw_population,
    few_subunit_tail_slope,
    fraction_few_subunits,
    sample_firm_stats,
    shocks_from_uniforms,
    simulate_panel,
)


def firm_stream(seed, firm_id):
    """Firm `firm_id`'s own generator: Philox keyed by (firm_id << 64) | (seed mod 2**64)."""
    return np.random.Generator(np.random.Philox(key=(int(firm_id) << 64) | (int(seed) % 2**64)))


def wb_params(mu=1.6, alpha=1.2, sigma0=0.1):
    return ModelParams(mu=mu, alpha=alpha, sigma0=sigma0, k_mode=ParetoCount())


def one_firm(sizes):
    return FirmPopulation(sizes, [len(sizes)])


def firm_sizes(pop, i):
    """Sub-unit sizes of firm i, sliced straight from the flat layout."""
    return pop.sub_unit_sizes[pop.offsets[i] : pop.offsets[i + 1]]


class TestParams:
    def test_mu_range(self):
        with pytest.raises(ValueError):
            ModelParams(mu=2.0)
        with pytest.raises(ValueError):
            ModelParams(mu=1.0)

    def test_pareto_count_needs_alpha_below_mu(self):
        with pytest.raises(ValueError):
            ModelParams(mu=1.5, alpha=1.7, k_mode=ParetoCount())
        with pytest.raises(ValueError):
            ModelParams(mu=1.5, k_mode=ParetoCount())

    def test_shock_law_validation(self):
        with pytest.raises(ValueError):
            ModelParams(mu=1.5, shock_law="uniform")
        with pytest.raises(ValueError):
            ModelParams(mu=1.5, shock_law="student_t", student_dof=2.0)


class TestShocks:
    @pytest.mark.parametrize("law,dof", [("gaussian", 5.0), ("laplace", 5.0), ("student_t", 6.0)])
    def test_unit_variance_zero_mean(self, law, dof):
        rng = np.random.default_rng(5)
        x = shocks_from_uniforms(rng.random(10**6), law, dof)
        assert abs(x.mean()) < 0.005
        assert x.var() == pytest.approx(1.0, rel=0.01)


class TestHhi:
    def test_single_subunit(self):
        assert one_firm([1.0]).hhi()[0] == 1.0

    def test_equal_split(self):
        assert one_firm([1.0, 1.0, 1.0, 1.0]).hhi()[0] == pytest.approx(0.25)

    def test_three_one(self):
        assert one_firm([3.0, 1.0]).hhi()[0] == pytest.approx(0.625)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = rng.integers(1, 30)
            s = rng.random(k) + 0.01
            h = one_firm(s).hhi()[0]
            assert 1.0 / k - 1e-12 <= h <= 1.0 + 1e-12


class TestGrowthRate:
    def test_cancellation(self):
        assert one_firm([2.0, 2.0]).growth_rates([1.0, -1.0], 0.1)[0] == pytest.approx(0.0)

    def test_single_unit(self):
        assert one_firm([1.0]).growth_rates([0.37], 0.1)[0] == pytest.approx(0.037)

    def test_weights_sum_to_one(self):
        assert one_firm([3.0, 1.0]).growth_rates([1.0, 1.0], 0.1)[0] == pytest.approx(0.1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.random(7) + 0.1
        eta = rng.standard_normal(7)
        assert one_firm(s).growth_rates(eta, 0.2) == pytest.approx(
            one_firm(10.0 * s).growth_rates(eta, 0.2)
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            one_firm([1.0, 2.0]).growth_rates([1.0], 0.1)


class TestDrawFirm:
    def test_fixed_count_one(self):
        p = ModelParams(mu=1.5, k_mode=FixedCount(1))
        pop = draw_population(p, 1, np.random.default_rng(0))
        assert pop.counts.tolist() == [1] and pop.sizes()[0] >= p.s0

    def test_pareto_count_ccdf(self):
        p = wb_params(mu=1.6, alpha=1.2)
        rng = np.random.default_rng(2)
        pop = draw_population(p, 10**6, rng)
        k = pop.counts
        # ceil of a continuous Pareto: P(K >= j) = (j-1)^-alpha for j >= 2
        assert k.min() >= 2  # ceil of a variable on (1, inf) is at least 2
        for j in (3, 5, 20, 100):
            target = (j - 1.0) ** -p.alpha
            se = np.sqrt(target * (1 - target) / k.size)
            assert abs((k >= j).mean() - target) < 4 * se

    def test_lln_firm_size(self):
        p = ModelParams(mu=1.5, k_mode=FixedCount(10**4))
        pop = draw_population(p, 1, np.random.default_rng(3))
        assert pop.sizes()[0] / 10**4 == pytest.approx(3.0, rel=0.05)

    def test_population_matches_single_draws(self):
        p = wb_params()
        pop = draw_population(p, 5, np.random.default_rng(9))
        assert pop.n_firms == 5
        firms = [firm_sizes(pop, i) for i in range(5)]
        assert pop.sizes() == pytest.approx([s.sum() for s in firms])
        assert pop.hhi() == pytest.approx([(s**2).sum() / s.sum() ** 2 for s in firms])

    def test_sizes_are_summed_once_and_read_only(self):
        pop = draw_population(wb_params(), 5, np.random.default_rng(9))
        sizes = pop.sizes()
        assert pop.sizes() is sizes
        with pytest.raises(ValueError):
            sizes[0] = 1.0


class TestStreams:
    def test_philox_doubles_match_fresh_streams(self):
        # three kernel chunks of blocks, the last one partial
        n_blocks = 2 * model._PHILOX_CHUNK + 5
        for fid in (0, 1, 17, 2**40):
            blocks = _philox_doubles(987654321, np.full(n_blocks, fid), np.arange(n_blocks))
            stream = firm_stream(987654321, fid).random(4 * n_blocks - 3)
            assert blocks.ravel()[: stream.size].tobytes() == stream.tobytes()

    def test_distinct_firms_distinct_streams(self):
        a = firm_stream(1, 0).random(4)
        b = firm_stream(1, 1).random(4)
        assert not np.array_equal(a, b)


class TestSimulatePanel:
    def test_zero_sigma_constant_sizes(self):
        p = ModelParams(mu=1.5, sigma0=0.0, k_mode=FixedCount(3))
        panel, clamp_count = simulate_panel(p, 10, 5, seed=1)
        for i in range(10):
            s = panel.size[panel.firm_id == i]
            assert np.allclose(s, s[0])
        assert clamp_count == 0

    def test_record_count(self):
        p = wb_params()
        panel, _ = simulate_panel(p, 7, 4, seed=2)
        assert panel.n_records == 28

    def test_one_period_growth_variance(self):
        # single sub-unit of size 1: relative growth variance = sigma0^2
        p = ModelParams(mu=1.5, sigma0=0.05, k_mode=FixedCount(1))
        panel, _ = simulate_panel(p, 10**5, 2, seed=3)
        s0 = panel.size[panel.period == 0]
        s1 = panel.size[panel.period == 1]
        g = (s1 - s0) / s0
        assert g.var() == pytest.approx(p.sigma0**2, rel=0.03)

    def test_deterministic_given_seed(self):
        p = wb_params()
        a, _ = simulate_panel(p, 50, 6, seed=11)
        b, _ = simulate_panel(p, 50, 6, seed=11)
        assert np.array_equal(a.size, b.size)

    def test_csv_roundtrip(self, tmp_path):
        p = wb_params()
        panel, _ = simulate_panel(p, 5, 3, seed=4)
        path = tmp_path / "panel.csv"

        def write(rows):  # as simulate writes panel.csv
            write_table_csv(path, ["firm_id", "period", "size"],
                            [panel.firm_id[rows], panel.period[rows], panel.size[rows]])

        write(slice(None))
        back = Panel.read_csv(path)
        assert np.array_equal(back.firm_id, panel.firm_id)
        assert np.array_equal(back.size, panel.size)
        # a single row
        write(slice(1))
        one = Panel.read_csv(path)
        assert (one.firm_id.tolist(), one.period.tolist()) == ([0], [0])
        assert one.size.tobytes() == panel.size[:1].tobytes()
        # columns are found by name, whatever their order
        lines = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(f"{s},{f},{t}\n" for f, t, s in lines))
        swapped = Panel.read_csv(path)
        assert swapped.firm_id.tolist() == [0] and swapped.size.tolist() == one.size.tolist()

    def test_select(self):
        panel, _ = simulate_panel(wb_params(), 4, 3, seed=4)
        assert len(panel) == panel.n_records == 12
        later = panel.select(panel.period >= 1)
        assert later.period.tolist() == [1, 2] * 4
        assert later.size.tobytes() == panel.size[panel.period >= 1].tobytes()
        quarterly = Panel(["b", "a"], [8000, 8001], [1.0, 2.0])
        swapped = quarterly.select([1, 0])  # an index array picks rows in its order
        assert swapped.firm_id.tolist() == ["a", "b"] and swapped.period.tolist() == [8001, 8000]
        assert quarterly.firm_id.tolist() == ["b", "a"]
        with pytest.raises(ValueError, match="equal length"):
            Panel(["a"], [8000], [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_panel(wb_params(), 0, 5, seed=1)
        with pytest.raises(ValueError):
            simulate_panel(wb_params(), 5, 1, seed=1)


class TestFractionFewSubunits:
    def test_all_single_unit_firms(self):
        p = ModelParams(mu=1.5, k_mode=FixedCount(1))
        pop = draw_population(p, 2000, np.random.default_rng(5))
        edges = np.logspace(0, 1.5, 6)
        _, frac, n = fraction_few_subunits(pop, edges, 2)
        assert np.all((frac[n > 0] == 1.0))

    def test_fixed_large_k_fraction_zero(self):
        p = ModelParams(mu=1.5, k_mode=FixedCount(5))
        pop = draw_population(p, 2000, np.random.default_rng(6))
        edges = np.logspace(0, 3, 6)
        _, frac, n = fraction_few_subunits(pop, edges, 2)
        assert np.all(frac[n > 0] == 0.0)

    def test_empty_bins_are_nan(self):
        p = ModelParams(mu=1.5, k_mode=FixedCount(1))
        pop = draw_population(p, 100, np.random.default_rng(7))
        edges = np.array([1e6, 1e7])
        ms, frac, n = fraction_few_subunits(pop, edges, 2)
        assert np.isnan(frac[0]) and n[0] == 0

    def test_pi_slope_oracle(self):
        # relative weight of few-sub-unit firms falls off as size^(alpha - mu)
        p = wb_params(mu=1.8, alpha=1.2)
        pop = draw_population(p, 10**6, np.random.default_rng(8))
        slope, n_used, _ = few_subunit_tail_slope(pop, 2)
        assert n_used >= 3
        assert slope == pytest.approx(p.alpha - p.mu, abs=0.1)


class TestAggregateFirms:
    def test_identity_group_size_one(self):
        p = wb_params()
        pop = draw_population(p, 100, np.random.default_rng(9))
        merged = aggregate_firms(pop, 1, np.random.default_rng(10))
        assert sorted(merged.counts.tolist()) == sorted(pop.counts.tolist())
        assert merged.sizes().sum() == pytest.approx(pop.sizes().sum(), rel=1e-15)

    def test_total_size_conserved_exactly(self):
        p = wb_params()
        pop = draw_population(p, 101, np.random.default_rng(11))
        merged = aggregate_firms(pop, 2, np.random.default_rng(12))
        # conservation is exact as a multiset; a float sum can differ by
        # reordering round-off on larger populations
        assert np.array_equal(
            np.sort(merged.sub_unit_sizes), np.sort(pop.sub_unit_sizes)
        )
        assert merged.n_firms == 51  # remainder forms a final smaller group

    def test_merged_counts_are_sums(self):
        p = wb_params()
        pop = draw_population(p, 40, np.random.default_rng(13))
        merged = aggregate_firms(pop, 4, np.random.default_rng(14))
        assert merged.counts.sum() == pop.counts.sum()
        assert merged.n_firms == 10

    def test_tail_statistics_survive_pair_merging(self):
        # merging pairs must preserve the size-tail index and the
        # volatility-size scaling within joint statistical error
        p = wb_params(mu=1.6, alpha=1.2)
        pop = draw_population(p, 300_000, np.random.default_rng(30))
        merged = aggregate_firms(pop, 2, np.random.default_rng(31))

        def stats(population):
            # compare over quantile-matched windows: merging doubles sizes,
            # so a fixed absolute window would sample a different regime
            sizes = population.sizes()
            vols = p.sigma0 * np.sqrt(population.hhi())
            hill, hill_se = hill_estimator(sizes, 0.01)
            keep = sizes >= np.quantile(sizes, 0.8)
            bins = equal_count_bins(sizes[keep], 15)
            ms = np.array([s.mean() for s in bins.split(sizes[keep])])
            mv = np.array([v.mean() for v in bins.split(vols[keep])])
            fit = loglog_ols(ms, mv)
            return hill, hill_se, fit.slope, fit.se

        h1, se1, s1, sse1 = stats(pop)
        h2, se2, s2, sse2 = stats(merged)
        assert abs(h1 - h2) < 2 * np.hypot(se1, se2)
        assert abs(s1 - s2) < 2 * np.hypot(sse1, sse2) + 0.02

    def test_group_size_too_large(self):
        p = wb_params()
        pop = draw_population(p, 10, np.random.default_rng(15))
        with pytest.raises(ValueError):
            aggregate_firms(pop, 11, np.random.default_rng(16))


class TestConditionalHhiMoments:
    def test_k1_degenerate(self):
        p = ModelParams(mu=1.5)
        sizes, h = sample_firm_stats(p, 1, 100, np.random.default_rng(0))
        assert np.all(sizes >= p.s0) and np.all(h == 1.0)

    def test_mean_hhi_slope(self):
        # E[H|K] ~ K^(1-mu)
        p = ModelParams(mu=1.5)
        rng = np.random.default_rng(17)
        ks = [2**j for j in range(6, 13)]
        means = [sample_firm_stats(p, k, 4000, rng)[1].mean() for k in ks]
        fit = loglog_ols(np.array(ks, dtype=float), np.array(means))
        assert fit.slope == pytest.approx(1.0 - p.mu, abs=0.05)

    def test_sqrt_hhi_slope(self):
        # E[sqrt(H)|K] ~ K^((1-mu)/mu)
        p = ModelParams(mu=1.5)
        rng = np.random.default_rng(18)
        ks = [2**j for j in range(6, 13)]
        means = [np.sqrt(sample_firm_stats(p, k, 4000, rng)[1]).mean() for k in ks]
        fit = loglog_ols(np.array(ks, dtype=float), np.array(means))
        assert fit.slope == pytest.approx((1.0 - p.mu) / p.mu, abs=0.05)


class TestPopulationInvariants:
    def test_size_tail_hill_in_wb_mode(self):
        # dominant size tail has the count exponent alpha
        p = wb_params(mu=1.6, alpha=1.2)
        pop = draw_population(p, 10**6, np.random.default_rng(19))
        index, se = hill_estimator(pop.sizes(), 0.01)
        assert index == pytest.approx(p.alpha, abs=0.15)

    def test_median_hhi_typical_scaling(self):
        # median H ~ K^(2(1-mu)/mu)
        p = ModelParams(mu=1.5)
        rng = np.random.default_rng(20)
        ks = [2**j for j in range(6, 13)]
        med = [np.median(sample_firm_stats(p, k, 10**4, rng)[1]) for k in ks]
        fit = loglog_ols(np.array(ks, dtype=float), np.array(med))
        assert fit.slope == pytest.approx(2 * (1 - p.mu) / p.mu, abs=0.07)

    def test_growth_rates_gaussian_for_fixed_firm(self):
        # with Gaussian shocks, g / (sigma0 sqrt(H)) is exactly standard normal
        p = ModelParams(mu=1.5, sigma0=0.08, k_mode=FixedCount(64))
        rng = np.random.default_rng(21)
        s = draw_population(p, 1, rng).sub_unit_sizes
        reps = 10**4
        eta = rng.standard_normal((reps, s.size))
        g = p.sigma0 * (eta @ s) / s.sum()
        z = g / (p.sigma0 * np.sqrt((s**2).sum() / s.sum() ** 2))
        from scipy.stats import kstest

        assert kstest(z, "norm").pvalue > 0.01

    def test_population_growth_rates_match_scalar_op(self):
        p = wb_params()
        pop = draw_population(p, 20, np.random.default_rng(22))
        eta = np.random.default_rng(23).standard_normal(pop.sub_unit_sizes.size)
        g = pop.growth_rates(eta, p.sigma0)
        for i in (0, 7, 19):
            s = firm_sizes(pop, i)
            shocks = eta[pop.offsets[i] : pop.offsets[i + 1]]
            assert g[i] == pytest.approx(p.sigma0 * (s * shocks).sum() / s.sum())

    def test_firm_validation(self):
        with pytest.raises(ValueError):
            FirmPopulation([], [0])
        with pytest.raises(ValueError):
            FirmPopulation([1.0, 2.0], [3])
