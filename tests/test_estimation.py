import warnings

import numpy as np
import pytest
from scipy.stats import invgamma, norm

from firmgrowth.analysis import (
    DensityEstimate,
    binned_volatility_moments,
    equal_count_bins,
    kde_gaussian,
)
from firmgrowth.distributions import GseParams, MigParams, gse_pdf, mig_sample
from firmgrowth.estimation import (
    _mig_nll,
    _moment_init,
    fit_gse_nls,
    firm_size_volatility,
    fit_mig_mle,
    gaussian_mass_fraction,
    leave_one_out_rescale,
    mad_volatility,
    power_law_exponent_profile,
)


class TestVolatilityProxies:
    def test_mad_constant_series(self):
        assert mad_volatility([2.0, 2.0, 2.0]) == 0.0

    def test_mad_plus_minus_one(self):
        assert mad_volatility([-1.0, 1.0]) == pytest.approx(np.sqrt(np.pi / 2))

    def test_mad_unbiased_for_gaussian_sd(self):
        rng = np.random.default_rng(0)
        sigma = 0.37
        assert mad_volatility(rng.normal(0, sigma, 10**6)) == pytest.approx(sigma, rel=0.005)

    def test_mad_needs_two(self):
        with pytest.raises(ValueError):
            mad_volatility([1.0])

    def test_scale_equivariance_translation_invariance(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(40)
        assert mad_volatility(5.0 * g) == pytest.approx(5.0 * mad_volatility(g), rel=1e-12)
        assert mad_volatility(g + 17.0) == pytest.approx(mad_volatility(g), rel=1e-9)


class TestFirmSizeVolatility:
    def test_gap_splits_growth_pairs(self):
        # firm 1 skips period 2: its rates come only from 0->1 and 3->4, never
        # from the two-period change 1->3; firm 2 has no adjacent periods
        firm_id = np.array([1, 1, 1, 1, 2, 2, 2])
        period = np.array([0, 1, 3, 4, 0, 2, 4])
        size = np.array([1.0, 2.0, 8.0, 6.0, 1.0, 1.0, 1.0])
        sizes, vols, dropped = firm_size_volatility(firm_id, period, size)
        assert sizes.tolist() == [np.mean([1.0, 2.0, 8.0, 6.0])]
        assert vols.tolist() == [mad_volatility([2.0 / 1.0 - 1.0, 6.0 / 8.0 - 1.0])]
        assert dropped == 1

    def test_duplicate_period_rejected(self):
        with pytest.raises(ValueError, match="duplicate rows for firm_id 1, period 1"):
            firm_size_volatility(np.array([1, 1, 1]), np.array([0, 1, 1]), np.ones(3))


class TestLeaveOneOut:
    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal(30)
        base = leave_one_out_rescale(g)
        scaled = leave_one_out_rescale(3.0 * g + 0.7)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_degenerate_element_is_missing(self):
        out = leave_one_out_rescale([0.0, 0.0, 5.0])
        assert np.isnan(out[2])
        assert np.all(np.isfinite(out[:2]))

    def test_self_consistency_large_gaussian(self):
        rng = np.random.default_rng(3)
        out = leave_one_out_rescale(rng.standard_normal(10**5))
        assert abs(out.mean()) < 0.01
        assert mad_volatility(out) == pytest.approx(1.0, abs=0.01)

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(12)
        fast = leave_one_out_rescale(g)
        for t in range(12):
            rest = np.delete(g, t)
            m = rest.mean()
            mad = np.sqrt(np.pi / 2) * np.mean(np.abs(rest - m))
            assert fast[t] == pytest.approx((g[t] - m) / mad, rel=1e-10)

    def test_needs_three(self):
        with pytest.raises(ValueError):
            leave_one_out_rescale([1.0, 2.0])


class TestMigMle:
    def test_recovers_published_params(self):
        p = MigParams(4.788, 4.620, 0.326)
        rng = np.random.default_rng(5)
        x = mig_sample(p, rng.random(24_000))
        fit = fit_mig_mle(x)
        assert fit.converged
        assert abs(fit.params["shape"] - p.shape) < 3 * fit.se["shape"]
        assert fit.params["scale"] == pytest.approx(p.scale, rel=0.15)

    def test_plain_inverse_gamma_location_shrinks_to_zero(self):
        p = MigParams(3.0, 2.5, 0.0)
        rng = np.random.default_rng(6)
        x = mig_sample(p, rng.random(20_000))
        fit = fit_mig_mle(x)
        assert fit.converged
        # a boundary estimate (location exactly 0) has no Wald s.e. and is
        # reported without one; otherwise the estimate must sit within s.e.
        if "location" in fit.se:
            tol = max(3 * fit.se["location"], 0.02)
            assert abs(fit.params["location"]) < tol
        else:
            assert fit.params["location"] == 0.0

    def test_objective_not_worse_than_init(self):
        p = MigParams(4.0, 4.0, 0.3)
        rng = np.random.default_rng(7)
        x = mig_sample(p, rng.random(2_000))
        fit = fit_mig_mle(x)
        assert fit.objective <= _mig_nll(_moment_init(x), x) + 1e-9

    @pytest.mark.parametrize("params", [(4.0, 4.0, 0.3), (2.5, 0.7, 0.0), (0.5, 3.0, 0.2)])
    def test_nll_is_minus_summed_logpdf(self, params):
        a, b, m = params
        x = mig_sample(MigParams(*params), np.random.default_rng(5).random(2000))
        # SciPy's inverse gamma law of x + m, truncated to [m, inf)
        law = invgamma(b, scale=a)
        expect = -(law.logpdf(x + m) - np.log(law.sf(m))).sum()
        assert _mig_nll(np.array(params), x) == pytest.approx(expect, rel=1e-12)

    def test_nll_infinite_where_lower_gamma_vanishes(self):
        # gammainc(200, 1e-6) underflows to 0, so the density has no normalizer
        x = np.linspace(0.1, 5.0, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _mig_nll(np.array([1e-6, 200.0, 1.0]), x) == np.inf
            assert _mig_nll(np.array([np.nan, 1.0, 0.5]), x) == np.inf

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_mig_mle(np.ones(99) + np.arange(99) * 0.01)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_mig_mle(np.concatenate([np.full(200, 0.5), [-1.0]]))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "samples must be finite"), (np.inf, "samples must be finite"),
        (-np.inf, "samples must be positive"), (0.0, "samples must be positive"),
    ])
    def test_non_finite_rejected(self, bad, message):
        x = np.exp(np.random.default_rng(3).normal(0.0, 0.5, 500))
        with pytest.raises(ValueError, match=message):
            fit_mig_mle(np.append(x, bad))


class TestGseNls:
    def test_zero_residual_self_fit(self):
        truth = GseParams(0.5, 0.9, 0.0, 1.8, 0.4)
        grid = np.linspace(-8, 8, 1001)
        density = DensityEstimate(grid, gse_pdf(grid, truth))
        fit = fit_gse_nls(density)
        assert fit.converged
        assert fit.objective < 1e-10
        for name, val in (
            ("amplitude", 0.5),
            ("core_width", 0.9),
            ("center", 0.0),
            ("crossover", 1.8),
            ("stretch", 0.4),
        ):
            assert fit.params[name] == pytest.approx(val, abs=1e-6)

    def test_gaussian_data_fit_is_exact(self):
        # at a pure Gaussian the family is degenerate (stretch = 2 with any
        # crossover, or crossover -> inf with any stretch, both work), so
        # assert the fitted curve rather than the parameter vector
        grid = np.linspace(-8, 8, 801)
        density = DensityEstimate(grid, norm.pdf(grid))
        fit = fit_gse_nls(density)
        assert fit.converged
        assert fit.objective < 1e-12
        fitted = gse_pdf(grid, GseParams(**fit.params))
        assert np.max(np.abs(fitted - norm.pdf(grid))) < 1e-7

    def test_grid_must_cover_window(self):
        grid = np.linspace(-4, 4, 101)
        with pytest.raises(ValueError):
            fit_gse_nls(DensityEstimate(grid, np.exp(-grid * grid)))

    def test_fit_on_kde_of_gse_samples(self):
        # sample from a normalized GSE-like target via rejection, then refit
        truth = GseParams(0.45, 1.0, 0.0, 2.0, 0.5)
        rng = np.random.default_rng(8)
        xs = rng.uniform(-8, 8, 4 * 10**6)
        keep = rng.random(xs.size) * (truth.amplitude * 1.05) < gse_pdf(xs, truth)
        x = xs[keep]
        grid = np.linspace(-8.5, 8.5, 2001)
        fit = fit_gse_nls(kde_gaussian(x, grid))
        assert fit.converged
        assert fit.params["stretch"] == pytest.approx(truth.stretch, abs=0.15)
        assert fit.params["crossover"] == pytest.approx(truth.crossover, rel=0.25)
        assert GseParams(**fit.params).stretch == fit.params["stretch"]


class TestGaussianMass:
    def test_normal_quantile(self):
        grid = np.linspace(-9, 9, 4001)
        density = DensityEstimate(grid, norm.pdf(grid))
        assert gaussian_mass_fraction(density, 1.96) == pytest.approx(0.95, abs=1e-3)

    def test_small_window_vanishes(self):
        grid = np.linspace(-9, 9, 4001)
        density = DensityEstimate(grid, norm.pdf(grid))
        assert gaussian_mass_fraction(density, 1e-3) < 0.001

    def test_narrow_grid_rejected(self):
        grid = np.linspace(-1, 1, 101)
        density = DensityEstimate(grid, np.full(101, 0.5))
        with pytest.raises(ValueError):
            gaussian_mass_fraction(density, 2.0)


class TestExponentProfile:
    def test_pure_power_law_slopes(self):
        sizes = np.logspace(0, 3, 25)
        vols = sizes**-0.2
        mean_size, moments = binned_volatility_moments(
            equal_count_bins(sizes, 25), sizes, vols, [1, 2, 3, 4]
        )
        profile = power_law_exponent_profile(mean_size, moments)
        assert list(profile) == [1, 2, 3, 4]
        for q, target in ((1, -0.2), (2, -0.4), (3, -0.6), (4, -0.8)):
            assert profile[q].slope == pytest.approx(target, abs=1e-10)
            assert profile[q].r2 == pytest.approx(1.0, abs=1e-10)
