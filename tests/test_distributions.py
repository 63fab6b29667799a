import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from firmgrowth.distributions import (
    GseParams,
    MigParams,
    gse_pdf,
    _logsumexp_rows,
    laplace_sum_pdf,
    mig_sample,
    pareto_sample,
)
from firmgrowth.estimation import _mig_log_norm


# ---------------------------------------------------------------------------
# Pareto
# ---------------------------------------------------------------------------

class TestPareto:
    def test_inverse_cdf_at_zero_is_lower_bound(self):
        assert pareto_sample(0.0, 1.0, 2.0) == 1.0

    def test_inverse_cdf_exact_value(self):
        assert pareto_sample(0.75, 1.0, 2.0) == pytest.approx(2.0)

    def test_mean_matches_exponent_over_exponent_minus_one(self):
        # E[s] = exponent/(exponent-1) * x_min for exponent > 1
        rng = np.random.default_rng(101)
        draws = pareto_sample(rng.random(10**6), 1.0, 1.5)
        assert draws.mean() == pytest.approx(3.0, rel=0.02)

    def test_samples_above_x_min_and_ccdf(self):
        # empirical CCDF within 3 binomial standard errors at a few points
        x_min, exponent = 2.0, 1.3
        rng = np.random.default_rng(7)
        n = 10**5
        draws = pareto_sample(rng.random(n), x_min, exponent)
        assert draws.min() >= x_min
        for x in (3.0, 8.0, 30.0):
            p = (x / x_min) ** -exponent
            se = np.sqrt(p * (1 - p) / n)
            assert abs((draws > x).mean() - p) < 3 * se

    def test_python_float_stays_python_float(self):
        # the per-firm simulation loop draws its count from a Python float
        u = 0.3
        out = pareto_sample(u, 1.0, 1.2)
        assert type(out) is float
        assert out == (1.0 - u) ** (-1.0 / 1.2)


# ---------------------------------------------------------------------------
# Modified inverse gamma
# ---------------------------------------------------------------------------

def mig_cdf(x, p):
    """The MIG law's CDF from SciPy: invgamma of x + location, truncated to [location, inf)."""
    law = stats.invgamma(p.shape, scale=p.scale)
    return 1.0 - law.sf(x + p.location) / law.sf(p.location)


class TestMig:
    def test_normalization_published_params(self):
        # the normalizer on the fit path makes the density integrate to 1
        p = MigParams(4.788, 4.620, 0.326)
        a, b, m = p.scale, p.shape, p.location
        log_c = _mig_log_norm(p)
        val, _ = integrate.quad(
            lambda x: np.exp(log_c - (1.0 + b) * np.log(x + m) - a / (x + m)), 0, np.inf, limit=300
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_median_inverse_gamma_11(self):
        # closed-form CDF exp(-a/x) = 1/2 at x = 1/ln 2
        p = MigParams(1.0, 1.0, 0.0)
        assert mig_sample(p, 0.5) == pytest.approx(1 / np.log(2), rel=1e-10)

    def test_sample_ks_against_pdf(self):
        p = MigParams(4.788, 4.620, 0.326)
        rng = np.random.default_rng(3)
        draws = mig_sample(p, rng.random(10**6))
        d = np.max(np.abs(np.arange(1, draws.size + 1) / draws.size - mig_cdf(np.sort(draws), p)))
        assert d < 0.002

    def test_sample_monotone_in_u(self):
        p = MigParams(4.788, 4.620, 0.326)
        u = np.linspace(0.01, 0.99, 99)
        x = mig_sample(p, u)
        assert np.all(np.diff(x) > 0)

    def test_sample_where_the_upper_tail_rounds_to_one(self):
        # gammaincc(12, 0.05 / 1.5) rounds to 1, so inverting the upper tail
        # gives infinity for every u
        p = MigParams(0.05, 12.0, 1.5)
        assert special.gammaincc(p.shape, p.scale / p.location) == 1.0
        u = np.random.default_rng(7).random(10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = mig_sample(p, u)
        assert np.isfinite(x).all() and (x > 0).all()
        assert np.max(np.abs(mig_cdf(x, p) - u)) < 1e-9
        assert np.all(np.diff(mig_sample(p, np.linspace(0.01, 0.99, 99))) > 0)

    def test_sample_beyond_double_precision_is_error(self):
        # gammainc(200, 1e-4) underflows to 0, so neither tail can be inverted
        with pytest.raises(ValueError, match="double precision"):
            mig_sample(MigParams(0.001, 200.0, 10.0), [0.5])

    @pytest.mark.parametrize("u", [[0.5, np.nan], np.nan, [0.0], [1.0], [0.5, -np.inf]])
    def test_uniform_outside_the_open_interval_is_error(self, u):
        with pytest.raises(ValueError, match=r"uniforms must lie in \(0, 1\)"):
            mig_sample(MigParams(4.788, 4.620, 0.326), u)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MigParams(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            MigParams(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MigParams(1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# Generalized stretched exponential
# ---------------------------------------------------------------------------

class TestGse:
    def test_center_value_is_amplitude(self):
        p = GseParams(0.7, 1.0, 0.3, 2.0, 0.5)
        assert gse_pdf(p.center, p) == pytest.approx(p.amplitude, rel=1e-12)

    def test_stretch_two_is_gaussian(self):
        p = GseParams(1.0, 0.9, 0.1, 1.7, 2.0)
        x = np.linspace(-5, 5, 101)
        ref = np.exp(-((x - p.center) ** 2) / (4 * p.core_width**2))
        assert np.max(np.abs(gse_pdf(x, p) - ref)) < 1e-12

    def test_published_fit_value_at_zero(self):
        # heterogeneous-rescaling reference fit, by direct substitution
        p = GseParams(0.494, 0.863, 0.023, 1.777, 0.407)
        expect = 0.494 * np.exp(-(0.023**2) / (2 * 0.863**2))
        assert gse_pdf(0.0, p) == pytest.approx(expect, rel=1e-12)
        assert gse_pdf(0.0, p) == pytest.approx(0.4938, abs=2e-4)

    def test_symmetric_for_centered_params(self):
        p = GseParams(0.5, 0.9, 0.0, 1.8, 0.4)
        x = np.linspace(0.1, 7, 25)
        assert np.max(np.abs(gse_pdf(x, p) - gse_pdf(-x, p))) < 1e-14


# ---------------------------------------------------------------------------
# Laplace sums
# ---------------------------------------------------------------------------

class TestLaplaceSum:
    def test_k1_peak(self):
        assert laplace_sum_pdf(1, 0.0) == pytest.approx(np.sqrt(2) / 2, rel=1e-12)

    def test_k1_is_laplace(self):
        y = np.linspace(-4, 4, 41)
        ref = (np.sqrt(2) / 2) * np.exp(-np.sqrt(2) * np.abs(y))
        assert np.max(np.abs(laplace_sum_pdf(1, y) - ref)) < 1e-12

    def test_k2_matches_self_convolution(self):
        # the k=2 law is the distribution of (Y1+Y2)/sqrt(2) with Yi ~ k=1 law
        y = np.linspace(-6, 6, 121)
        conv = np.array(
            [
                integrate.quad(
                    lambda t, yy=yy: laplace_sum_pdf(1, t) * laplace_sum_pdf(1, np.sqrt(2) * yy - t),
                    -40.0,
                    40.0,
                    points=sorted({0.0, float(np.sqrt(2) * yy)}),
                    limit=400,
                    epsabs=1e-13,
                    epsrel=1e-12,
                )[0]
                for yy in y
            ]
        )
        assert np.max(np.abs(laplace_sum_pdf(2, y) - np.sqrt(2) * conv)) < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_normalized_and_unit_variance(self, k):
        total, _ = integrate.quad(lambda yy: laplace_sum_pdf(k, yy), -40, 40, limit=400)
        var, _ = integrate.quad(lambda yy: yy * yy * laplace_sum_pdf(k, yy), -40, 40, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-3)

    def test_symmetry(self):
        y = np.linspace(0.2, 5, 17)
        assert np.array_equal(laplace_sum_pdf(4, y), laplace_sum_pdf(4, -y))

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 100])
    def test_logsumexp_is_scipys_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, 20_000)) * 10.0 ** rng.uniform(-3, 3, 20_000)
        a[:, :2_000] = np.round(a[:, :2_000])         # ties, often at the maximum
        a[:, 2_000:2_100] = 1.5                       # every entry a maximum
        a[-1, 2_100:4_000] = a[:, 2_100:4_000].max(axis=0)  # a tie with an earlier row
        a[0, 4_001], a[-1, 4_002] = np.inf, np.nan    # SciPy's inf and NaN
        a[0, 4_003] = -np.inf if k > 1 else 0.0       # no column of -inf alone
        y = np.linspace(-30.0, 30.0, 20_001)          # and the terms laplace_sum_pdf sums
        terms = np.log(rng.uniform(1.0, 2.0, (k, 1))) + np.arange(k)[:, None] * np.log(
            np.maximum(np.sqrt(2.0 * k) * np.abs(y), 1e-300))
        for case in (a, terms, a[:, :1]):
            with np.errstate(invalid="ignore"):
                ref = special.logsumexp(case, axis=0)
            assert _logsumexp_rows(case).tobytes() == ref.tobytes()
        with np.errstate(invalid="ignore"):
            assert np.isnan(laplace_sum_pdf(k, [np.nan, np.inf, -np.inf])).all()

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            laplace_sum_pdf(0, 0.0)
