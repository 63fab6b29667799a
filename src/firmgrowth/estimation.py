"""Volatility proxies, leave-one-out rescaling, and parametric fits.

The two fitted families are the modified inverse gamma (maximum likelihood on
positive samples) and the generalized stretched exponential (nonlinear least
squares against a kernel density estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy

from firmgrowth.analysis import DensityEstimate, loglog_ols
from firmgrowth.distributions import GseParams, MigParams, gse_pdf
from firmgrowth.groups import _BLOCK, Groups

_ADJ = np.sqrt(np.pi / 2.0)


# ---------------------------------------------------------------------------
# Volatility proxies
# ---------------------------------------------------------------------------

def mad_volatility(growth_rates):
    """Adjusted mean absolute deviation: sqrt(pi/2) * mean |g - gbar|.

    The sqrt(pi/2) factor makes the statistic an unbiased estimate of the
    standard deviation under Gaussian sampling.  It reduces over the last
    axis, so a 2-D array gives one volatility per row.
    """
    g = np.asarray(growth_rates, dtype=float)
    if g.ndim == 0 or g.shape[-1] < 2:
        raise ValueError("need at least 2 observations")
    vol = _ADJ * np.mean(np.abs(g - g.mean(axis=-1, keepdims=True)), axis=-1)
    return float(vol) if g.ndim == 1 else vol


def leave_one_out_rescale(series):
    """Standardize each element with mean and adjusted MAD of the others.

    Element t becomes (g_t - mean_{-t}) / mad_{-t}, where both statistics are
    computed on the series with element t removed (the mean inside the MAD is
    the leave-one-out mean as well).  Elements whose leave-one-out MAD is zero
    come back as NaN; needs at least 3 observations.  A 2-D array is
    rescaled row by row, one series per row, in blocks of about ``_BLOCK``
    elements: each row's arithmetic is its own, so a block gives the same bits.
    """
    g = np.asarray(series, dtype=float)
    n = g.shape[-1] if g.ndim else 0
    if n < 3:
        raise ValueError("need at least 3 observations")
    if g.ndim == 1:
        return _loo_rows(g)
    out = np.empty(g.shape)
    rows = max(1, _BLOCK // n)
    for a in range(0, len(g), rows):
        out[a : a + rows] = _loo_rows(g[a : a + rows])
    return out


def _loo_rows(g):
    n = g.shape[-1]
    loo_mean = (g.sum(axis=-1, keepdims=True) - g) / (n - 1)
    # sum over t' of |g_t' - m| via sorted prefix sums, O(n log n) overall
    srt = np.sort(g, axis=-1)
    pref = np.concatenate((np.zeros_like(srt[..., :1]), np.cumsum(srt, axis=-1)), axis=-1)
    below = _count_at_most(srt, loo_mean)
    pref_below = np.take_along_axis(pref, below, axis=-1)
    abs_sum = (
        loo_mean * below - pref_below + (pref[..., -1:] - pref_below) - loo_mean * (n - below)
    )
    own = np.abs(g - loo_mean)
    mad = _ADJ * (abs_sum - own) / (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mad > 0, (g - loo_mean) / mad, np.nan)


def _count_at_most(sorted_rows, x):
    """Row by row, how many entries of ``sorted_rows`` are <= each entry of ``x``.

    The same count as ``np.searchsorted(row, x_row, side="right")`` for every
    row at once: a stable sort of each row followed by its queries keeps the
    row's entries ahead of equal queries.
    """
    n = sorted_rows.shape[-1]
    merged = np.argsort(np.concatenate((sorted_rows, x), axis=-1), axis=-1, kind="stable")
    is_query = merged >= n
    entries_so_far = np.cumsum(~is_query, axis=-1)
    out = np.empty(x.shape, dtype=np.intp)
    np.put_along_axis(
        out,
        (merged[is_query] - n).reshape(x.shape),
        entries_so_far[is_query].reshape(x.shape),
        axis=-1,
    )
    return out


def firm_groups(firm_id, period):
    """:meth:`Groups.by_firm` of rows in any order; a repeated (firm, period) raises ValueError."""
    firms, repeat = Groups.by_firm(firm_id, period)
    if repeat:
        first, second = repeat
        raise ValueError(
            f"row {second + 1}: duplicate rows for firm_id {firm_id[first]},"
            f" period {period[first]} (first seen at row {first + 1})"
        )
    return firms


def firm_size_volatility(firm_id, period, size):
    """Each firm's mean size and the adjusted MAD of its one-period growth rates.

    Growth rates s_{t+1} / s_t - 1 come only from pairs of a firm's rows
    exactly one period apart, so a gap in a firm's periods never passes for
    a one-period change.  Firms with fewer than two such rates are dropped.
    Rows are indexed once by :func:`firm_groups`; the pairing, the growths and
    both reductions then run on blocks of whole firms of about ``_BLOCK // 4``
    rows (:meth:`Groups.blocks`), each firm's arithmetic its own.  Returns
    ``(mean_sizes, volatilities, n_dropped)``, kept firms in ascending id order.
    """
    firm_id, period, size = map(np.asarray, (firm_id, period, size))
    firms = firm_groups(firm_id, period)
    mean_sizes, vols = [np.empty(0)], [np.empty(0)]
    for rows, block in firms.blocks(_BLOCK // 4):
        s = size[rows]
        later = block.lag_pairs(period[rows], 1)
        paired = later >= 0
        growth = np.zeros(s.size)
        growth[paired] = s[later[paired]] / s[paired] - 1.0
        rated = block.rows(paired)
        kept = rated.counts >= 2
        mean_sizes.append(block.select(kept).reduce(s, lambda x: x.mean(axis=-1)))
        vols.append(rated.select(kept).reduce(growth, mad_volatility))
    mean_sizes = np.concatenate(mean_sizes)
    return mean_sizes, np.concatenate(vols), firms.keys.size - mean_sizes.size


# ---------------------------------------------------------------------------
# Fit results
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    params: dict
    se: dict | None
    objective: float
    n_obs: int
    converged: bool


# ---------------------------------------------------------------------------
# Modified inverse gamma maximum likelihood
# ---------------------------------------------------------------------------

def _mig_log_norm(p: MigParams):
    # density = C * (x+m)^-(1+b) * exp(-a/(x+m)) with
    # C = a^b / (Gamma(b) - Gamma(b, a/m)); the bracket is the lower
    # incomplete gamma evaluated at a/m, so C reduces to a^b/Gamma(b) at m=0.
    a, b, m = p.scale, p.shape, p.location
    log_c = b * np.log(a) - scipy.special.gammaln(b)
    if m > 0:
        log_c -= np.log(scipy.special.gammainc(b, a / m))
    return log_c


def _mig_nll(theta, x, work=None):
    """The negative log likelihood; `work`, an array shaped like `x`, holds the
    temporaries, so repeated calls allocate nothing the size of `x`."""
    a, b, m = theta
    if not (a > 0 and b > 0 and m >= 0):
        return np.inf
    # a lower incomplete gamma of 0 makes log_c +inf, and the value inf below
    with np.errstate(divide="ignore"):
        log_c = _mig_log_norm(MigParams(a, b, m))
    y = np.add(x, m, out=work)
    log_sum = np.log(y, out=y).sum()
    inv_sum = np.divide(1.0, np.add(x, m, out=y), out=y).sum()
    val = -(x.size * log_c) + (1.0 + b) * log_sum + a * inv_sum
    return val if np.isfinite(val) else np.inf


def _moment_init(x):
    m0 = 0.5 * x.min()
    w = 1.0 / (x + m0)
    mw, vw = w.mean(), w.var()
    if vw <= 0:
        return np.array([1.0, 1.0, m0])
    return np.array([mw / vw, mw * mw / vw, m0])


def _numeric_hessian(fun, theta, rel_step=1e-4, lower=None):
    k = theta.size
    h = rel_step * np.maximum(np.abs(theta), 1e-3)
    if lower is not None:
        # keep every difference point feasible when a parameter sits on a
        # bound (diagonal terms step 2h below the base point)
        theta = np.maximum(theta, np.asarray(lower) + 2.0 * h)
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            ei = np.zeros(k); ei[i] = h[i]
            ej = np.zeros(k); ej[j] = h[j]
            f_pp = fun(theta + ei + ej)
            f_pm = fun(theta + ei - ej)
            f_mp = fun(theta - ei + ej)
            f_mm = fun(theta - ei - ej)
            hess[i, j] = hess[j, i] = (f_pp - f_pm - f_mp + f_mm) / (4 * h[i] * h[j])
    return hess


def fit_mig_mle(samples) -> FitResult:
    """Maximum likelihood fit of the modified inverse gamma law.

    Initialized by the method of moments on 1/(x + m0) with m0 at half the
    sample minimum, then refined by bounded L-BFGS-B with central-difference
    gradients.  Standard errors come from the inverse numeric Hessian of the
    negative log likelihood at the optimum and are reported only when the
    optimizer converged.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 100:
        raise ValueError("need at least 100 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")

    theta0 = _moment_init(x)
    work = np.empty_like(x)
    nll0 = _mig_nll(theta0, x, work)
    bounds = [(1e-8, None), (1e-8, None), (0.0, None)]
    res = scipy.optimize.minimize(
        _mig_nll,
        theta0,
        args=(x, work),
        method="L-BFGS-B",
        jac="3-point",
        bounds=bounds,
        options={"maxiter": 500, "finite_diff_rel_step": 1e-6},
    )
    theta = np.where(res.fun <= nll0, res.x, theta0)
    objective = float(min(res.fun, nll0))
    converged = bool(res.success and res.fun <= nll0)

    names = [f.name for f in fields(MigParams)]
    se = None
    if converged:
        # a location estimate on its boundary has no Wald standard error:
        # differentiate the likelihood over the interior parameters only
        free = [0, 1] if theta[2] < 1e-9 else [0, 1, 2]

        def nll_free(sub):
            full = theta.copy()
            full[free] = sub
            return _mig_nll(full, x, work)

        hess = _numeric_hessian(nll_free, theta[free], lower=[1e-8, 1e-8, 0.0][: len(free)])
        try:
            cov = np.linalg.inv(hess)
            diag = np.diag(cov)
            if np.all(diag > 0):
                se = {names[i]: float(np.sqrt(d)) for i, d in zip(free, diag)}
            else:
                converged = False
        except np.linalg.LinAlgError:
            converged = False
    return FitResult(
        params=dict(zip(names, map(float, theta))),
        se=se,
        objective=objective,
        n_obs=int(x.size),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Generalized stretched exponential least squares
# ---------------------------------------------------------------------------

_GSE_WINDOW = 8.0


def _gse_init(x, y):
    peak = int(np.argmax(y))
    c0 = max(float(y[peak]), 1e-6)
    v0 = float(x[peak])
    mass = np.trapezoid(y, x)
    if mass > 0:
        p = y / mass
        mean = np.trapezoid(x * p, x)
        u0 = _ADJ * np.trapezoid(np.abs(x - mean) * p, x)
    else:
        u0 = 1.0
    u0 = max(u0, 1e-3)
    return np.array([c0, u0, v0, 2.0 * u0, 1.0])


def fit_gse_nls(density: DensityEstimate) -> FitResult:
    """Least-squares fit of the stretched-exponential family to a density.

    The fit runs on the grid points inside [-8, 8]; the estimate's grid must
    cover that window.  Standard errors use the Gauss-Newton approximation
    at the optimum.  If the optimizer fails to converge the best iterate is
    still returned, flagged as not converged.
    """
    grid = density.grid
    if grid[0] > -_GSE_WINDOW + 1e-9 or grid[-1] < _GSE_WINDOW - 1e-9:
        raise ValueError(f"grid must cover [-{_GSE_WINDOW}, {_GSE_WINDOW}]")
    sel = (grid >= -_GSE_WINDOW) & (grid <= _GSE_WINDOW)
    x, y = grid[sel], density.values[sel]

    theta0 = _gse_init(x, y)
    lo = np.array([1e-6, 1e-6, -np.inf, 1e-6, 0.0])
    hi = np.array([np.inf, np.inf, np.inf, np.inf, 2.0])
    theta0 = np.clip(theta0, lo, hi)

    res = scipy.optimize.least_squares(
        lambda t: gse_pdf(x, GseParams(*t)) - y,
        theta0,
        jac="3-point",
        bounds=(lo, hi),
        method="trf",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=500 * theta0.size,
    )
    sse = float(2.0 * res.cost)
    converged = res.status > 0

    names = [f.name for f in fields(GseParams)]
    se = None
    if converged and x.size > 5:
        jac = res.jac
        sigma2 = sse / (x.size - 5)
        try:
            cov = sigma2 * np.linalg.pinv(jac.T @ jac)
            diag = np.diag(cov)
            se = dict(zip(names, np.sqrt(np.maximum(diag, 0.0))))
        except np.linalg.LinAlgError:
            se = None
    return FitResult(
        params=dict(zip(names, map(float, res.x))),
        se=se,
        objective=sse,
        n_obs=int(x.size),
        converged=bool(converged),
    )


# ---------------------------------------------------------------------------
# Gaussian mass and exponent profiles
# ---------------------------------------------------------------------------

def gaussian_mass_fraction(density: DensityEstimate, w):
    """Probability mass of the estimated density inside [-w, w].

    Trapezoid integration with the boundary values interpolated at exactly
    -w and w; the result is clipped to [0, 1].
    """
    if not w > 0:
        raise ValueError("w must be positive")
    grid, vals = density.grid, density.values
    if grid[0] > -w or grid[-1] < w:
        raise ValueError(f"grid does not cover [-{w}, {w}]")
    inner = (grid > -w) & (grid < w)
    xs = np.concatenate(([-w], grid[inner], [w]))
    ys = np.concatenate(([np.interp(-w, grid, vals)], vals[inner], [np.interp(w, grid, vals)]))
    return float(np.clip(np.trapezoid(ys, xs), 0.0, 1.0))


def power_law_exponent_profile(mean_size, moments):
    """Log-log OLS slope of every volatility moment against bin mean size.

    Reads the ``(mean_size, {q: moment})`` arrays of
    ``binned_volatility_moments``; the headline comparison table of the
    toolkit.  Returns {q: ScalingFit}.
    """
    return {q: loglog_ols(mean_size, m) for q, m in moments.items()}


def exponent_profile_table(profile):
    """A ``power_law_exponent_profile`` as a ``(header, columns)`` table, one row per q."""
    header = ["q", "slope", "se", "r2"]
    return header, [list(profile)] + [[getattr(f, c) for f in profile.values()] for c in header[1:]]
