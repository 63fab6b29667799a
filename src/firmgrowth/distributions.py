"""Distribution families used by the granular growth models.

Everything here is a pure function of its inputs: samplers consume explicit
uniforms (or arrays of uniforms) instead of hidden generator state, so results
are reproducible and safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, log

import numpy as np
import scipy

from firmgrowth.groups import _BLOCK


# ---------------------------------------------------------------------------
# Gaussian
# ---------------------------------------------------------------------------

# cephes' ndtri coefficients as shortest reprs, highest power first; each Q leads with p1evl's 1.0
_NDTRI_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703, 13.931260938727968,
             -1.2391658386738125)
_NDTRI_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937,
             200.26021238006066, -82.03722561683334, 15.90562251262117, -1.1833162112133)
_NDTRI_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008,
             14.684956192885803, 2.1866330685079025, -0.1402560791713545, -0.03504246268278482,
             -0.0008574567851546854)
_NDTRI_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075,
             2.504649462083094, -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574)
_NDTRI_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755,
             0.20148538954917908, 0.012371663481782003, 0.00030158155350823543,
             2.6580697468673755e-06, 6.239745391849833e-09)
_NDTRI_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663,
             0.013420400608854318, 0.00032801446468212774, 2.8924786474538068e-06,
             6.790194080099813e-09)
_EXP_M2 = 0.13533528323661269189


def _ratio(x, p, q):
    """cephes' ``x * polevl(x, p) / p1evl(x, q)``: Horner's rule, one multiply-add a step."""
    num, den = p[0], q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def ndtri(u):
    """``scipy.special.ndtri(u)``, bit for bit, without loading ``scipy.special``.

    cephes' steps: P0/Q0 on exp(-2) < u < 1 - exp(-2); in the tails, with y the
    smaller of u and 1 - u, x = sqrt(-2 log y) and ``x - log(x)/x - z P(z)/Q(z)``
    at z = 1/x, on P1/Q1 below x = 8 and P2/Q2 from there.  Both logs are libm's
    ``math.log``, as in SciPy: ``np.log``'s SIMD loop differs in the last bit.
    u = 0 and 1 give -inf and +inf, and u outside [0, 1] gives NaN.
    """
    u = np.asarray(u, dtype=float)
    out = np.where(u == 0.0, -np.inf, np.where(u == 1.0, np.inf, np.nan))
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    out[mid] = (c + c * _ratio(c * c, _NDTRI_P0, _NDTRI_Q0)) * 2.50662827463100050242
    tail = (y > 0.0) & ~mid
    x = np.sqrt(-2.0 * np.fromiter(map(log, y[tail].tolist()), float))
    shift = _ratio(1.0 / x, _NDTRI_P1, _NDTRI_Q1)
    shift[x >= 8.0] = _ratio(1.0 / x[x >= 8.0], _NDTRI_P2, _NDTRI_Q2)
    x = x - np.fromiter(map(log, x.tolist()), float) / x - shift
    out[tail] = np.where(upper[tail], x, -x)
    return out[()]


# ---------------------------------------------------------------------------
# Pareto
# ---------------------------------------------------------------------------

def pareto_sample(u, x_min, exponent):
    """Inverse-CDF Pareto draw(s), x_min * (1.0 - u) ** (-1.0 / exponent).

    Takes uniform(s) in [0, 1), as ``rng.random`` returns them: 1 - u lies in
    (0, 1], so every draw is finite and at least x_min.  No validation, and a
    Python float input gives a Python float.
    """
    x = 1.0 - u
    # in place on arrays, so a draw holds one temporary the size of u
    x **= -1.0 / exponent
    x *= x_min
    return x


# ---------------------------------------------------------------------------
# Modified inverse gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MigParams:
    """Scale / shape / location of the modified inverse gamma density.

    With location 0 this is the plain inverse gamma law; a positive location
    shifts the support left while keeping the density normalized on [0, inf).
    """

    scale: float
    shape: float
    location: float = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if self.location < 0:
            raise ValueError(f"location must be non-negative, got {self.location}")


def mig_sample(p: MigParams, u):
    """Inverse-CDF draw(s); monotone in u, exact to machine precision.

    x + location is scale / G, with G a Gamma(shape) variable truncated to
    G <= scale / location.  The draw inverts G's upper tail; where that
    rounds to 1 (so the draw would be infinite), it inverts the lower tail.
    Raises ValueError if that is not finite either.  The draws go in blocks
    of ``_BLOCK`` elements, each an elementwise function of its own u.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0) & (u < 1)):
        raise ValueError("uniforms must lie in (0, 1)")
    a, b, m = p.scale, p.shape, p.location
    f_m = scipy.special.gammaincc(b, a / m) if m > 0 else 0.0
    out = np.empty(u.shape)
    flat_out, flat_u = out.reshape(-1), u.reshape(-1)
    for i in range(0, u.size, _BLOCK):
        x, v = flat_out[i : i + _BLOCK], flat_u[i : i + _BLOCK]
        prob = f_m + v * (1.0 - f_m)
        with np.errstate(divide="ignore"):
            np.divide(a, scipy.special.gammainccinv(b, prob, out=prob), out=x)
            x -= m
            lost = ~np.isfinite(x)
            if lost.any():
                kept = scipy.special.gammainc(b, a / m) if m > 0 else 1.0
                x[lost] = a / scipy.special.gammaincinv(b, (1.0 - v[lost]) * kept) - m
        if not np.isfinite(x).all():
            raise ValueError(f"{p} has draws beyond double precision")
    return out[()]


# ---------------------------------------------------------------------------
# Generalized stretched exponential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GseParams:
    """Gaussian core of width ~crossover, stretched-exponential tails.

    stretch = 2 collapses the shape to a plain Gaussian; stretch < 1 gives
    tails fatter than exponential.  The amplitude is free (the family is used
    for least-squares fits of estimated densities, not as a normalized law).
    """

    amplitude: float
    core_width: float
    center: float
    crossover: float
    stretch: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if not self.core_width > 0:
            raise ValueError(f"core_width must be positive, got {self.core_width}")
        if not self.crossover > 0:
            raise ValueError(f"crossover must be positive, got {self.crossover}")
        if self.stretch < 0:
            raise ValueError(f"stretch must be non-negative, got {self.stretch}")


def gse_pdf(x, p: GseParams):
    """Generalized stretched exponential shape.

    amplitude * exp(-(x-center)^2 / (2 core^2 (1 + (|x|/crossover)^(2-stretch)))).
    |x| keeps the non-integer power real for negative arguments; the fitted
    family is symmetric by construction.
    """
    x = np.asarray(x, dtype=float)
    c, u, v, w, z = p.amplitude, p.core_width, p.center, p.crossover, p.stretch
    denom = 2.0 * u * u * (1.0 + (np.abs(x) / w) ** (2.0 - z))
    out = c * np.exp(-((x - v) ** 2) / denom)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Sums of Laplace variables
# ---------------------------------------------------------------------------

def laplace_sum_pdf(k, y):
    """Closed-form density of (X_1 + ... + X_k) / sqrt(2k), X_i ~ Laplace(1).

    The normalized sum is centred with unit variance for every k; k = 1 is a
    Laplace law of scale 1/sqrt(2).  Coefficients are computed with exact
    integer arithmetic and the positive-term sum is evaluated in log space.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    y = np.asarray(y, dtype=float)
    r = np.sqrt(2.0 * k)
    ry = r * np.abs(y)

    log_coef = np.empty(k)
    for l in range(k):
        if k <= 80:
            c = comb(k - 1, l) * 2**l * factorial(2 * k - 2 - l)
            log_coef[l] = np.log(float(c)) - scipy.special.gammaln(k)
        else:
            log_coef[l] = (
                scipy.special.gammaln(k) - scipy.special.gammaln(l + 1)
                - scipy.special.gammaln(k - l) + l * np.log(2.0)
                + scipy.special.gammaln(2 * k - 1 - l) - scipy.special.gammaln(k)
            )
    log_pref = -2.0 * k * np.log(2.0) + np.log(2.0 * r) - scipy.special.gammaln(k)

    # floor keeps 0 * log(0) = 0 for the constant term at y = 0
    log_ry = np.log(np.maximum(np.atleast_1d(ry), 1e-300))
    terms = log_coef[:, None] + np.arange(k)[:, None] * log_ry[None, :]
    out = np.exp(log_pref + _logsumexp_rows(terms) - np.atleast_1d(ry))
    return float(out[0]) if np.ndim(y) == 0 else out.reshape(np.shape(y))


def _logsumexp_rows(a):
    """``scipy.special.logsumexp(a, axis=0)`` of a real 2-D array, bit for bit.

    SciPy 1.17's own steps without its array-API dispatch: every entry equal
    to the column maximum is taken out of the sum and counted (m), and the
    result is ``log1p(s / m) + log(m) + max``.  A plain max shift differs in
    the last bit.  A column of NaN or +inf gives SciPy's NaN or inf; one of
    only -inf, which ``laplace_sum_pdf`` never makes, gives NaN, not -inf.
    """
    top = a.max(axis=0)
    tie = a == top
    m = tie.sum(axis=0, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.exp(np.where(tie, -np.inf, a) - top).sum(axis=0) / m
        return np.log1p(s) + np.log(m) + top
