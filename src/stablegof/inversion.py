"""Distribution of the limiting statistic by contour inversion.

The limit law is a weighted sum of independent chi-square(1) variables,
sum_j X_j^2 / lambda_j, whose characteristic function is 1/sqrt(D(2it))
with D the Fredholm determinant.  Rotating the inversion contour turns the
wildly oscillating Fourier integral into an alternating series of smooth
integrals between consecutive eigenvalue half-points; the cosine change of
variable removes the square-root endpoint singularities, and the two
factors of the determinant product that vanish on each interval are
cancelled analytically against the square-root numerator.

After the cosine substitution every series term is a smooth integral over
z in [0, 1] whose only x-dependence is the factor e^{-x y}.  Each
:class:`InversionConfig` therefore tabulates, once, the nodes y_kj of a
fixed 64-point Gauss-Legendre rule on every term's interval together with
the CDF's log-weights log(const_k w_j / y_kj) - 1/2 sum_i log|1 - 2 y_kj / lambda_i|,
and every CDF evaluation is the one exponential sum
1 - F(x) = sum_k (-1)^(k-1) sum_j exp(L_kj - x Y_kj) over an l x 64 array
instead of l adaptive quadratures.  The node count is fixed: on the
24-cell H1 critical-value table, 24 nodes miss the series bounds (the
last, smallest terms, down to 1e-302) of five cells by more than 1e-8
relative, while 32 and 64 nodes reproduce every critical value and bound;
with 64 every term agrees with adaptive quadrature at epsrel=1e-13 to
better than 1e-12 relative (tested).

A doubled or near-doubled eigenvalue needs no special case.  A doubled
one's interval [lambda/2, lambda/2] has zero width, so all 64 nodes sit at
r_k = lambda/2 and, the weights summing to one, the term is exactly
|c_k| e^{-r_k x} with |c_k| = prod_{i != k} r_i / |r_i - r_k| over the
other pairs.  When every eigenvalue is double (the Cauchy-case kernels) the
series is therefore the law's own finite sum of exponentials; a
near-doubled pair is a narrow interval like any other.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import NumericsError, SeriesDivergenceError
from .spectral import Spectrum

__all__ = ["InversionConfig", "default_inversion_config", "cdf_dk", "quantile_dk", "cdf_dk_with_bound"]

_GL_NODES = 64
_GL_Z, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_GL_Z, _GL_W = 0.5 * (_GL_Z + 1.0), 0.5 * _GL_W  # mapped to [0, 1]

# F is returned only when its error bound is at most this share
# of min(F, 1 - F), so that it keeps a correct leading digit; deeper in the
# left tail the truncated series says nothing about F and the CDF raises.
_BOUND_SHARE = 0.1


def _series_table(spectrum, l, m):
    """Tabulate the first l series terms over the first m eigenvalues.

    Returns (Y, L), the x-free part of
    1 - F(x) = sum_k (-1)^(k-1) sum_j exp(L_kj - x Y_kj), both l x 64: row
    k is the k-th alternating-series term, the columns its Gauss-Legendre
    nodes.  Term k integrates over y in [lambda_{2k-1}/2, lambda_{2k}/2];
    the two determinant factors vanishing there are cancelled
    analytically, leaving sqrt(lambda_{2k-1} lambda_{2k})/2 over the
    deflated product.  The same
    construction serves simple, doubled and near-doubled pairs (see the
    module docstring).
    """
    lam = spectrum.lambdas
    lo, hi = lam[0 : 2 * l : 2], lam[1 : 2 * l : 2]
    lm = lam[:m]
    a, b = 0.5 * lo, 0.5 * hi
    y = 0.5 * (b - a)[:, None] * np.cos(np.pi * _GL_Z) + 0.5 * (a + b)[:, None]
    log_prod = np.empty_like(y)
    for k in range(l):
        rest = np.delete(lm, (2 * k, 2 * k + 1))
        log_prod[k] = np.sum(np.log(np.abs(1.0 - 2.0 * y[k, :, None] / rest)), axis=1)
    log_w = np.log(0.5 * np.sqrt(lo * hi))[:, None] + np.log(_GL_W) - 0.5 * log_prod
    return y, log_w - np.log(y)


@dataclass(frozen=True)
class InversionConfig:
    """Truncation of the series (l terms) and of the determinant (m products).

    Construction tabulates the x-free part of the CDF's exponential sum (see
    the module docstring), so build one config per spectrum and reuse it.
    The terms come from a fixed Gauss-Legendre rule that the tests hold to
    1e-12 relative against adaptive quadrature, for every spectrum.
    """

    spectrum: Spectrum
    l: int
    m: int
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_avail = len(self.spectrum.lambdas)
        # the 2l eigenvalues bounding the series intervals are factors of the
        # m-term product that each term cancels; l = 0 would be an empty
        # series, F = 1 everywhere
        if not (1 <= self.l and 2 * self.l <= self.m <= n_avail):
            raise ValueError(f"need 1 <= l and 2l <= m <= {n_avail}, got l={self.l}, m={self.m}")
        object.__setattr__(self, "_table", _series_table(self.spectrum, self.l, self.m))


def default_inversion_config(spectrum):
    """Truncation defaults: m=500 (300 for kappa>5), l=25 (10 for kappa>2.5), capped below.

    The caps leave l = 0 for a spectrum with fewer than 3 eigenvalues, which
    :class:`InversionConfig` refuses with ValueError.
    """
    kappa = spectrum.kappa
    n_avail = len(spectrum.lambdas)
    m = 500 if kappa <= 5.0 else 300
    l = 25 if kappa <= 2.5 else 10
    m = min(m, n_avail)
    l = min(l, (n_avail - 1) // 2)
    return InversionConfig(spectrum=spectrum, l=l, m=m)


def _series_terms(x, config):
    """Magnitudes of the l series terms of 1 - F at argument x."""
    y, log_w = config._table
    return np.exp(log_w - x * y).sum(axis=1)


def _check_alternating(terms):
    mags = np.abs(terms)
    rising = (mags[1:] >= mags[:-1]) & (mags[1:] > 1e-13)
    if rising.any():
        k = int(rising.argmax()) + 1
        raise SeriesDivergenceError(
            f"series terms stopped decreasing at k={k + 1} "
            f"({mags[k - 1]:.3e} -> {mags[k]:.3e}); x too small for this truncation"
        )


def cdf_dk_with_bound(x, config):
    """CDF of the limit statistic plus an error bound.

    1 - F is the alternating sum of the tabulated terms (see
    :func:`_series_table`), and the bound is the alternating series', half
    the last term.  Raises SeriesDivergenceError where the terms stop
    decreasing or the bound is not small against min(F, 1 - F), both of
    which happen deep in the left tail.
    """
    if x <= 0:
        raise ValueError(f"the statistic is positive; got x={x}")
    terms = _series_terms(x, config)
    _check_alternating(terms)
    bound = 0.5 * float(terms[-1])
    sf = float(np.sum(np.where(np.arange(1, len(terms) + 1) % 2 == 1, 1.0, -1.0) * terms))
    value = 1.0 - sf
    if bound > _BOUND_SHARE * min(value, sf):
        raise SeriesDivergenceError(
            f"series bound {bound:.3e} is not small against F={value:.3e}; "
            "x too small for this truncation"
        )
    return value, bound


def cdf_dk(x, config):
    """P(D <= x) for the limiting statistic."""
    return cdf_dk_with_bound(x, config)[0]


def _first_evaluable(x, step, config):
    """(x', F(x')) at the first x' = x step^k, k < 60, where the series evaluates F.

    F is read through the module attribute ``cdf_dk_with_bound``, which a
    wrapper may replace; SeriesDivergenceError when no step evaluates.
    """
    for _ in range(60):
        try:
            return x, cdf_dk_with_bound(x, config)[0]
        except SeriesDivergenceError:
            x *= step
    raise SeriesDivergenceError(f"could not evaluate the CDF on the walk up to x={x / step:.6g}")


def quantile_dk(xi, config):
    """Upper-tail quantile: the x with P(D > x) = xi, for xi in (0, 0.5).

    Brackets around the mean E[D] = sum 1/lambda_j and solves
    cdf(x) = 1 - xi by Brent's method to |F - (1 - xi)| < 1e-5.  The lower
    end walks up from E[D]/10 by x1.5, at most 60 steps, while the series
    diverges there (:func:`_first_evaluable`).  F at the first such end was
    at most 0.238 on 33 tabulated cells and is 0.248 for one chi-square(1)
    term, below every target 1 - xi > 1/2: the end never moves down.
    A bracket or a root that fails raises NumericsError.
    """
    if not (0 < xi < 0.5):
        raise ValueError(f"xi must be in (0, 0.5), got {xi}")
    target = 1.0 - xi
    mean = config.spectrum.trace_sum(config.m)
    hi = 10.0 * mean

    def f(x):
        return cdf_dk(x, config) - target

    lo, cdf_lo = _first_evaluable(mean / 10.0, 1.5, config)
    fhi = f(hi)
    tries = 0
    while fhi < 0 and tries < 120:
        hi *= 2.0
        fhi = f(hi)
        tries += 1
    if cdf_lo > target or fhi < 0:
        raise NumericsError(f"failed to bracket the {xi} quantile in [{lo}, {hi}]")
    root = optimize.brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16)
    if abs(f(root)) > 1e-5:
        raise NumericsError("quantile root did not meet the 1e-5 CDF tolerance")
    return float(root)
