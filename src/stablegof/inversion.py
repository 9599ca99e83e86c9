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
instead of l adaptive quadratures.  When every eigenvalue is double (the
Cauchy-case kernels) the limit law is itself a finite sum of exponentials,
tabulated as one column of rates and log-coefficients; the same sum
evaluates it, and only the error bound differs.  The node count is fixed: on the
24-cell H1 critical-value table, 24 nodes miss the series bounds (the
last, smallest terms, down to 1e-302) of five cells by more than 1e-8
relative, while 32 and 64 nodes reproduce every critical value and bound;
with 64 every term agrees with adaptive quadrature at epsrel=1e-13 to
better than 1e-12 relative (tested).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import SeriesDivergenceError
from .spectral import Spectrum

__all__ = ["InversionConfig", "default_inversion_config", "cdf_dk", "quantile_dk", "cdf_dk_with_bound"]

_GL_NODES = 64
_GL_Z, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_GL_Z, _GL_W = 0.5 * (_GL_Z + 1.0), 0.5 * _GL_W  # mapped to [0, 1]

# F is returned only when its error bound is at most this share
# of min(F, 1 - F), so that it keeps a correct leading digit; deeper in the
# left tail the truncated series says nothing about F and the CDF raises.
_BOUND_SHARE = 0.1


@dataclass(frozen=True)
class _SeriesTable:
    """x-free part of 1 - F(x) = sum_k (-1)^(k-1) sum_j exp(L_kj - x Y_kj).

    ``y`` holds Y and ``log_w_cdf`` holds L; ``structure`` is "simple" or
    "paired" (see :func:`_series_table`).  Simple: row k is the k-th
    alternating-series term, the columns its Gauss-Legendre nodes.  Paired:
    row k is the k-th exponential of a finite sum, in one column.
    """

    structure: str
    y: np.ndarray
    log_w_cdf: np.ndarray


def _series_table(spectrum, l, m):
    """Classify the leading eigenvalue pairs and tabulate the series.

    A leading spectrum neither simple nor fully "paired" raises
    SeriesDivergenceError.

    Simple, first l terms: term k integrates over y in
    [lambda_{2k-1}/2, lambda_{2k}/2]; the two determinant factors vanishing
    there are cancelled analytically, leaving sqrt(lambda_{2k-1} lambda_{2k})/2
    over the deflated product.

    Paired (the Cauchy-case kernels carry every eigenvalue twice): the limit
    law is a sum of exponentials with rates r_j = sqrt(lambda_{2j-1} lambda_{2j})/2
    over the first m eigenvalues, so 1 - F(x) = sum_j c_j e^{-r_j x} with
    c_j = prod_{i != j} r_i / (r_i - r_j) of sign (-1)^(j-1); L_j = log|c_j|.
    """
    lam = spectrum.lambdas
    lo, hi = lam[0 : 2 * l : 2], lam[1 : 2 * l : 2]
    gaps = (hi - lo) / hi
    lm = lam[:m]
    if np.all(gaps < 1e-8):
        r = 0.5 * np.sqrt(lm[0 : m - 1 : 2] * lm[1:m:2])
        logr = np.log(r)
        log_c = [
            np.sum(np.delete(logr, j)) - np.sum(np.log(np.abs(np.delete(r - r[j], j))))
            for j in range(len(r))
        ]
        return _SeriesTable("paired", r[:, None], np.array(log_c)[:, None])
    if not np.all(gaps > 1e-6):
        raise SeriesDivergenceError(
            "spectrum mixes simple and multiple eigenvalues; inversion undefined"
        )
    a, b = 0.5 * lo, 0.5 * hi
    y = 0.5 * (b - a)[:, None] * np.cos(np.pi * _GL_Z) + 0.5 * (a + b)[:, None]
    log_prod = np.empty_like(y)
    for k in range(l):
        rest = np.delete(lm, (2 * k, 2 * k + 1))
        log_prod[k] = np.sum(np.log(np.abs(1.0 - 2.0 * y[k, :, None] / rest)), axis=1)
    log_w = np.log(0.5 * np.sqrt(lo * hi))[:, None] + np.log(_GL_W) - 0.5 * log_prod
    return _SeriesTable("simple", y, log_w - np.log(y))


@dataclass(frozen=True)
class InversionConfig:
    """Truncation of the series (l terms) and of the determinant (m products).

    Construction tabulates the x-free part of the CDF's exponential sum (see
    the module docstring), so build one config per spectrum and reuse it.
    A simple spectrum's terms come from a fixed Gauss-Legendre rule that the
    tests hold to 1e-12 relative against adaptive quadrature.  A mixed
    spectrum raises SeriesDivergenceError.
    """

    spectrum: Spectrum
    l: int
    m: int
    _table: _SeriesTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_avail = len(self.spectrum.lambdas)
        # the 2l eigenvalues bounding the series intervals are factors of the
        # m-term product that each term cancels; l = 0 would leave no
        # eigenvalue pair to tell a simple spectrum from a paired one
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
    l = min(l, (n_avail - 1) // 2, m - 1)
    return InversionConfig(spectrum=spectrum, l=l, m=m)


def _series_terms(x, config):
    """Magnitudes of the terms of 1 - F at argument x: series terms or exponentials."""
    t = config._table
    return np.exp(t.log_w_cdf - x * t.y).sum(axis=1)


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

    1 - F is the signed sum S of the tabulated terms (see :class:`_SeriesTable`).
    For a simple spectrum the bound is that of the alternating series, half
    the last term; for a paired one it is the rounding bound
    n * eps * sum |c_j e^{-r_j x}| of the n = m // 2 exponentials.  Either way
    raises SeriesDivergenceError where the bound is not small against
    min(F, 1 - F), which happens deep in the left tail.
    """
    if x <= 0:
        raise ValueError(f"the statistic is positive; got x={x}")
    terms = _series_terms(x, config)
    if config._table.structure == "simple":
        _check_alternating(terms)
        bound = 0.5 * float(terms[-1]) if len(terms) else 0.0
    else:
        bound = float(len(terms) * np.finfo(float).eps * np.sum(terms))
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


def quantile_dk(xi, config):
    """Upper-tail quantile: the x with P(D > x) = xi, for xi in (0, 0.5).

    Brackets around the mean E[D] = sum 1/lambda_j and solves
    cdf(x) = 1 - xi by Brent's method to |F - (1 - xi)| < 1e-5.  The lower
    end starts at E[D]/10 and moves up only while the series diverges
    there.  F at the first end that evaluates was at most 0.238 on 33
    tabulated cells and is 0.248 for a single chi-square(1) term, below
    every target 1 - xi > 1/2, so the lower end never moves down.
    """
    if not (0 < xi < 0.5):
        raise ValueError(f"xi must be in (0, 0.5), got {xi}")
    target = 1.0 - xi
    mean = config.spectrum.trace_sum(config.m)
    lo, hi = mean / 10.0, 10.0 * mean

    def f(x):
        return cdf_dk(x, config) - target

    # the series can misbehave deep in the left tail; walk the lower
    # bracket up until it evaluates
    flo = None
    for _ in range(60):
        try:
            flo = f(lo)
            break
        except SeriesDivergenceError:
            lo *= 1.5
    if flo is None:
        raise SeriesDivergenceError("could not evaluate CDF anywhere in the bracket")
    fhi = f(hi)
    tries = 0
    while fhi < 0 and tries < 120:
        hi *= 2.0
        fhi = f(hi)
        tries += 1
    if flo > 0 or fhi < 0:
        raise ValueError(f"failed to bracket the {xi} quantile in [{lo}, {hi}]")
    root = optimize.brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16)
    if abs(f(root)) > 1e-5:
        raise ValueError("quantile root did not meet the 1e-5 CDF tolerance")
    return float(root)
