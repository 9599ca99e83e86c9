"""Symmetric stable laws: characteristic function, density, derivatives, sampling.

Everything is parameterized by theta = (mu, sigma, alpha) with characteristic
function exp(i*mu*t - |sigma*t|^alpha), so the family is a location-scale
family for each alpha and the standard case is (mu, sigma) = (0, 1).

Densities carry no closed form except at alpha = 1 (Cauchy) and alpha = 2
(normal with variance 2).  The standard density and its x- and
alpha-derivatives are computed by Fourier inversion

    f(x; alpha)  = (1/pi) int_0^inf cos(t x) exp(-t^alpha) dt

for moderate |x| and by the algebraic tail expansion in powers of
x^(-k*alpha-1) beyond a per-alpha crossover; at alpha = 2 the normal closed
forms then replace f and f'.  ``pdf_batch`` takes the inversion integrals
from ``_fourier``'s shared grid, ``pdf`` (and ``pdf_batch`` where that grid
would be too large) from ``_fourier``'s one QAWO routine, point by point.
The location/scale derivatives follow from the identities f_mu = -f' and
f_sigma = -f - x f'.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.special import gammaln, digamma

from ._fourier import _DENSITY_QAWO, _LOG_EPS, _grid_sums, _qawo_sums

__all__ = [
    "StableParams",
    "DensityEval",
    "cf",
    "cf_grad",
    "pdf",
    "pdf_batch",
    "rand_stable",
]

@dataclass(frozen=True)
class StableParams:
    """Parameter triple (mu, sigma, alpha) of a symmetric stable law."""

    mu: float
    sigma: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(f"mu and sigma must be finite, got mu={self.mu}, sigma={self.sigma}")
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (0 < self.alpha <= 2):
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")

    def standardize(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / self.sigma


@dataclass(frozen=True)
class DensityEval:
    """Standard-case density value and derivatives at one point.

    ``f`` is f(x; alpha), ``fprime`` the x-derivative and ``falpha`` the
    alpha-derivative.
    """

    f: float
    fprime: float
    falpha: float


def cf(t, params):
    """Characteristic function exp(i*mu*t - |sigma*t|^alpha)."""
    t = np.asarray(t, dtype=float)
    return np.exp(1j * params.mu * t - np.abs(params.sigma * t) ** params.alpha)


def _safe_log_abs(a):
    """log(a) where a > 0 and 0 elsewhere, elementwise and without a warning; a is an |x|."""
    return np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), 0.0)


def cf_grad(t, params):
    """Gradient of the characteristic function in (mu, sigma, alpha).

    At t = 0 the formulas give 0 for all three components, their limits:
    the alpha component carries |sigma t|^alpha log|sigma t|, and
    ``_safe_log_abs`` reads the log there as 0.
    """
    t = np.asarray(t, dtype=float)
    mu, sigma, alpha = params.mu, params.sigma, params.alpha
    at = np.abs(sigma * t)
    ata, lat = at**alpha, _safe_log_abs(at)
    base = np.exp(1j * mu * t - ata)
    d_mu = 1j * t * base
    d_sigma = -base * ata * alpha / sigma
    d_alpha = -base * ata * lat
    return d_mu, d_sigma, d_alpha


# ----------------------------------------------------------------------
# tail series in powers of x^(-k*alpha - 1), valid for x above a crossover
# ----------------------------------------------------------------------


# stopping share of the partial sum and term cap of the tail series
_TAIL_REL_FLOOR = 1e-17
_TAIL_KMAX = 400
# (term, point) cells per block of the tail series: a block holds about five
# float arrays of that size, near 3 MB in all
_TAIL_CELLS = 2**16


def _tail_series(x, alpha):
    """Evaluate (f, f', f_alpha) at x > 0 by the algebraic tail expansion.

    The expansion is convergent for alpha < 1 and asymptotic for alpha > 1;
    each point stops accumulating once its term drops below
    ``_TAIL_REL_FLOOR`` relative to the partial sum, or starts growing
    (asymptotic guard).  Above :func:`_crossover` the truncation, the first
    omitted term over |f|, is at most 2.9e-13 (1,700 alphas on
    [0.3, 1.999], 141 points each from the crossover to 1e300; worst at
    alpha = 1.829; tested).  At alpha = 2 the f-series vanishes and only
    f_alpha is used.

    The points are summed in chunks of at most ``_TAIL_CELLS // 8``, each by
    :func:`_tail_chunk`, so memory stays bounded for large calls.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((3,) + x.shape)
    flat, xs = out.reshape(3, -1), x.ravel()
    step = _TAIL_CELLS // 8
    for lo in range(0, xs.size, step):
        _tail_chunk(xs[lo : lo + step], alpha, flat[:, lo : lo + step])
    return out[0], out[1], out[2]


def _tail_chunk(x, alpha, out):
    """Sum the tail series of 1-D ``x`` into ``out`` = (f, f', f_alpha).

    The terms k are formed in blocks of 8, 16, 32, ... at a time (at most
    ``_TAIL_CELLS`` cells), as (k, point) arrays over the points still
    summing.  Each sum is one ``cumsum`` down the block with the carried sum
    stacked in as row 0: the same additions in the same order as adding one
    term per k, so the sums are those of the term-by-term loop to the last
    bit.  The per-k scalars come from ``math.sin``/``math.cos`` and the
    elementwise products keep that loop's operation order.  A point stops at
    its first k whose term grows (before adding it) or falls to
    ``_TAIL_REL_FLOOR`` of the partial sum or below (after adding it); its
    sums are written out and the rest carry on into the next block.
    """
    lx = np.log(x)
    act = np.arange(x.size)  # points still summing
    carry = np.zeros((3, x.size))  # their partial sums
    prev = np.full(x.size, np.inf)  # and their last term's magnitude
    k0, rows = 1, 8
    while act.size and k0 <= _TAIL_KMAX:
        k = np.arange(k0, min(k0 + rows, k0 + _TAIL_CELLS // act.size, _TAIL_KMAX + 1))
        k0, rows = k0 + k.size, 2 * rows
        ka = k * alpha
        kap1 = ka + 1.0
        sign = np.where(k % 2 == 0, -1.0, 1.0)
        s_t = np.array([math.sin(0.5 * math.pi * v) for v in ka.tolist()])
        c_t = np.array([math.cos(0.5 * math.pi * v) for v in ka.tolist()])
        xa, la = x[act], lx[act]
        # gamma(k*alpha + 1)/k! * x^(-k*alpha-1)
        mag = np.exp((gammaln(kap1) - gammaln(k + 1.0))[:, None] - kap1[:, None] * la)
        s = np.empty((3, k.size + 1, act.size))
        s[:, 0] = carry
        np.multiply((sign * s_t / math.pi)[:, None], mag, out=s[0, 1:])
        # f' picks up gamma(k*alpha+2)/gamma(k*alpha+1) = (k*alpha+1) and a
        # sign flip plus one extra power of 1/x
        np.multiply(-s[0, 1:], kap1[:, None], out=s[1, 1:])
        s[1, 1:] /= xa
        fa = s[2, 1:]
        np.subtract(digamma(kap1)[:, None], la, out=fa)
        fa *= s_t[:, None]
        fa += (0.5 * math.pi * c_t)[:, None]
        fa *= (sign * k / math.pi)[:, None] * mag
        np.cumsum(s, axis=1, out=s)
        grow = np.empty(mag.shape, dtype=bool)
        np.greater(mag[0], prev, out=grow[0])
        np.greater(mag[1:], mag[:-1], out=grow[1:])
        stop = mag <= _TAIL_REL_FLOOR * np.abs(s[0, 1:])
        stop |= grow
        hit = np.any(stop, axis=0)
        cols = np.flatnonzero(hit)
        j = np.argmax(stop[:, cols], axis=0)
        # row j + 1 of s holds the sums after term j, row j those before it;
        # a growing term is not added
        out[:, act[cols]] = s[:, j + 1 - grow[j, cols], cols]
        keep = ~hit
        act, carry, prev = act[keep], s[:, -1, keep], mag[-1, keep]
    if act.size:
        out[:, act] = carry


@lru_cache(maxsize=512)
def _crossover(alpha):
    """Smallest |x| at which the tail series is trusted for this alpha.

    Picks the first trial point where the estimated truncation-plus-
    cancellation floor of the f-series is below 1e-13 relative.  At
    alpha = 2 the f-series vanishes (f and f' have closed forms there) but
    the f_alpha series survives; it is trusted beyond |x| = 10.  The
    alpha-only factors of the terms (the gammaln difference, k alpha + 1 and
    the signs) are formed once for all trials; each trial then takes the
    same operations in the same order as when it formed them itself.
    """
    if alpha == 2.0:
        return 10.0
    trials = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 30.0)
    k = np.arange(1, _TAIL_KMAX + 1, dtype=float)
    kap1 = k * alpha + 1.0
    lcoef = gammaln(kap1) - gammaln(k + 1.0)
    sgn = np.where(k % 2 == 1, 1.0, -1.0) * np.sin(0.5 * np.pi * k * alpha)
    for xc in trials:
        mag = np.exp(np.minimum(lcoef - kap1 * math.log(xc), 600.0))
        # honest partial sum with the asymptotic guard
        grow = np.nonzero(np.diff(mag) > 0)[0]
        stop = int(grow[0]) + 1 if grow.size else len(k)
        val = abs(float(np.sum(sgn[:stop] * mag[:stop]))) / math.pi
        if val <= 0:
            continue
        trunc = float(mag[stop - 1]) if stop < len(k) else float(mag[-1])
        cancel = float(np.max(mag[:stop])) * 2.3e-16
        if (trunc + cancel) / math.pi <= 1e-13 * val:
            return xc
    return trials[-1]


# ----------------------------------------------------------------------
# Fourier inversion on the shared panelized Gauss-Legendre grid
# ----------------------------------------------------------------------


def pdf_batch(x, alpha):
    """Vectorized (f, f', f_alpha) of the standard density at array ``x``.

    Splits the points at the per-alpha crossover: Fourier inversion on a
    shared Gauss-Legendre grid below it, tail series above.  At alpha = 2,
    f and f' are then replaced by the closed forms of N(0, 2).  Accuracy is
    ~1e-9 relative; use :func:`pdf` when adaptive-quadrature accuracy is
    needed at a single point.
    """
    return _density(np.atleast_1d(np.asarray(x, dtype=float)), alpha, _near_grid)


def _density(x, alpha, near):
    """(f, f', f_alpha) at signed array ``x``.

    ``near(ax, alpha)`` evaluates the points 0 <= ax <= crossover; the tail
    series takes the rest.  f and f_alpha are even in x, f' is odd.
    """
    if not (0 < alpha <= 2):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    ax = np.abs(x)
    f = np.empty_like(ax)
    fp = np.empty_like(ax)
    fa = np.empty_like(ax)
    small = ax <= _crossover(alpha)
    if np.any(small):
        f[small], fp[small], fa[small] = near(ax[small], alpha)
    large = ~small
    if np.any(large):
        f[large], fp[large], fa[large] = _tail_series(ax[large], alpha)
    if alpha == 2.0:
        return (*_gaussian_f_fp(x), fa)
    return f, np.where(x < 0, -fp, fp), fa


def _near_grid(ax, alpha):
    """Inversion on the shared grid; per-point quadrature where that grid would be too large."""
    # grid size scales like T*xmax; for small alpha the cutoff T blows up
    T = _LOG_EPS ** (1.0 / alpha)
    if T * max(float(np.max(ax)), 1.0) > 6.0e4:
        return _near_quad(ax, alpha)
    g0, g1, ga = _grid_sums(ax, alpha, ((1.0, alpha),), T)
    return g0 / math.pi, -g1 / math.pi, -ga / math.pi


def _near_quad(ax, alpha):
    """Per-point QAWO, with the closed forms at x = 0."""
    ia = 1.0 / alpha
    f0 = math.exp(gammaln(1.0 + ia)) / math.pi
    f, fp, fa = (np.full(ax.shape, v) for v in (f0, 0.0, -f0 * digamma(1.0 + ia) / alpha**2))
    pos = ax > 0
    if np.any(pos):
        T = _LOG_EPS ** (1.0 / alpha)
        g0, g1, ga = _qawo_sums(ax[pos], alpha, ((1.0, alpha),), T, _DENSITY_QAWO)
        f[pos], fp[pos], fa[pos] = g0 / math.pi, -g1 / math.pi, -ga / math.pi
    return f, fp, fa


def _gaussian_f_fp(x):
    """Closed-form f and f' of the alpha = 2 member, N(0, 2), at signed ``x``."""
    f = np.exp(-0.25 * x * x) / (2.0 * math.sqrt(math.pi))
    return f, -0.5 * x * f


def pdf(x, alpha):
    """Standard symmetric stable density with derivatives at a point.

    Returns a :class:`DensityEval` holding f(x; alpha), the x-derivative and
    the alpha-derivative.  Inversion integrals run at 1e-11 relative
    tolerance; the tail series takes over above the per-alpha crossover.
    Raises ``ValueError`` for alpha outside (0, 2] and
    :class:`~stablegof.errors.QuadratureError` if the adaptive rule fails.
    """
    f, fp, fa = _density(np.array([float(x)]), alpha, _near_quad)
    return DensityEval(float(f[0]), float(fp[0]), float(fa[0]))


def rand_stable(alpha, size=None, rng=None):
    """Standard symmetric stable variates by the Chambers-Mallows-Stuck map.

    With U uniform on (-pi/2, pi/2) and W standard exponential,

        X = sin(alpha U) / cos(U)^(1/alpha) * (cos(U - alpha U) / W)^((1-alpha)/alpha)

    and X = tan(U) in the alpha = 1 limit.  The output law has
    characteristic function exp(-|t|^alpha).
    """
    if not (0 < alpha <= 2):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if rng is None:
        rng = np.random.default_rng()
    u = (rng.uniform(size=size) - 0.5) * math.pi
    if alpha == 1.0:
        return np.tan(u)
    w = rng.standard_exponential(size=size)
    cu = np.cos(u)
    return (
        np.sin(alpha * u)
        / cu ** (1.0 / alpha)
        * (np.cos(u - alpha * u) / w) ** ((1.0 - alpha) / alpha)
    )
