"""The vectorized per-evaluation layers of the fits against their loop versions.

Reference copies of the term-by-term tail series, the per-alpha spline
lookup, the per-trial crossover search and the per-panel grid build.  The
shipped layers must equal them bit for bit, alone and inside whole fits.
"""

from functools import lru_cache
import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import digamma, gammaln

from stablegof import _fourier, estimators, stable_core
from stablegof._fourier import _GL_NODES, _GL_WEIGHTS, panel_grid
from stablegof.estimators import WeightSpec, _grid_init, _logf_lookup, eise_fit, mle_fit
from stablegof.stable_core import (
    _TAIL_CELLS,
    _TAIL_KMAX,
    _TAIL_REL_FLOOR,
    _crossover,
    _tail_series,
    pdf_batch,
    rand_stable,
)


def loop_tail_series(x, alpha):
    """Reference copy of ``_tail_series`` summing one term k at a time.

    Also returns the worst relative truncation estimate: the first omitted
    term over |f|, or the last added one where k reached ``_TAIL_KMAX``.
    """
    x = np.asarray(x, dtype=float)
    lx = np.log(x)
    f = np.zeros_like(x)
    fp = np.zeros_like(x)
    fa = np.zeros_like(x)
    active = np.ones(x.shape, dtype=bool)
    prev_mag = np.full(x.shape, np.inf)
    worst = 0.0
    for k in range(1, _TAIL_KMAX + 1):
        ka = k * alpha
        theta = 0.5 * math.pi * ka
        s_t, c_t = math.sin(theta), math.cos(theta)
        sign = -1.0 if k % 2 == 0 else 1.0
        lmag = gammaln(ka + 1.0) - gammaln(k + 1.0) - (ka + 1.0) * lx
        mag = np.exp(np.where(active, lmag, -np.inf))
        growing = active & (mag > prev_mag)
        if np.any(growing):
            worst = max(worst, float(np.max(mag[growing] / np.maximum(np.abs(f[growing]), 1e-300))))
            active &= ~growing
            mag = np.where(growing, 0.0, mag)
        if not np.any(active):
            break
        term_f = sign * s_t / math.pi * mag
        f += np.where(active, term_f, 0.0)
        fp += np.where(active, -term_f * (ka + 1.0) / x, 0.0)
        psi = digamma(ka + 1.0)
        fa += np.where(
            active,
            sign * k / math.pi * mag * ((psi - lx) * s_t + 0.5 * math.pi * c_t),
            0.0,
        )
        prev_mag = np.where(active, mag, prev_mag)
        done = active & (mag <= _TAIL_REL_FLOOR * np.abs(f))
        active &= ~done
        if not np.any(active):
            break
    if np.any(active):
        worst = max(worst, float(np.max(mag[active] / np.maximum(np.abs(f[active]), 1e-300))))
    return f, fp, fa, worst


@lru_cache(maxsize=512)
def loop_crossover(alpha):
    """Reference copy of ``_crossover`` forming every trial's arrays afresh."""
    if alpha == 2.0:
        return 13.0
    trials = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 30.0)
    for xc in trials:
        k = np.arange(1, _TAIL_KMAX + 1, dtype=float)
        lmag = gammaln(k * alpha + 1.0) - gammaln(k + 1.0) - (k * alpha + 1.0) * math.log(xc)
        mag = np.exp(np.minimum(lmag, 600.0))
        sgn = np.where(k % 2 == 1, 1.0, -1.0) * np.sin(0.5 * np.pi * k * alpha)
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


def loop_panel_grid(T, xmax):
    """Reference copy of ``panel_grid`` with one ``np.linspace`` per dyadic piece."""
    edges = [0.0]
    t0 = min(1.0, T) * 2.0 ** -14
    while t0 < T:
        edges.append(t0)
        t0 *= 2.0
    edges.append(T)
    edges = np.unique(np.asarray(edges))
    h_osc = math.pi / max(xmax, 1e-9)
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        nsub = max(1, int(math.ceil((b - a) / h_osc)))
        pieces.append(np.linspace(a, b, nsub + 1)[:-1])
    lo = np.concatenate(pieces)
    hi = np.concatenate([lo[1:], [T]])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return t, w


@lru_cache(maxsize=128)
def loop_log_density_spline(alpha):
    u = np.linspace(0.0, math.asinh(1e9), 480)
    f, _, _ = pdf_batch(np.sinh(u), alpha)
    return CubicSpline(u, np.log(np.maximum(f, 1e-300)))


def loop_logf_lookup(alpha, ax):
    """Reference copy of the one-alpha lookup through ``CubicSpline.__call__``."""
    spl = loop_log_density_spline(alpha)
    u = np.arcsinh(ax)
    out = spl(np.minimum(u, spl.x[-1]))
    big = u > spl.x[-1]
    if np.any(big):
        if alpha == 2.0:
            out[big] = -0.25 * ax[big] ** 2 - math.log(2.0 * math.sqrt(math.pi))
        else:
            xb = np.minimum(ax[big], 10.0 ** (250.0 / (alpha + 1.0)))
            out[big] = np.log(loop_tail_series(xb, alpha)[0]) - (alpha + 1.0) * np.log(ax[big] / xb)
    return out


TAIL_ALPHAS = (0.3, 0.5, 0.8, 0.99, 1.0, 1.2, 1.5, 1.8, 1.999, 2.0)


def assert_tail_equal(x, alpha):
    got, want = _tail_series(x, alpha), loop_tail_series(x, alpha)
    assert len(got) == 3
    for g, w in zip(got, want[:3]):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("alpha", TAIL_ALPHAS)
def test_tail_series_equals_the_term_loop(alpha):
    xc = _crossover(alpha)
    rng = np.random.default_rng(7)
    # near the crossover points run for tens to hundreds of terms, so they
    # stop in different blocks; far out they stop after a term or two
    x = np.concatenate(
        [
            np.logspace(math.log10(xc), 300, 400),
            xc * (1.0 + rng.uniform(0.0, 3.0, 300)),
            [xc, np.nextafter(xc, np.inf)],
        ]
    )
    assert_tail_equal(x, alpha)
    assert_tail_equal(x[:1], alpha)
    assert_tail_equal(np.array(3.0 * xc), alpha)


def test_tail_series_points_in_many_chunks_and_blocks():
    # more points than one chunk holds, and at alpha = 1 points just above
    # x = 1 whose terms x^-(k+1) neither grow nor fall below the floor by
    # k = _TAIL_KMAX, so they are still summing when the term cap ends it
    rng = np.random.default_rng(8)
    slow = np.linspace(1.01, 1.1, 50)
    assert loop_tail_series(slow, 1.0)[3] > 1e-10
    x = np.concatenate([slow, rng.uniform(1.0, 40.0, 2 * _TAIL_CELLS // 8 + 123)])
    rng.shuffle(x)
    for alpha in (1.0, 0.7, 1.6):
        assert_tail_equal(x, alpha)


def test_crossover_equals_the_trial_loop():
    for alpha in np.round(np.arange(0.3, 2.0005, 0.001), 3):
        assert _crossover.__wrapped__(float(alpha)) == loop_crossover.__wrapped__(float(alpha))


def test_tail_series_truncation_above_the_crossover():
    # the accuracy _tail_series states: the largest estimate on this grid is
    # 2.9e-13, at alpha = 1.829; alpha = 2, where the f-series vanishes, is out
    for alpha in np.linspace(0.3, 1.999, 1700):
        x = np.logspace(math.log10(_crossover(float(alpha))), 300, 141)
        assert loop_tail_series(x, float(alpha))[3] <= 5e-13


def test_panel_grid_equals_the_linspace_loop():
    rng = np.random.default_rng(9)
    cases = [(T, xmax) for T, xmax in zip(10.0 ** rng.uniform(-3, 2, 60), 10.0 ** rng.uniform(-12, 3, 60))]
    cases += [(0.3, 5e-10), (41.5, 60.0), (1.0, 1.0), (2.0**-20, 1e4), (7.3, 0.0)]
    for T, xmax in cases:
        if T * max(xmax, 1e-9) > 2e4:
            continue
        got, want = panel_grid(T, xmax), loop_panel_grid(T, xmax)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("alphas", [(0.5, 0.8, 1.0, 1.45, 1.95), (2.0,), (1.5, 2.0)])
def test_logf_lookup_equals_per_alpha_splines(alphas):
    rng = np.random.default_rng(10)
    knots = np.linspace(0.0, math.asinh(1e9), 480)
    ax = np.concatenate(
        [
            np.abs(rng.standard_cauchy(300)),
            np.sinh(knots[::7]),
            [0.0, 1e9, np.nextafter(1e9, np.inf), 2e9, 1e12, 1e100, 1e200, 1e300],
        ]
    )
    ax = ax[None, :] / np.array([0.3, 1.0, 7.0])[:, None]
    with np.errstate(over="ignore"):  # x^2 of the normal's log f overflows to -inf
        for alpha, got in zip(alphas, _logf_lookup(alphas, ax)):
            assert np.array_equal(got, loop_logf_lookup(alpha, ax))


def fits():
    rng = np.random.default_rng(2006)
    w = WeightSpec("exp_power", 1.0, 1.5)
    return [
        mle_fit(rand_stable(0.8, 100, rng)),
        mle_fit(rand_stable(1.8, 200, rng)),
        mle_fit(rng.standard_normal(100)),
        eise_fit(rand_stable(1.2, 40, rng), w),
    ]


def test_fits_unchanged_with_the_loop_layers(monkeypatch):
    estimators._log_density_coefficients.cache_clear()
    shipped = fits()
    assert shipped[2].params.alpha == 2.0
    for mod in (stable_core, estimators):
        monkeypatch.setattr(mod, "_tail_series", lambda x, alpha: loop_tail_series(x, alpha)[:3])
        monkeypatch.setattr(mod, "_crossover", loop_crossover)
    monkeypatch.setattr(_fourier, "panel_grid", loop_panel_grid)
    monkeypatch.setattr(estimators, "_logf_lookup", lambda alphas, ax: (loop_logf_lookup(a, ax) for a in alphas))
    loop_log_density_spline.cache_clear()
    for got, want in zip(shipped, fits()):
        assert got.params == want.params
        assert got.n_iter == want.n_iter and got.objective == want.objective


def peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tail_series_memory_bounded():
    # the term loop peaked at 8.30 MB on these 10^5 points at both alphas; + 25%
    for alpha in (0.5, 1.5):
        x = np.logspace(math.log10(_crossover(alpha)), 300, 10**5)
        assert peak_bytes(lambda: _tail_series(x, alpha)) < 1.25 * 8.30e6


def test_grid_init_memory_bounded():
    # one spline call per alpha over all 40 x 5000 (sigma, x) cells peaked
    # at 8.04 MB; + 25%
    x = np.random.default_rng(1).standard_cauchy(5000)
    _grid_init(x)  # caches the splines, whose set-up is not measured
    assert peak_bytes(lambda: _grid_init(x)) < 1.25 * 8.04e6
