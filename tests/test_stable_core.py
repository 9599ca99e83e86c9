"""Characteristic function, density and sampling checks against closed forms."""

import json
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import gammaln

from stablegof import _fourier, stable_core
from stablegof._fourier import _LOG_EPS, panel_grid
from stablegof.stable_core import (
    StableParams,
    cf,
    pdf,
    pdf_batch,
    rand_stable,
    _crossover,
    _near_quad,
    _tail_series,
)
from test_kernels import cf_grad

STANDARD = {a: StableParams(0.0, 1.0, a) for a in (0.8, 1.0, 1.5, 1.8, 2.0)}


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(0.0, -1.0, 1.5)
    with pytest.raises(ValueError):
        StableParams(0.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        StableParams(0.0, 1.0, 0.0)
    # a NaN or infinite mu or sigma made loglik return NaN or -inf and
    # test_statistic a finite D, or failed later as a QuadratureError
    for mu, sigma in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            StableParams(mu, sigma, 1.5)


def test_cf_values():
    assert cf(0.0, StableParams(3.0, 2.0, 1.3)) == 1.0 + 0.0j
    assert np.isclose(cf(1.0, STANDARD[1.0]), math.exp(-1.0))
    assert np.isclose(cf(2.0, STANDARD[2.0]), math.exp(-4.0))


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(-40, 40),
    mu=st.floats(-5, 5),
    sigma=st.floats(0.1, 10),
    alpha=st.floats(0.1, 2.0),
)
def test_cf_modulus_and_conjugacy(t, mu, sigma, alpha):
    p = StableParams(mu, sigma, alpha)
    v = cf(t, p)
    assert abs(v) <= 1.0 + 1e-12
    assert np.isclose(cf(-t, p), np.conj(v), atol=1e-14)


def test_cf_grad_at_zero_and_cauchy():
    g = cf_grad(0.0, StableParams(0.0, 1.0, 1.5))
    assert g == (0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j)
    gm, gs, ga = cf_grad(1.0, STANDARD[1.0])
    assert np.isclose(gm, 1j * math.exp(-1.0))
    assert np.isclose(gs, -math.exp(-1.0))
    assert np.isclose(ga, 0.0)  # log 1 = 0


def test_cf_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(12):
        t = rng.uniform(-5.0, 5.0)
        alpha = rng.uniform(0.5, 1.95)
        p = StableParams(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), alpha)
        g = cf_grad(t, p)
        fd = (
            (cf(t, StableParams(p.mu + h, p.sigma, p.alpha)) - cf(t, StableParams(p.mu - h, p.sigma, p.alpha))) / (2 * h),
            (cf(t, StableParams(p.mu, p.sigma + h, p.alpha)) - cf(t, StableParams(p.mu, p.sigma - h, p.alpha))) / (2 * h),
            (cf(t, StableParams(p.mu, p.sigma, p.alpha + h)) - cf(t, StableParams(p.mu, p.sigma, p.alpha - h))) / (2 * h),
        )
        for gi, fi in zip(g, fd):
            assert abs(gi - fi) <= 1e-6 * max(abs(gi), 1e-3)


def test_pdf_closed_forms():
    assert abs(pdf(0.0, 1.0)[0] - 1.0 / math.pi) < 1e-12
    assert abs(pdf(0.0, 2.0)[0] - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
    assert abs(pdf(1.0, 1.0)[1] - (-1.0 / (2.0 * math.pi))) < 1e-12


def test_pdf_rejects_bad_alpha():
    with pytest.raises(ValueError):
        pdf(1.0, 0.0)
    with pytest.raises(ValueError):
        pdf(1.0, 2.3)


def test_pdf_matches_cauchy_everywhere():
    for x in (0.0, 0.4, 1.3, 3.0, 7.7, 15.0, 120.0):
        exact = 1.0 / (math.pi * (1.0 + x * x))
        assert abs(pdf(x, 1.0)[0] - exact) < 1e-10 * exact


def test_pdf_symmetry_exact():
    for alpha in (0.8, 1.4, 1.9):
        for x in (0.3, 2.2, 11.0):
            assert pdf(x, alpha)[0] == pdf(-x, alpha)[0]
            assert pdf(x, alpha)[1] == -pdf(-x, alpha)[1]
            assert pdf(x, alpha)[2] == pdf(-x, alpha)[2]


def _tail_mass(T, alpha, kmax=120):
    """int_T^inf f dx by integrating the tail expansion termwise."""
    total = 0.0
    prev = math.inf
    for k in range(1, kmax + 1):
        ka = k * alpha
        mag = math.exp(gammaln(ka + 1.0) - gammaln(k + 1.0) - ka * math.log(T)) / (ka * math.pi)
        if mag > prev:
            break
        total += (-1.0) ** (k - 1) * math.sin(0.5 * math.pi * ka) * mag
        prev = mag
    return total


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 1.8])
def test_density_normalization(alpha):
    T = 30.0
    core, _ = integrate.quad(lambda x: pdf(x, alpha)[0], 0.0, T, limit=300)
    total = 2.0 * (core + _tail_mass(T, alpha))
    assert abs(total - 1.0) < 1e-5


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_inversion_and_series_agree(alpha):
    for x in (8.0, 11.0, 14.0, 20.0):
        by_quad = float(_near_quad(np.array([x]), alpha)[0][0])
        by_series = float(_tail_series(np.array([x]), alpha)[0][0])
        assert abs(by_quad - by_series) < 1e-6 * abs(by_series)


@pytest.mark.parametrize("alpha", [0.9, 1.5, 1.8])
def test_derivatives_match_finite_differences(alpha):
    h = 1e-4
    xc = _crossover(alpha)
    points = [0.6, 2.0, 0.6 * xc, xc + 2.0, xc + 6.0]
    for x in points:
        _, fp, fa = pdf(x, alpha)
        fp_fd = (pdf(x + h, alpha)[0] - pdf(x - h, alpha)[0]) / (2 * h)
        fa_fd = (pdf(x, alpha + h)[0] - pdf(x, alpha - h)[0]) / (2 * h)
        assert abs(fp - fp_fd) < 1e-5 * max(abs(fp), 1e-6)
        assert abs(fa - fa_fd) < 1e-5 * max(abs(fa), 1e-6)


def mpmath_series_density(x, alpha):
    """(f, f', f_alpha) from the power series in x^(-k*alpha-1) at 40 digits.

    Convergent at every x > 0 for alpha < 1; f_alpha by mpmath's numerical
    derivative of the series in alpha.
    """
    with mpmath.workdps(40):
        x, alpha = mpmath.mpf(x), mpmath.mpf(alpha)

        def terms(a):
            k = 0
            while True:
                k += 1
                yield (-1) ** (k + 1) * mpmath.gamma(k * a + 1) / mpmath.factorial(k) * mpmath.sin(
                    k * mpmath.pi * a / 2
                ) * x ** (-k * a - 1) / mpmath.pi, k * a + 1

        def series(a, deriv):
            total, k = mpmath.mpf(0), 0
            for term, power in terms(a):
                k += 1
                total += -term * power / x if deriv else term
                if k > 20 and abs(term) < mpmath.mpf(10) ** -45:
                    return total

        f, fp = series(alpha, False), series(alpha, True)
        fa = mpmath.diff(lambda a: series(a, False), alpha)
        return float(f), float(fp), float(fa)


def test_small_alpha_density_where_qawo_reports_roundoff():
    # QAWO flags "roundoff" on the whole half-line for f_alpha here; the
    # [0, 1] + [1, T] split runs clean
    x, alpha = 0.051474888479710317, 0.32
    want = mpmath_series_density(x, alpha)
    batch = pdf_batch(np.array([x, -x]), alpha)
    for got in (pdf(x, alpha), [b[0] for b in batch]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * want[0])
    assert batch[1][0] == -batch[1][1]  # f' at x and -x


ORACLE = json.loads(pathlib.Path(__file__).with_name("density_oracle.json").read_text())
ORACLE_ALPHAS = sorted({row["alpha"] for row in ORACLE}, key=float)


def oracle_points(alpha):
    """The oracle's x at ``alpha`` with both signs, and its (f, f', f_alpha) there."""
    rows = [row for row in ORACLE if row["alpha"] == alpha]
    x = np.array([float(row["x"]) for row in rows])
    want = [np.array([float(row[k]) for row in rows]) for k in ("f", "fp", "fa")]
    return np.concatenate([x, -x]), [np.concatenate([w, s * w]) for w, s in zip(want, (1, -1, 1))]


def assert_relative(got, want, bounds):
    for g, w, bound in zip(got, want, bounds):
        assert np.all(np.abs(g - w) <= bound * np.abs(w))


# Against the 30-digit mpmath table of tests/make_density_oracle.py, two
# points below and two above the crossover at each alpha.  pdf was at most
# 1.6e-12 relative off (f' at alpha = 1.9, x = 11.4).  pdf_batch's f and f'
# were within 1.5e-10, its f_alpha within 1.2e-9 (both at alpha = 0.5,
# x = 0.95): panel_grid's innermost panel [0, 2^-14] takes the t^alpha log t
# cusp on its 10 nodes.  In a 5000-point batch, which reads the y-table,
# the points keep those bounds.  x = 10.5 at alpha = 2 lies below that
# alpha's crossover, 13: the asymptotic f_alpha series is 1.8e-8 off there.
PDF_BOUNDS = (1e-11, 1e-11, 1e-11)
PDF_BATCH_BOUNDS = (1e-9, 1e-9, 1.5e-9)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_pdf_and_small_batches_meet_the_mpmath_oracle(alpha):
    x, want = oracle_points(alpha)
    a = float(alpha)
    assert np.any(np.abs(x) <= _crossover(a)) and np.any(np.abs(x) > _crossover(a))
    assert_relative(np.array([pdf(v, a) for v in x]).T, want, PDF_BOUNDS)
    assert_relative(pdf_batch(x, a), want, PDF_BATCH_BOUNDS)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_a_large_batch_through_the_table_meets_the_mpmath_oracle(alpha, monkeypatch):
    # below alpha = 1.25 the table's first width-2 panels fail their tail
    # check, and the points take halved ones: more than one round
    x, want = oracle_points(alpha)
    a = float(alpha)
    sample = rand_stable(a, 5000, np.random.default_rng(41))
    batch = np.concatenate([sample, x])
    near = np.count_nonzero(np.abs(batch) <= _crossover(a))
    sizes, rounds = [], []
    grid_sums, cheb_table = _fourier._grid_sums, _fourier._cheb_table

    def recording(ay, *args, **kwargs):
        sizes.append(ay.size)
        return grid_sums(ay, *args, **kwargs)

    def counting(*args):
        rounds.append(args[1].shape[0])
        return cheb_table(*args)

    monkeypatch.setattr(_fourier, "_grid_sums", recording)
    monkeypatch.setattr(_fourier, "_cheb_table", counting)
    got = pdf_batch(batch, a)
    assert near > _fourier._DIRECT_MAX and near not in sizes
    assert rounds and (len(rounds) > 1) == (a < 1.25)
    assert_relative([g[sample.size :] for g in got], want, PDF_BATCH_BOUNDS)


def test_pdf_batch_matches_scalar():
    rng = np.random.default_rng(3)
    for alpha in (0.8, 1.2, 1.7, 2.0):
        xs = np.concatenate([rng.uniform(-6, 6, 15), rng.uniform(9, 50, 8)])
        f, fp, fa = pdf_batch(xs, alpha)
        for i, x in enumerate(xs):
            df, dfp, dfa = pdf(x, alpha)
            assert abs(f[i] - df) < 1e-8 * max(abs(df), 1e-12)
            assert abs(fp[i] - dfp) < 1e-7 * max(abs(dfp), 1e-10)
            assert abs(fa[i] - dfa) < 1e-7 * max(abs(dfa), 1e-10)


@pytest.mark.parametrize("alpha", [0.25, 0.32])
def test_pdf_batch_quadrature_fallback_equals_pdf_bit_for_bit(monkeypatch, alpha):
    # below alpha ~ 0.335 the cutoff T = 41.5^(1/alpha) makes the shared grid
    # too large (T * max(|x|, 1) > 6e4), so pdf_batch takes the per-point QAWO
    # of pdf; both call the one routine with the same settings.  At 0.35 the
    # crossover is 1 and T = 41,975, so every point there takes the grid.
    sizes = []
    qawo_sums = stable_core._qawo_sums

    def recording(ax, *args):
        sizes.append(ax.size)
        return qawo_sums(ax, *args)

    monkeypatch.setattr(stable_core, "_qawo_sums", recording)
    xs = np.array([0.0, 0.051474888479710317, -0.3, 0.7, -1.0])
    assert np.all(np.abs(xs) <= _crossover(alpha))
    batch = pdf_batch(xs, alpha)
    assert sizes == [4]
    for i, x in enumerate(xs):
        want = [v.hex() for v in pdf(x, alpha)]
        assert [float(b[i]).hex() for b in batch] == want


def gaussian_pdf3(x):
    """(f, f', f_alpha) of the alpha = 2 member, i.e. N(0, 2): the package's
    former separate route, kept as the reference for ``pdf_batch(x, 2.0)``.

    f and f' are the closed-form normal expressions.  The alpha-derivative
    comes from a single cosine sum on the inversion grid up to the
    crossover (|x| <= 13) and from the tail expansion beyond.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f = np.exp(-0.25 * x * x) / (2.0 * math.sqrt(math.pi))
    fp = -0.5 * x * f
    ax = np.abs(x)
    fa = np.empty_like(ax)
    small = ax <= _crossover(2.0)
    if np.any(small):
        t, w = panel_grid(_LOG_EPS**0.5, float(np.max(ax[small])))
        wt = w * np.where(t > 0, t**2 * np.log(np.maximum(t, 1e-300)), 0.0) * np.exp(-(t**2))
        fa[small] = -(np.cos(np.outer(ax[small], t)) @ wt) / math.pi
    if np.any(~small):
        _, _, fa_big = _tail_series(ax[~small], 2.0)
        fa[~small] = fa_big
    return f, fp, fa


def test_pdf_batch_gaussian_member_matches_reference():
    xs = np.concatenate([np.linspace(0.0, 60.0, 241), [12.999, 13.0, 13.001]])
    for x in (xs, -xs, np.concatenate([-xs[::3], xs[1::3]])):
        got, want = pdf_batch(x, 2.0), gaussian_pdf3(x)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-15)


def test_rand_stable_gaussian_variance():
    rng = np.random.default_rng(77)
    z = rand_stable(2.0, 100_000, rng)
    assert 1.94 <= z.var() <= 2.06


def test_rand_stable_cauchy_ks():
    rng = np.random.default_rng(78)
    z = rand_stable(1.0, 100_000, rng)
    assert stats.kstest(z, "cauchy").statistic < 0.006


def test_rand_stable_reproducible():
    a = rand_stable(1.5, 50, np.random.default_rng(9))
    b = rand_stable(1.5, 50, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_rand_stable_cf_check():
    rng = np.random.default_rng(15)
    z = rand_stable(1.5, 200_000, rng)
    for t in (0.5, 1.0, 2.0):
        emp = np.cos(t * z).mean()
        assert abs(emp - math.exp(-(t**1.5))) < 0.005
