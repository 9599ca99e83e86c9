"""Characteristic function, density and sampling checks against closed forms."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import gammaln

from stablegof import stable_core
from stablegof._fourier import _LOG_EPS, panel_grid
from stablegof.stable_core import (
    StableParams,
    cf,
    cf_grad,
    pdf,
    pdf_batch,
    rand_stable,
    _crossover,
    _near_quad,
    _tail_series,
)

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
    assert abs(pdf(0.0, 1.0).f - 1.0 / math.pi) < 1e-12
    assert abs(pdf(0.0, 2.0).f - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
    assert abs(pdf(1.0, 1.0).fprime - (-1.0 / (2.0 * math.pi))) < 1e-12


def test_pdf_rejects_bad_alpha():
    with pytest.raises(ValueError):
        pdf(1.0, 0.0)
    with pytest.raises(ValueError):
        pdf(1.0, 2.3)


def test_pdf_matches_cauchy_everywhere():
    for x in (0.0, 0.4, 1.3, 3.0, 7.7, 15.0, 120.0):
        exact = 1.0 / (math.pi * (1.0 + x * x))
        assert abs(pdf(x, 1.0).f - exact) < 1e-10 * exact


def test_pdf_symmetry_exact():
    for alpha in (0.8, 1.4, 1.9):
        for x in (0.3, 2.2, 11.0):
            assert pdf(x, alpha).f == pdf(-x, alpha).f
            assert pdf(x, alpha).fprime == -pdf(-x, alpha).fprime
            assert pdf(x, alpha).falpha == pdf(-x, alpha).falpha


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
    core, _ = integrate.quad(lambda x: pdf(x, alpha).f, 0.0, T, limit=300)
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
        d = pdf(x, alpha)
        fp_fd = (pdf(x + h, alpha).f - pdf(x - h, alpha).f) / (2 * h)
        fa_fd = (pdf(x, alpha + h).f - pdf(x, alpha - h).f) / (2 * h)
        assert abs(d.fprime - fp_fd) < 1e-5 * max(abs(d.fprime), 1e-6)
        assert abs(d.falpha - fa_fd) < 1e-5 * max(abs(d.falpha), 1e-6)


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
    d = pdf(x, alpha)
    batch = pdf_batch(np.array([x, -x]), alpha)
    for got in ((d.f, d.fprime, d.falpha), [b[0] for b in batch]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * want[0])
    assert batch[1][0] == -batch[1][1]  # f' at x and -x


def test_pdf_batch_matches_scalar():
    rng = np.random.default_rng(3)
    for alpha in (0.8, 1.2, 1.7, 2.0):
        xs = np.concatenate([rng.uniform(-6, 6, 15), rng.uniform(9, 50, 8)])
        f, fp, fa = pdf_batch(xs, alpha)
        for i, x in enumerate(xs):
            d = pdf(x, alpha)
            assert abs(f[i] - d.f) < 1e-8 * max(abs(d.f), 1e-12)
            assert abs(fp[i] - d.fprime) < 1e-7 * max(abs(d.fprime), 1e-10)
            assert abs(fa[i] - d.falpha) < 1e-7 * max(abs(d.falpha), 1e-10)


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
        d = pdf(x, alpha)
        want = [v.hex() for v in (d.f, d.fprime, d.falpha)]
        assert [float(b[i]).hex() for b in batch] == want


def gaussian_pdf3(x):
    """(f, f', f_alpha) of the alpha = 2 member, i.e. N(0, 2): the package's
    former separate route, kept as the reference for ``pdf_batch(x, 2.0)``.

    f and f' are the closed-form normal expressions.  The alpha-derivative
    comes from a single cosine sum on the inversion grid for |x| <= 10 and
    from the tail expansion beyond.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f = np.exp(-0.25 * x * x) / (2.0 * math.sqrt(math.pi))
    fp = -0.5 * x * f
    ax = np.abs(x)
    fa = np.empty_like(ax)
    small = ax <= 10.0
    if np.any(small):
        t, w = panel_grid(_LOG_EPS**0.5, float(np.max(ax[small])))
        wt = w * np.where(t > 0, t**2 * np.log(np.maximum(t, 1e-300)), 0.0) * np.exp(-(t**2))
        fa[small] = -(np.cos(np.outer(ax[small], t)) @ wt) / math.pi
    if np.any(~small):
        _, _, fa_big = _tail_series(ax[~small], 2.0)
        fa[~small] = fa_big
    return f, fp, fa


def test_pdf_batch_gaussian_member_matches_reference():
    xs = np.concatenate([np.linspace(0.0, 60.0, 241), [9.999, 10.0, 10.001]])
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
