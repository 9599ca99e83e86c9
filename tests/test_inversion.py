"""Distribution of the limit statistic: oracles and table spot checks."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from stablegof import inversion
from stablegof.errors import SeriesDivergenceError
from stablegof.inversion import (
    InversionConfig,
    _check_alternating,
    _series_terms,
    cdf_dk,
    cdf_dk_with_bound,
    default_inversion_config,
    quantile_dk,
)
from stablegof.kernels import make_kernel
from stablegof.spectral import Spectrum, build_spectrum


def pdf_series_terms(x, config):
    """Magnitudes of the density's series terms: the CDF's without its 1/y factor."""
    y, log_w = config._table
    return np.exp(log_w + np.log(y) - x * y).sum(axis=1)


def pdf_dk(x, config):
    """Density of the limiting statistic (the CDF's series without the 1/y factor).

    Moved here from ``stablegof.inversion``, where no package path called it;
    it checks the CDF route against its derivative.
    """
    if x <= 0:
        raise ValueError(f"the statistic is positive; got x={x}")
    terms = pdf_series_terms(x, config)
    _check_alternating(terms)
    signs = np.where(np.arange(1, len(terms) + 1) % 2 == 1, 1.0, -1.0)
    return float(np.sum(signs * terms))


def paired_rates(config):
    """Collapse double eigenvalues into exponential rates lambda_j/2.

    A doubled spectrum's law is a finite sum of exponentials with these
    rates; the series reproduces it (see the ``inversion`` docstring).
    """
    lam = config.spectrum.lambdas[: config.m]
    k = len(lam) - len(lam) % 2
    pairs = np.sqrt(lam[0:k:2] * lam[1:k:2])
    return 0.5 * pairs


def hypoexp_sf_terms(x, rates):
    """Signed terms of P(sum_j Exp(rate_j) > x) = sum_j c_j e^{-r_j x}.

    c_j = prod_{i != j} r_i / (r_i - r_j), evaluated in log magnitude with
    the sign (-1)^(j-1) of the sorted-rate products.  Float reference for
    a doubled spectrum; its rounding reaches 1e-12 in F at N = 800 (see
    :func:`exact_hypoexp_cdf` for the exact one).
    """
    r = np.asarray(rates)
    logr = np.log(r)
    terms = []
    for j in range(len(r)):
        diff = r - r[j]
        diff = np.delete(diff, j)
        logc = float(np.sum(np.delete(logr, j)) - np.sum(np.log(np.abs(diff))))
        sign = -1.0 if j % 2 else 1.0
        expo = logc - r[j] * x
        terms.append(sign * math.exp(expo) if expo > -745.0 else 0.0)
    return np.asarray(terms)


def exact_hypoexp_cdf(xs, rates, dps=40):
    """1 - sum_j c_j e^{-r_j x} at each x, summed in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        r = [mpmath.mpf(float(v)) for v in rates]
        c = [mpmath.fprod(ri / (ri - rj) for i, ri in enumerate(r) if i != j)
             for j, rj in enumerate(r)]
        return [float(1 - mpmath.fsum(cj * mpmath.exp(-rj * mpmath.mpf(float(x)))
                                      for cj, rj in zip(c, r)))
                for x in xs]


def imhof_cdf(x, lam):
    """Imhof-formula CDF of sum_j X_j^2/lambda_j; independent oracle."""

    def f(u):
        if u == 0.0:
            return 0.5 * (np.sum(1.0 / lam) - x)
        th = 0.5 * float(np.sum(np.arctan(u / lam))) - 0.5 * x * u
        rho = math.exp(0.25 * float(np.sum(np.log1p(u * u / lam**2))))
        return math.sin(th) / (u * rho)

    val, _ = integrate.quad(f, 0.0, np.inf, limit=2000)
    return 0.5 - val / math.pi


def adaptive_series_terms(x, config, with_inverse_y):
    """Series terms by adaptive quadrature of the cosine-substituted integrand.

    Reference for the fixed Gauss-Legendre table the package evaluates.
    """
    lam = config.spectrum.lambdas
    lm = lam[: config.m]
    terms = []
    for k in range(1, config.l + 1):
        lo, hi = lam[2 * k - 2], lam[2 * k - 1]
        a, b = 0.5 * lo, 0.5 * hi
        const = 0.5 * math.sqrt(lo * hi)
        lm_rest = np.delete(lm, (2 * k - 2, 2 * k - 1))

        def integrand(z):
            y = 0.5 * (b - a) * math.cos(math.pi * z) + 0.5 * (a + b)
            logprod = float(np.sum(np.log(np.abs(1.0 - 2.0 * y / lm_rest))))
            v = const * math.exp(-x * y - 0.5 * logprod)
            return v / y if with_inverse_y else v

        val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        terms.append(val)
    return np.asarray(terms)


def synthetic_spectrum(lambdas, kappa=1.0):
    lam = np.asarray(lambdas, dtype=float)
    return Spectrum(lambdas=lam, kappa=kappa)


@pytest.fixture(scope="module")
def simple_cfg():
    lam = np.array([2.0, 5.0, 9.0, 14.0, 20.0, 27.0, 35.0, 44.0, 54.0, 65.0])
    return InversionConfig(spectrum=synthetic_spectrum(lam), l=5, m=10)


@pytest.fixture(scope="module")
def spectrum_h1_a1k1():
    return build_spectrum(make_kernel("mle_h1", 1.0, 1.0), 800)


def loop_check_alternating(terms):
    """Reference copy of ``_check_alternating``'s loop before it became one array expression."""
    mags = np.abs(terms)
    for k in range(1, len(mags)):
        if mags[k] >= mags[k - 1] and mags[k] > 1e-13:
            raise SeriesDivergenceError(
                f"series terms stopped decreasing at k={k + 1} "
                f"({mags[k - 1]:.3e} -> {mags[k]:.3e}); x too small for this truncation"
            )


def test_check_alternating_reports_the_loops_first_rising_term():
    rng = np.random.default_rng(11)
    cases = [
        np.array([]),
        np.array([0.3]),
        np.array([0.5, 0.2, 0.1]),
        np.array([0.5, 0.5, 0.1]),  # an equal term counts as rising
        np.array([0.5, 0.2, 3e-14, 5e-14, 0.3, 0.4]),  # below 1e-13 it does not
        np.array([-0.5, 0.2, -0.3, 0.1, 0.4]),
        np.array([1.0, math.nan, 2.0, 3.0]),
    ] + [rng.permutation(np.geomspace(1.0, 1e-16, 12))[:k] for k in range(2, 12)]
    for terms in cases:
        try:
            loop_check_alternating(terms)
            want = None
        except SeriesDivergenceError as exc:
            want = str(exc)
        if want is None:
            _check_alternating(terms)
        else:
            with pytest.raises(SeriesDivergenceError) as got:
                _check_alternating(terms)
            assert str(got.value) == want


def test_cdf_matches_imhof_simple(simple_cfg):
    lam = simple_cfg.spectrum.lambdas
    for x in (0.5, 1.0, 2.0, 3.5):
        assert abs(cdf_dk(x, simple_cfg) - imhof_cdf(x, lam)) < 1e-6


def test_cdf_matches_imhof_paired():
    base = np.array([2.0, 6.5, 12.0, 19.0, 28.0, 40.0])
    lam = np.repeat(base, 2)
    # l = m/2: every pair is a term; with fewer the sum stops short
    cfg = InversionConfig(spectrum=synthetic_spectrum(lam), l=6, m=12)
    for x in (0.8, 1.5, 2.5, 4.0):
        assert abs(cdf_dk(x, cfg) - imhof_cdf(x, lam)) < 1e-8


def test_pdf_matches_cdf_derivative(simple_cfg):
    h = 1e-5
    for x in np.linspace(0.6, 3.0, 10):
        fd = (cdf_dk(x + h, simple_cfg) - cdf_dk(x - h, simple_cfg)) / (2 * h)
        assert abs(pdf_dk(x, simple_cfg) - fd) < 1e-3 * max(abs(fd), 1e-6)


def test_pdf_integrates_to_cdf_increment(simple_cfg):
    val, _ = integrate.quad(lambda x: pdf_dk(x, simple_cfg), 0.5, 3.0, limit=200)
    assert abs(val - (cdf_dk(3.0, simple_cfg) - cdf_dk(0.5, simple_cfg))) < 1e-3


def test_pdf_nonnegative_on_grid(simple_cfg):
    for x in np.linspace(0.5, 5.0, 25):
        assert pdf_dk(x, simple_cfg) >= -1e-6


def test_cdf_monotone_increasing_to_one(simple_cfg):
    xs = np.linspace(0.5, 8.0, 30)
    vals = [cdf_dk(x, simple_cfg) for x in xs]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 0.999


@pytest.mark.parametrize("which", ["simple_cfg", "h1"])
def test_series_terms_match_adaptive_quadrature(which, simple_cfg, spectrum_h1_a1k1):
    if which == "simple_cfg":
        cfg = simple_cfg
    else:
        cfg = default_inversion_config(spectrum_h1_a1k1)
    mean = cfg.spectrum.trace_sum(cfg.m)
    for x in mean * np.array([0.3, 0.5, 1.0, 2.0, 4.0, 10.0]):
        for with_inverse_y in (True, False):
            got = _series_terms(x, cfg) if with_inverse_y else pdf_series_terms(x, cfg)
            want = adaptive_series_terms(x, cfg, with_inverse_y)
            keep = want > 1e-200
            assert keep[0]
            np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0.0)


def test_config_validation(simple_cfg):
    sp = simple_cfg.spectrum
    with pytest.raises(ValueError):
        InversionConfig(spectrum=sp, l=6, m=10)  # 2l > available
    with pytest.raises(ValueError):
        InversionConfig(spectrum=sp, l=3, m=11)  # m > available
    with pytest.raises(ValueError):
        InversionConfig(spectrum=sp, l=0, m=10)  # no series term


def test_mixed_spectrum_matches_imhof():
    # the first pair is doubled, the later pairs simple: its zero-width
    # interval is one exponential, the others integrals, in one series
    lam = np.array([2.0, 2.0, 5.0, 9.0, 14.0, 20.0, 27.0, 35.0, 44.0, 54.0])
    cfg = InversionConfig(spectrum=synthetic_spectrum(lam), l=5, m=10)
    for x in (0.8, 1.5, 2.5, 4.0):
        assert abs(cdf_dk(x, cfg) - imhof_cdf(x, lam)) < 1e-8


def test_defaults_follow_weight_size():
    lam = np.cumsum(np.linspace(1.0, 80.0, 800))
    for kappa, want_l, want_m in ((1.0, 25, 500), (2.5, 25, 500), (5.0, 10, 500), (10.0, 10, 300)):
        cfg = default_inversion_config(synthetic_spectrum(lam, kappa))
        assert (cfg.l, cfg.m) == (want_l, want_m)


def test_cdf_rejects_nonpositive_x(simple_cfg):
    with pytest.raises(ValueError):
        cdf_dk(0.0, simple_cfg)
    with pytest.raises(ValueError):
        pdf_dk(-1.0, simple_cfg)


def test_series_divergence_detected(simple_cfg):
    # far left tail: e^{-xy} no longer damps the growing determinant terms
    with pytest.raises(SeriesDivergenceError):
        cdf_dk(1e-4, simple_cfg)


def test_quantile_roundtrip(simple_cfg):
    for xi in (0.10, 0.05, 0.25):
        q = quantile_dk(xi, simple_cfg)
        assert abs(cdf_dk(q, simple_cfg) - (1.0 - xi)) < 1e-5
    with pytest.raises(ValueError):
        quantile_dk(0.7, simple_cfg)


def first_lower_end(cfg):
    """F at quantile_dk's first lower bracket end: E[D]/10, times 1.5 while the series diverges."""
    lo = cfg.spectrum.trace_sum(cfg.m) / 10.0
    for _ in range(60):
        try:
            return cdf_dk(lo, cfg)
        except SeriesDivergenceError:
            lo *= 1.5
    raise AssertionError("no lower end evaluated")


@pytest.mark.parametrize(
    "cell", [("mle_h1", 0.8, 1.0), ("mle_h1", 1.9, 10.0), ("mle_h2", 1.0, 2.5), None]
)
def test_first_lower_bracket_end_is_below_the_median(cell):
    # quantile_dk only ever moves its lower end up, so each level's target
    # F = 1 - xi > 1/2 must lie above F there; None: a spectrum whose first
    # eigenvalue dominates, near one chi-square(1) term, F = 0.2474
    if cell is None:
        sp = synthetic_spectrum(np.concatenate(([1.0], 1e4 * np.arange(1.0, 800.0))))
    else:
        sp = build_spectrum(make_kernel(*cell), 800)
    assert first_lower_end(default_inversion_config(sp)) < 0.5


def test_a_quantile_beyond_ten_means_doubles_the_upper_end(monkeypatch):
    # one dominant eigenvalue: D is near one chi-square(1) term, whose upper
    # 0.001 point (10.86 here) lies beyond the first upper end, 10 E[D];
    # the Imhof CDF there was 7.8e-11 off the target
    lam = np.concatenate(([1.0], 100.0 * np.arange(1.0, 20.0)))
    cfg = default_inversion_config(synthetic_spectrum(lam))
    seen, cdf = [], inversion.cdf_dk

    def recording(x, config):
        seen.append(x)
        return cdf(x, config)

    monkeypatch.setattr(inversion, "cdf_dk", recording)
    q = quantile_dk(0.001, cfg)
    first_hi = 10.0 * cfg.spectrum.trace_sum(cfg.m)
    assert q > first_hi and seen[:2] == [first_hi, 2.0 * first_hi]
    assert abs(imhof_cdf(q, lam[: cfg.m]) - 0.999) <= 1e-8


def test_published_cdf_spot_values(spectrum_h1_a1k1):
    cfg = default_inversion_config(spectrum_h1_a1k1)
    assert abs(cdf_dk(0.988, cfg) - 0.90) < 2e-3
    sp2 = build_spectrum(make_kernel("mle_h2", 1.5, 2.5), 800)
    assert abs(cdf_dk(0.1697, default_inversion_config(sp2)) - 0.95) < 2e-3


def test_published_quantile_spot_values():
    sp = build_spectrum(make_kernel("mle_h1", 1.8, 5.0), 800)
    q = quantile_dk(0.10, default_inversion_config(sp))
    assert abs(q / 0.00977 - 1.0) < 0.02


@pytest.mark.slow
def test_published_quantile_small_alpha():
    sp = build_spectrum(make_kernel("mle_h1", 0.5, 1.0), 800)
    q = quantile_dk(0.05, default_inversion_config(sp))
    assert abs(q / 1.609 - 1.0) < 0.02


def test_truncation_stable_in_m(spectrum_h1_a1k1):
    base = default_inversion_config(spectrum_h1_a1k1)
    alt = InversionConfig(spectrum=spectrum_h1_a1k1, l=base.l, m=300)
    q1 = quantile_dk(0.10, base)
    q2 = quantile_dk(0.10, alt)
    assert abs(q2 / q1 - 1.0) < 0.005


def test_alternating_bound_brackets_limit(simple_cfg):
    # partial sums with l and l+1 terms must straddle the converged value
    sp = simple_cfg.spectrum
    x = 1.5
    full = cdf_dk(x, InversionConfig(spectrum=sp, l=5, m=10))
    lo = cdf_dk(x, InversionConfig(spectrum=sp, l=3, m=10))
    hi = cdf_dk(x, InversionConfig(spectrum=sp, l=4, m=10))
    assert min(lo, hi) - 1e-12 <= full <= max(lo, hi) + 1e-12
    val, bound = cdf_dk_with_bound(x, simple_cfg)
    assert abs(val - imhof_cdf(x, sp.lambdas)) <= bound + 1e-8


def test_paired_cdf_bound_and_left_tail():
    lam = np.repeat(np.array([2.0, 6.5, 12.0, 19.0, 28.0, 40.0]), 2)
    sp = synthetic_spectrum(lam)
    full = InversionConfig(spectrum=sp, l=6, m=12)
    short = InversionConfig(spectrum=sp, l=3, m=12)
    # the terms grow here, 2.196 -> 2.291 from k = 1 to k = 2
    with pytest.raises(SeriesDivergenceError):
        cdf_dk_with_bound(1e-4, full)
    for x in (0.8, 1.5, 2.5, 4.0):
        # l = m/2 holds every exponential of the sum; three terms fewer
        # miss it by less than their own bound
        val3, bound3 = cdf_dk_with_bound(x, short)
        assert abs(val3 - cdf_dk(x, full)) <= bound3


def test_paired_h2_cauchy_quantiles():
    # mle_h2 spectra at alpha = 1 carry every eigenvalue twice; references are
    # the critical values of the exponential sum they were once routed to
    cfg = default_inversion_config(build_spectrum(make_kernel("mle_h2", 1.0, 2.5), 800))
    for xi, ref in ((0.10, 0.28561050481335243), (0.05, 0.33498755484008136)):
        q = quantile_dk(xi, cfg)
        assert abs(q / ref - 1.0) < 1e-10
        assert cdf_dk_with_bound(q, cfg)[1] <= 1e-12


def test_cauchy_h2_cdf_matches_the_exact_exponential_sum():
    # the doubled mle_h2 spectrum at alpha = 1: the float exponential sum
    # misses the exact one by up to 9.7e-13 here, the series by <= 8.4e-16
    cfg = default_inversion_config(build_spectrum(make_kernel("mle_h2", 1.0, 1.0), 800))
    xs = cfg.spectrum.trace_sum(cfg.m) * np.array([0.6, 1.0])
    for x, want in zip(xs, exact_hypoexp_cdf(xs, paired_rates(cfg))):
        assert abs(cdf_dk(x, cfg) - want) <= 1e-14


@pytest.mark.parametrize("kappa", [None, 1.0, 10.0])
def test_paired_table_reproduces_the_exponential_sum(kappa):
    # None: the synthetic doubled spectrum, with l = m/2 so that every
    # exponential is a term; else mle_h2 at alpha = 1, N = 800
    if kappa is None:
        lam = np.repeat(np.array([2.0, 6.5, 12.0, 19.0, 28.0, 40.0]), 2)
        cfg = InversionConfig(spectrum=synthetic_spectrum(lam), l=6, m=12)
    else:
        cfg = default_inversion_config(build_spectrum(make_kernel("mle_h2", 1.0, kappa), 800))
    r = paired_rates(cfg)
    # the float sum's own rounding sets these tolerances: at kappa = 1 it is
    # 9.7e-13 off in F (the series 8.4e-16, see the test above), and its
    # terms and density sit 6.3e-13 and 2.8e-13 relative from the series'
    mean = cfg.spectrum.trace_sum(cfg.m)
    xs = [quantile_dk(xi, cfg) for xi in (0.10, 0.05)] + list(mean * np.linspace(0.6, 5.0, 12))
    for x in xs:
        terms = hypoexp_sf_terms(x, r)
        np.testing.assert_allclose(
            _series_terms(x, cfg), np.abs(terms[: cfg.l]), rtol=2e-12, atol=1e-300
        )
        assert abs(cdf_dk(x, cfg) - (1.0 - float(np.sum(terms)))) <= 2e-12
        pdf_terms = pdf_series_terms(x, cfg)
        got_pdf = float(np.sum(pdf_terms[0::2]) - np.sum(pdf_terms[1::2]))
        assert abs(got_pdf - float(np.sum(r * terms))) <= 1e-12 * np.sum(np.abs(r * terms))
