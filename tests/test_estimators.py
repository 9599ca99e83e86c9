"""Fisher information, EISE matrices and the two fitters."""

import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy import integrate

from stablegof import _fourier, estimators, stable_core
from stablegof._fourier import (
    _GL_NODES,
    _GL_WEIGHTS,
    _GRADED_NODES,
    _RULE_CELLS,
    _graded_rule,
    envelope_cutoff,
    envelope_moment,
)
from stablegof.errors import DataError, NonConvergenceError, NumericsError, QuadratureError
from stablegof.estimators import (
    EiseMatrices,
    WeightSpec,
    _fisher_rule,
    _logf_lookup,
    _pair_sums,
    _w0_and_deriv,
    eise_fit,
    eise_matrices,
    fisher_info,
    fisher_location_scale,
    loglik,
    mle_fit,
    q_objective,
    q_objective_direct,
)
from stablegof.stable_core import StableParams, _crossover, pdf, pdf_batch, rand_stable

EULER_GAMMA = np.euler_gamma


def tensor_h_quadrant(alpha, weight):
    """The four distinct H integrals over the quadrant s, t >= 0, by one tensor rule.

    Reference copy of the H computation that ``eise_matrices`` used before
    the Fubini reduction to the inner integrals.  The outer graded rule runs
    over t in [0, T]; for each t node the inner one runs over s in [0, t]
    and [t, T], so the |s - t|^alpha cusp and the s^alpha, t^alpha cusps at
    the axes all sit at panel ends.  Summed over blocks of t nodes of at
    most ``_RULE_CELLS`` (s, t) pairs.  Matches nested adaptive quadrature
    to 5e-14 relative.
    """
    T = envelope_cutoff(((1.0, alpha),) + weight.terms())
    (wc, wp), = weight.terms()
    t_all, wt_all = _graded_rule(0.0, T)
    hv = np.zeros(4)
    rows = max(1, _RULE_CELLS // (2 * _GRADED_NODES))
    for lo in range(0, t_all.size, rows):
        t, wt = t_all[lo : lo + rows], wt_all[lo : lo + rows]
        s, ws = _graded_rule(
            np.stack([np.zeros_like(t), t], -1), np.stack([t, np.full_like(t, T)], -1)
        )
        s, ws = s.reshape(t.size, -1), ws.reshape(t.size, -1) * wt[:, None]
        t = t[:, None]
        sa, ta = s**alpha, t**alpha
        ws *= np.exp(-sa - ta - wc * (s**wp + t**wp))
        dm = np.exp(-np.abs(s - t) ** alpha)
        dp = np.exp(-((s + t) ** alpha))
        hv[0] += np.sum(ws * 0.5 * (dm - dp) * s * t)
        ws *= (0.5 * (dm + dp) - np.exp(-sa - ta)) * sa * ta
        ls, lt = np.log(s), np.log(t)
        hv[1:] += np.sum(ws), np.sum(ws * 0.5 * (ls + lt)), np.sum(ws * ls * lt)
    return hv


def h_entries(em):
    """(H00, H11, H12, H22) of an EiseMatrices, divided by alpha^2 and alpha as
    in the quadrant integrals."""
    a, H = em.alpha, em.H
    return np.array([H[0, 0], H[1, 1] / a**2, H[1, 2] / a, H[2, 2]])


def adaptive_h_quadrant(alpha, weight):
    """The four H quadrant integrals by nested adaptive quadrature.

    quad_vec over s split at s = t inside quad_vec over t.  Its own error
    is up to ~1e-10 relative.
    """
    T = envelope_cutoff(((1.0, alpha),) + weight.terms())
    wc, wp = weight.terms()[0]

    def h_inner(t):
        def integrand(s):
            em = math.exp(-(s**alpha) - t**alpha - wc * (s**wp + t**wp))
            dm = math.exp(-abs(s - t) ** alpha)
            dp = math.exp(-((s + t) ** alpha))
            br_mu = 0.5 * (dm - dp)
            br = 0.5 * (dm + dp) - math.exp(-(s**alpha) - t**alpha)
            sta = (s * t) ** alpha
            ls, lt_ = math.log(s) if s > 0 else 0.0, math.log(t) if t > 0 else 0.0
            return np.array(
                [
                    br_mu * s * t * em,
                    br * sta * em,
                    br * sta * 0.5 * (ls + lt_) * em,
                    br * sta * ls * lt_ * em,
                ]
            )

        lo, _ = integrate.quad_vec(integrand, 0.0, min(t, T), epsabs=1e-13, epsrel=1e-9)
        hi, _ = integrate.quad_vec(integrand, min(t, T), T, epsabs=1e-13, epsrel=1e-9)
        return lo + hi

    hv, _ = integrate.quad_vec(h_inner, 0.0, T, epsabs=1e-12, epsrel=1e-8)
    return hv


def closed_form_cauchy_info():
    g, l2 = EULER_GAMMA, math.log(2.0)
    return 0.5, 0.5, 0.5 * (1 - g - l2), 0.5 * (math.pi**2 / 6 + (g + l2 - 1) ** 2)


def test_fisher_cauchy_closed_forms():
    fi = fisher_info(1.0)
    i11, i22, i23, i33 = closed_form_cauchy_info()
    assert abs(fi.I11 - i11) < 1e-12
    assert abs(fi.I22 - i22) < 1e-12
    assert abs(fi.I23 - i23) < 1e-12
    assert abs(fi.I33 - i33) < 1e-12


def adaptive_fisher_info(alpha):
    """(I11, I22, I23, I33) by adaptive quadrature over the per-point ``pdf``.

    Reference copy of the computation that ``fisher_info`` used before the
    fixed rule over ``pdf_batch``: two quad_vec calls split at the
    crossover, each point through three adaptive QAWO inversions.
    """

    def score_products(x):
        d = pdf(x, alpha)
        f, fp, fa = d.f, d.fprime, d.falpha
        fs = -f - x * fp
        return np.array([fp * fp / f, fs * fs / f, fs * fa / f, fa * fa / f])

    xc = _crossover(alpha)
    core, err1 = integrate.quad_vec(score_products, 0.0, xc, epsabs=1e-12, epsrel=1e-10)
    tail, err2 = integrate.quad_vec(score_products, xc, np.inf, epsabs=1e-12, epsrel=1e-10)
    assert max(err1, err2) <= 1e-6
    return 2.0 * (core + tail)


@pytest.mark.parametrize("alpha, rtol", [(0.5, 5e-9), (0.8, 5e-11), (1.5, 5e-11), (1.9, 5e-11)])
def test_fisher_matches_adaptive_quadrature_over_pdf(alpha, rtol):
    fi = fisher_info(alpha)
    got = np.array([fi.I11, fi.I22, fi.I23, fi.I33])
    want = adaptive_fisher_info(alpha)
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


@pytest.fixture()
def fresh_fisher_cache():
    fisher_info.cache_clear()
    yield
    fisher_info.cache_clear()


def test_fisher_refuses_a_zero_density(monkeypatch, fresh_fisher_cache):
    batch = estimators.pdf_batch

    def zero_at_one_node(x, alpha):
        f, fp, fa = batch(x, alpha)
        f[x.size // 3] = 0.0
        return f, fp, fa

    monkeypatch.setattr(estimators, "pdf_batch", zero_at_one_node)
    with pytest.raises(QuadratureError):
        fisher_info(1.5)


def test_fisher_needs_no_per_point_quadrature(monkeypatch, fresh_fisher_cache):
    def no_quad(*args):
        raise AssertionError("per-point density QAWO called")

    monkeypatch.setattr(stable_core, "_qawo_sums", no_quad)
    fi = fisher_info(1.5)
    assert fi.I11 > 0 and fi.I22 > 0 and fi.I33 > 0


def test_fisher_continuity_near_cauchy():
    i11, i22, i23, i33 = closed_form_cauchy_info()
    for alpha in (0.999, 1.001):
        fi = fisher_info(alpha)
        assert abs(fi.I11 / i11 - 1) < 0.01
        assert abs(fi.I22 / i22 - 1) < 0.01
        assert abs(fi.I23 / i23 - 1) < 0.01
        assert abs(fi.I33 / i33 - 1) < 0.01


def test_fisher_rejects_gaussian_endpoint():
    with pytest.raises(ValueError):
        fisher_info(2.0)


def test_fisher_location_scale_gaussian():
    i11, i22 = fisher_location_scale(2.0)
    assert (i11, i22) == (0.5, 2.0)


def test_fisher_matrix_positive_definite():
    for alpha in (0.8, 1.5, 1.8):
        m = fisher_info(alpha).matrix()
        assert np.all(np.linalg.eigvalsh(m) > 0)
        assert m[0, 1] == m[0, 2] == 0.0


def old_gl_panels(edges):
    """Reference copy of the panel map ``estimators`` kept before it used ``_fourier``'s."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.999])
@pytest.mark.parametrize("halve", [False, True])
def test_fisher_rule_is_bit_identical_to_its_own_panel_map(alpha, halve, monkeypatch):
    xc = _crossover(alpha)
    got = _fisher_rule(alpha, xc, halve)
    monkeypatch.setattr(estimators, "_gl_panels", old_gl_panels)
    want = _fisher_rule(alpha, xc, halve)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_inverse_entries_are_bit_identical_to_the_closed_forms():
    fi = fisher_info(1.5)
    det = fi.I22 * fi.I33 - fi.I23**2
    want = (1.0 / fi.I11, fi.I33 / det, -fi.I23 / det, fi.I22 / det)
    assert np.array_equal(fi.inverse_entries(), want)
    em = eise_matrices(1.3, WeightSpec("exp_power", 1.0, 1.5))
    A = em.A
    det = A[1, 1] * A[2, 2] - A[1, 2] ** 2
    want = (1.0 / A[0, 0], A[2, 2] / det, -A[1, 2] / det, A[1, 1] / det)
    assert np.array_equal(em.a_inverse_entries(), want)


def test_a_inverse_refuses_an_indefinite_matrix():
    em = eise_matrices(1.3, WeightSpec("exp_power", 1.0, 1.5))
    bad = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="not positive definite"):
        EiseMatrices(bad, em.H, em.J, em.Bsigma, em.Balpha, em.alpha, em.weight).a_inverse_entries()


def test_weight_values_are_bit_identical_to_the_one_term_formula():
    t = np.concatenate((-np.geomspace(1e-9, 80.0, 97), [0.0], np.geomspace(1e-9, 80.0, 97)))
    for w in (WeightSpec("exp_abs", 2.5), WeightSpec("exp_power", 1.0, 1.5), WeightSpec("exp_power", 2.0, 0.7)):
        (c, p), = w.terms()
        assert np.array_equal(w.values(t), np.exp(-c * np.abs(t) ** p))


def cauchy_al(x):
    """Closed-form score triple (h_mu, h_sigma, h_alpha) in the Cauchy case."""
    x = np.asarray(x, dtype=float)
    d = x * x + 1.0
    h_mu = 2.0 * x / d
    h_sigma = (x * x - 1.0) / d
    h_alpha = (1.0 - x * x) / d * (0.5 * np.log(d) - 1.0 + EULER_GAMMA) + (
        2.0 * x / d
    ) * np.arctan(x)
    return h_mu, h_sigma, h_alpha


def test_cauchy_al_values():
    hm, hs, ha = cauchy_al(0.0)
    assert (hm, hs) == (0.0, -1.0)
    assert abs(ha - (EULER_GAMMA - 1.0)) < 1e-14
    hm, hs, ha = cauchy_al(1.0)
    assert (hm, hs) == (1.0, 0.0)
    assert abs(ha - math.pi / 4) < 1e-14


def test_cauchy_al_second_moment_is_information():
    # E[h_mu^2] = I11 = 1/2 under the Cauchy law
    rng = np.random.default_rng(101)
    x = rand_stable(1.0, 1_000_000, rng)
    hm, _, _ = cauchy_al(x)
    m = float(np.mean(hm**2))
    se = float(np.std(hm**2) / math.sqrt(x.size))
    assert abs(m - 0.5) < 3 * se


def test_eise_a_closed_form_exp_abs():
    em = eise_matrices(1.0, WeightSpec("exp_abs", 1.0))
    assert abs(em.A[0, 0] - 4.0 / 27.0) < 1e-10
    assert abs(em.A[1, 1] - 4.0 / 27.0) < 1e-10  # same integral at alpha = 1


def test_eise_matrices_structure():
    em = eise_matrices(1.3, WeightSpec("exp_power", 2.0, 1.3))
    assert np.allclose(em.H, em.H.T)
    assert np.allclose(em.J, em.J.T, atol=1e-12)
    assert abs(em.J[0, 1]) < 1e-10 and abs(em.J[0, 2]) < 1e-10
    assert np.all(np.linalg.eigvalsh(em.A) > 0)
    assert np.all(np.linalg.eigvalsh(em.J) > -1e-12)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("exp_abs", -1.0)
    with pytest.raises(ValueError):
        WeightSpec("exp_power", 1.0)  # missing bar_alpha
    with pytest.raises(ValueError):
        WeightSpec("gauss", 1.0)


def test_log_density_lookup_beyond_its_spline():
    # the spline ends at |x| = 1e9; beyond it the lookup sums the whole tail
    # series, not only its first term (off by ~x^-alpha relative)
    ax = np.array([2e9, 1e12, 1e100])
    for alpha in (0.5, 1.5):
        want = [math.log(pdf(v, alpha).f) for v in ax]
        [got] = _logf_lookup([alpha], ax)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        # where f underflows, log f is the log of the series' first term
        lc1 = math.lgamma(alpha + 1.0) + math.log(math.sin(0.5 * math.pi * alpha) / math.pi)
        far = np.array([1e200, 1e300])
        [got] = _logf_lookup([alpha], far)
        np.testing.assert_allclose(got, lc1 - (alpha + 1.0) * np.log(far), rtol=1e-13)
    want = -0.25 * ax[:2] ** 2 - math.log(2.0 * math.sqrt(math.pi))
    [got] = _logf_lookup([2.0], ax[:2])
    np.testing.assert_array_equal(got, want)


def test_mle_symmetric_pairs_center_at_zero():
    x = np.array([-3.0, 3.0, -1.2, 1.2, -0.4, 0.4, -2.2, 2.2, -5.0, 5.0])
    fit = mle_fit(x)
    assert abs(fit.params.mu) < 1e-6


def test_mle_rejects_bad_samples():
    with pytest.raises(DataError):
        mle_fit(np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        mle_fit(np.ones(50))


def test_mle_nonconvergence_carries_best_iterate():
    rng = np.random.default_rng(4)
    x = rand_stable(1.5, 100, rng)
    with pytest.raises(NonConvergenceError) as exc:
        mle_fit(x, maxiter=1)
    assert exc.value.best is not None
    assert exc.value.best.params.sigma > 0
    # one root for numerical failures: the CLI's exit code 3 and the Monte
    # Carlo redraw catch NumericsError alone
    assert isinstance(exc.value, NumericsError) and isinstance(exc.value, RuntimeError)


def test_mle_with_sigma_at_its_floor_is_not_converged():
    # 60 tied points make the likelihood unbounded as sigma -> 0: L-BFGS-B
    # stopped at the bound sigma = 1e-6 and the fit came back as converged
    x = np.concatenate([np.zeros(60), np.random.default_rng(3).standard_cauchy(40)])
    with pytest.raises(NonConvergenceError, match="lower bound") as exc:
        mle_fit(x)
    best = exc.value.best
    assert best.params.sigma == estimators._SIGMA_MIN and not best.converged


def test_mle_affine_equivariance():
    rng = np.random.default_rng(21)
    x = rand_stable(1.4, 150, rng)
    base = mle_fit(x).params
    for a, b in ((2.0, 3.0), (-1.0, 0.25)):
        p = mle_fit(a + b * x).params
        assert abs(p.mu - (a + b * base.mu)) < 1e-4 * max(1, abs(base.mu))
        assert abs(p.sigma - b * base.sigma) < 1e-4 * base.sigma
        assert abs(p.alpha - base.alpha) < 1e-4


def test_eise_affine_equivariance():
    rng = np.random.default_rng(22)
    x = rand_stable(1.6, 120, rng)
    w = WeightSpec("exp_abs", 1.0)
    base = eise_fit(x, w).params
    p = eise_fit(5.0 + 0.5 * x, w).params
    assert abs(p.mu - (5.0 + 0.5 * base.mu)) < 1e-5
    assert abs(p.sigma - 0.5 * base.sigma) < 1e-5
    assert abs(p.alpha - base.alpha) < 1e-5


def test_eise_symmetric_data_centers_at_zero():
    x = np.array([-4.0, 4.0, -1.5, 1.5, -0.7, 0.7, -2.4, 2.4, -0.1, 0.1])
    fit = eise_fit(x, WeightSpec("exp_abs", 1.0))
    assert abs(fit.params.mu) < 1e-7


def test_q_nonnegative_and_two_paths_agree():
    rng = np.random.default_rng(31)
    for n, alpha in ((20, 1.0), (50, 1.6)):
        x = rand_stable(alpha, n, rng)
        p = StableParams(0.1, 1.3, min(alpha + 0.1, 2.0))
        for w in (WeightSpec("exp_abs", 1.0), WeightSpec("exp_power", 2.5, alpha)):
            q1 = q_objective(x, p, w)
            q2 = q_objective_direct(x, p, w)
            assert q1 >= 0.0
            assert abs(q1 - q2) < 1e-8 * max(q2, 1e-10)


def test_q_gradient_matches_finite_differences():
    rng = np.random.default_rng(32)
    x = rand_stable(1.4, 40, rng)
    p = StableParams(0.2, 1.1, 1.5)
    w = WeightSpec("exp_abs", 1.5)
    _, g = q_objective(x, p, w, grad=True)
    h = 1e-6
    for i, (dm, ds, da) in enumerate([(h, 0, 0), (0, h, 0), (0, 0, h)]):
        qp = q_objective(x, StableParams(p.mu + dm, p.sigma + ds, p.alpha + da), w)
        qm = q_objective(x, StableParams(p.mu - dm, p.sigma - ds, p.alpha - da), w)
        assert abs(g[i] - (qp - qm) / (2 * h)) < 1e-6 * max(abs(g[i]), 1e-4)


def heavy_sample(alpha, n, seed):
    """A stable sample with three points beyond the transforms' grid split at |y| = 60."""
    x = rand_stable(alpha, n, np.random.default_rng(seed))
    x[:3] = (75.0, -130.0, 400.0)
    return x


@pytest.mark.parametrize(
    "alpha,n",
    [(1.5, 5), (0.8, 7), (1.2, 100), (0.6, 200), (0.9, 500), (1.4, 1000), (1.9, 2000), (1.7, 5000)],
)
def test_q_value_route_matches_gradient_route(alpha, n):
    x = heavy_sample(alpha, n, 40 + n)
    p = StableParams(0.1, 1.2, alpha)
    weights = [WeightSpec("exp_abs", 1.0), WeightSpec("exp_abs", 10.0)]
    # the exp_power pair sum runs pdf_batch on all n^2 differences: small n only
    x_pow = x[:200]
    for xs, w in [(x, w) for w in weights] + [(x_pow, WeightSpec("exp_power", 1.0, 1.5))]:
        q, _ = q_objective(xs, p, w, grad=True)
        assert q_objective(xs, p, w) == q


def test_q_value_route_makes_one_far_quadrature_per_far_point(monkeypatch):
    calls = []
    quad = integrate.quad

    def counting(*args, **kwargs):
        if "weight" in kwargs:
            calls.append(kwargs["weight"])
        return quad(*args, **kwargs)

    monkeypatch.setattr(_fourier, "integrate", SimpleNamespace(quad=counting))
    x = heavy_sample(0.8, 200, 41)
    far = np.count_nonzero(np.abs(x) > 60.0)
    q_objective(x, StableParams(0.0, 1.0, 0.8), WeightSpec("exp_abs", 1.0))
    assert calls == ["cos"] * far


@pytest.mark.slow
def test_mle_replication_means_match_reported_simulation():
    # mean alpha-hat over n=200 replications at alpha=1.5 sits near 1.51
    rng = np.random.default_rng(555)
    alphas = []
    for _ in range(200):
        x = rand_stable(1.5, 200, rng)
        alphas.append(mle_fit(x).params.alpha)
    assert abs(float(np.mean(alphas)) - 1.51) < 0.04


@pytest.mark.slow
def test_mle_cauchy_covariance_matches_information():
    # inverse sample covariance of (mu, sigma) at n=1000 approaches diag(1/2, 1/2)^-1
    rng = np.random.default_rng(556)
    est = []
    for _ in range(150):
        x = rand_stable(1.0, 1000, rng)
        p = mle_fit(x).params
        est.append([p.mu, p.sigma])
    cov = np.cov(np.array(est).T) * 1000.0
    inv = np.linalg.inv(cov)
    assert abs(inv[0, 0] - 0.5) < 0.1
    assert abs(inv[1, 1] - 0.5) < 0.1


@pytest.mark.slow
def test_eise_alpha_variance_matches_j33():
    rng = np.random.default_rng(557)
    w = WeightSpec("exp_abs", 1.0)
    n, reps = 400, 60
    alphas = []
    for _ in range(reps):
        x = rand_stable(1.5, n, rng)
        alphas.append(eise_fit(x, w).params.alpha)
    alphas = np.array(alphas)
    j33 = eise_matrices(1.5, w).J[2, 2]
    target_var = j33 / n
    # chi-square spread of a variance estimate over `reps` draws
    ratio = alphas.var(ddof=1) / target_var
    assert 0.5 < ratio < 1.8
    assert abs(alphas.mean() - 1.5) < 3 * math.sqrt(target_var / reps)


def test_eise_fixed_alpha_fit():
    rng = np.random.default_rng(23)
    x = rand_stable(1.6, 120, rng)
    w = WeightSpec("exp_abs", 1.0)
    fit = eise_fit(x, w, fix_alpha=1.6)
    assert fit.params.alpha == 1.6
    assert fit.boundary_alpha is False
    assert fit.objective == pytest.approx(q_objective(x, fit.params, w), rel=1e-12)
    p = eise_fit(5.0 + 0.5 * x, w, fix_alpha=1.6).params
    assert p.alpha == 1.6
    assert abs(p.mu - (5.0 + 0.5 * fit.params.mu)) < 1e-5
    assert abs(p.sigma - 0.5 * fit.params.sigma) < 1e-5


def test_fitters_reject_fixed_alpha_outside_range():
    x = rand_stable(1.5, 50, np.random.default_rng(24))
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            mle_fit(x, fix_alpha=bad)
        with pytest.raises(ValueError):
            eise_fit(x, WeightSpec("exp_abs", 1.0), fix_alpha=bad)


def test_mle_objective_is_total_loglik():
    x = rand_stable(1.5, 100, np.random.default_rng(4))
    n = x.size
    for fit in (mle_fit(x), mle_fit(x, fix_alpha=1.5)):
        assert fit.objective == pytest.approx(n * loglik(x, fit.params), rel=1e-12)
    with pytest.raises(NonConvergenceError) as exc:
        mle_fit(x, maxiter=1)
    best = exc.value.best
    assert best.objective == pytest.approx(n * loglik(x, best.params), rel=1e-12)


# alpha = 0.5 is left out: the nested reference takes ~15 s per case there
@pytest.mark.parametrize(
    "alpha,weight",
    [
        (1.0, WeightSpec("exp_power", 1.0, 0.7)),
        (1.5, WeightSpec("exp_abs", 1.0)),
        (1.5, WeightSpec("exp_power", 1.0, 1.5)),
        (2.0, WeightSpec("exp_power", 2.5, 0.7)),
    ],
)
def test_h_matches_adaptive_quadrature(alpha, weight):
    got = h_entries(eise_matrices(alpha, weight))
    want = 4.0 * adaptive_h_quadrant(alpha, weight)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.33, 1.5, 1.76, 2.0])
@pytest.mark.parametrize(
    "weight",
    [WeightSpec("exp_abs", 1.0), WeightSpec("exp_power", 1.0, 1.5), WeightSpec("exp_power", 2.0, 0.7)],
    ids=["exp_abs", "power1.5", "power0.7"],
)
def test_eise_matrices_match_moments_and_tensor_rule(alpha, weight):
    em = eise_matrices(alpha, weight)
    terms2 = ((2.0, alpha),) + weight.terms()

    def moment(power, logpow=0):
        return envelope_moment(terms2, power=power, logpow=logpow)

    a11, m0, m1, m2 = moment(2.0), moment(2 * alpha), moment(2 * alpha, 1), moment(2 * alpha, 2)
    want_a = np.array([[a11, 0, 0], [0, alpha**2 * m0, alpha * m1], [0, alpha * m1, m2]])
    np.testing.assert_allclose(em.A, want_a, rtol=1e-12, atol=0)
    assert em.Bsigma == pytest.approx(alpha * moment(alpha), rel=1e-12, abs=0)
    assert em.Balpha == pytest.approx(moment(alpha, 1), rel=1e-12, abs=0)
    hv = 4.0 * tensor_h_quadrant(alpha, weight)
    np.testing.assert_allclose(h_entries(em), hv, rtol=1e-12, atol=0)
    assert em.H[0, 1] == em.H[0, 2] == em.A[0, 1] == em.A[0, 2] == 0.0
    want_h = np.array([[hv[0], 0, 0], [0, alpha**2 * hv[1], alpha * hv[2]], [0, alpha * hv[2], hv[3]]])
    ainv = np.linalg.inv(want_a)
    want_j = ainv @ want_h @ ainv.T
    assert np.max(np.abs(em.J - want_j)) <= 1e-11 * np.max(np.abs(want_j))


def test_eise_a_matches_mpmath_where_the_adaptive_moment_errs():
    # at this alpha and weight the adaptive A22 moment (epsrel 1e-11) is off
    # by 6.7e-11 relative; the graded rule is within 1e-14
    alpha, weight = 7.0 / 6.0, WeightSpec("exp_power", 2.0, 0.7)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)

        def f(t):
            return t ** (2 * a) * mpmath.log(t) ** 2 * mpmath.exp(-2 * t**a - 2 * t**0.7)

        want = float(2 * mpmath.quad(f, [0, 1e-8, 1e-4, 0.01, 0.1, 1, 10, 100, mpmath.inf]))
    assert eise_matrices(alpha, weight).A[2, 2] == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("alpha", [0.5, 7.0 / 6.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "weight",
    [WeightSpec("exp_abs", 1.0), WeightSpec("exp_abs", 10.0), WeightSpec("exp_power", 2.0, 0.7)],
    ids=["exp_abs1", "exp_abs10", "power0.7"],
)
def test_q_objective_w2_moments_match_mpmath(monkeypatch, alpha, weight):
    # the adaptive moment asks for epsrel 1e-11 but raises only past 1e-8;
    # at q_objective's two W2 moments it meets the 1e-11
    calls = []

    def recording_moment(terms, power=0.0, logpow=0):
        val = envelope_moment(terms, power, logpow)
        calls.append((terms, power, logpow, val))
        return val

    monkeypatch.setattr(estimators, "envelope_moment", recording_moment)
    x = rand_stable(alpha, 50, np.random.default_rng(3))
    q_objective(x, StableParams(0.1, 1.2, alpha), weight, grad=True)
    assert [(power, logpow) for _, power, logpow, _ in calls] == [(0.0, 0), (alpha, 1)]
    for terms, power, logpow, got in calls:
        with mpmath.workdps(30):

            def f(t):
                phi = sum(mpmath.mpf(c) * t ** mpmath.mpf(p) for c, p in terms)
                return t ** mpmath.mpf(power) * mpmath.log(t) ** logpow * mpmath.exp(-phi)

            want = float(2 * mpmath.quad(f, [0, 1e-8, 1e-4, 0.01, 0.1, 1, 10, 100, mpmath.inf]))
        assert got == pytest.approx(want, rel=1e-11, abs=0)


def test_pair_sums_memory_bounded():
    # 5000 x 5000 differences: rows of 1024 at a time peaked at 156 MB (273
    # MB with the gradient); blocks of 2^21 pairs keep both under 120 MB
    x = rand_stable(0.9, 5000, np.random.default_rng(11))
    w = WeightSpec("exp_abs", 1.0)
    for grad, limit in ((False, 80), (True, 120)):
        tracemalloc.start()
        try:
            _pair_sums(x, 1.0, w, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20


def one_call_w0_and_deriv(d, weight, grad):
    """Reference copy of ``_w0_and_deriv`` before the dedupe of |d|.

    The exp_power branch runs ``pdf_batch`` once over every cell of ``d``,
    mirrored and repeated differences included, and forms W0' even without
    ``grad``.
    """
    if weight.kind == "exp_abs":
        k = weight.kappa_or_nu
        with np.errstate(over="ignore"):  # d*d = inf only where W0 and W0' are 0
            den = k * k + d * d
        return 2.0 * k / den, -4.0 * k * d / den**2 if grad else None
    nu, ba = weight.kappa_or_nu, weight.bar_alpha
    c = nu ** (-1.0 / ba)
    f, fp, _ = pdf_batch((c * d).ravel(), ba)
    return (
        2.0 * math.pi * c * f.reshape(d.shape),
        2.0 * math.pi * c * c * fp.reshape(d.shape),
    )


def assert_same_w0(d, weight, grad):
    got, want = _w0_and_deriv(d, weight, grad), one_call_w0_and_deriv(d, weight, grad)
    assert np.array_equal(got[0], want[0])
    if grad:
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] is None


@pytest.mark.parametrize("ties", [False, True])
def test_w0_from_distinct_differences_is_bit_identical(ties):
    x = 2.0 + 3.0 * rand_stable(1.2, 100, np.random.default_rng(31))
    if ties:
        x = np.round(x, 1)  # tied observations: zero and repeated |d| off the diagonal
        assert np.unique(x).size < 90
    d = (x[:, None] - x[None, :]) / 1.7
    weights = (WeightSpec("exp_power", 1.0, 1.5), WeightSpec("exp_power", 2.0, 0.8),
               WeightSpec("exp_power", 0.5, 2.0))
    for weight in weights:
        for grad in (False, True):
            assert_same_w0(d, weight, grad)


def test_w0_from_distinct_differences_over_blocks(monkeypatch):
    # ten row blocks: squares of 20 x 20 cells and rectangles to their right,
    # whose differences are not mirrored within one call
    monkeypatch.setattr(estimators, "_BLOCK_CELLS", 2**12)
    shapes = []

    def checked(d, weight, grad):
        assert_same_w0(d, weight, grad)
        shapes.append(d.shape)
        return _w0_and_deriv(d, weight, grad)

    monkeypatch.setattr(estimators, "_w0_and_deriv", checked)
    x = rand_stable(1.5, 200, np.random.default_rng(13))
    for grad in (False, True):
        _pair_sums(x, 1.3, WeightSpec("exp_power", 1.0, 1.5), grad)
    assert len(shapes) == 2 * 19 and (20, 180) in shapes


def full_matrix_pair_sums(x, sigma, weight, grad):
    """Reference copy of ``_pair_sums`` before the symmetric block sum.

    Sums W0 (and W0' d) over every (j, k) pair, row block by row block, with
    no use of the symmetry d_kj = -d_jk, and one density call per cell.
    """
    s0 = s1 = 0.0
    block = max(1, estimators._BLOCK_CELLS // x.size)
    for start in range(0, x.size, block):
        d = (x[start : start + block, None] - x[None, :]) / sigma
        w0, w0p = one_call_w0_and_deriv(d, weight, grad)
        s0 += float(np.sum(w0))
        if grad:
            s1 += float(np.sum(w0p * d))
    return s0, s1


@pytest.mark.parametrize(
    "n,weight",
    [
        (100, WeightSpec("exp_abs", 2.5)),
        (100, WeightSpec("exp_power", 1.0, 1.5)),
        # the largest n whose pairs fit one block of _BLOCK_CELLS
        (1448, WeightSpec("exp_abs", 1.0)),
    ],
)
def test_pair_sums_in_one_block_match_full_matrix_exactly(n, weight):
    x = 2.0 + 3.0 * rand_stable(1.2, n, np.random.default_rng(n))
    for grad in (False, True):
        assert _pair_sums(x, 3.1, weight, grad) == full_matrix_pair_sums(x, 3.1, weight, grad)


def test_pair_sums_over_blocks_match_full_matrix(monkeypatch):
    def check(x, weight):
        for grad in (False, True):
            got = _pair_sums(x, 1.3, weight, grad)
            want = full_matrix_pair_sums(x, 1.3, weight, grad)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    check(rand_stable(0.9, 5000, np.random.default_rng(12)), WeightSpec("exp_abs", 1.0))
    # the exp_power pair sum at n = 5000 takes minutes (pdf_batch on 25M
    # differences); smaller blocks give n = 200 ten row blocks instead
    monkeypatch.setattr(estimators, "_BLOCK_CELLS", 2**12)
    x = rand_stable(1.5, 200, np.random.default_rng(13))
    for weight in (WeightSpec("exp_abs", 5.0), WeightSpec("exp_power", 1.0, 1.5)):
        check(x, weight)
