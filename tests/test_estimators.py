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
from stablegof.ecf_test import test_statistic
from stablegof.errors import DataError, NonConvergenceError, NumericsError, QuadratureError
from stablegof.estimators import (
    WeightSpec,
    _covariance,
    _fisher_rule,
    _restricted_inverse,
    _logf_lookup,
    _pair_sums,
    _w0_and_deriv,
    eise_fit,
    eise_matrices,
    fisher_info,
    mle_fit,
    q_objective,
)
from stablegof.kernels import make_kernel
from stablegof.stable_core import StableParams, _crossover, pdf, pdf_batch, rand_stable

EULER_GAMMA = np.euler_gamma


def q_objective_direct(data, params, weight):
    """Q by direct adaptive quadrature of |Phi_n(t) - exp(-|t|^alpha)|^2 w(t).

    Independent evaluation path used to validate ``q_objective`` and, with
    weight exp(-kappa|t|), the statistic D = n*Q.  Raises
    :class:`~stablegof.errors.QuadratureError` if its error estimate
    exceeds 1e-7 relative.  Moved here from ``stablegof.estimators``, where
    no package path called it.
    """
    x = np.asarray(data, dtype=float).ravel()
    y = (x - params.mu) / params.sigma
    alpha = params.alpha
    T = envelope_cutoff(weight.terms())

    def integrand(t):
        re = np.cos(t * y).mean()
        im = np.sin(t * y).mean()
        g = math.exp(-(t**alpha))
        return ((re - g) ** 2 + im**2) * float(weight.values(t))

    val, err = integrate.quad(integrand, 0.0, T, limit=3000, epsabs=1e-13, epsrel=1e-10)
    if err > 1e-7 * max(abs(val), 1e-12):
        raise QuadratureError(f"direct Q quadrature error {err}")
    return 2.0 * val


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


def h_entries(em, a):
    """(H00, H11, H12, H22) of the EiseMatrices at alpha = ``a``, divided by
    alpha^2 and alpha as in the quadrant integrals."""
    H = em.H
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
    assert abs(fi[0, 0] - i11) < 1e-12
    assert abs(fi[1, 1] - i22) < 1e-12
    assert abs(fi[1, 2] - i23) < 1e-12
    assert abs(fi[2, 2] - i33) < 1e-12


def adaptive_fisher_info(alpha):
    """(I11, I22, I23, I33) by adaptive quadrature over the per-point ``pdf``.

    Reference copy of the computation that ``fisher_info`` used before the
    fixed rule over ``pdf_batch``: two quad_vec calls split at the
    crossover, each point through three adaptive QAWO inversions.
    """

    def score_products(x):
        f, fp, fa = pdf(x, alpha)
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
    got = np.array([fi[0, 0], fi[1, 1], fi[1, 2], fi[2, 2]])
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
    assert fi[0, 0] > 0 and fi[1, 1] > 0 and fi[2, 2] > 0


def test_fisher_continuity_near_cauchy():
    i11, i22, i23, i33 = closed_form_cauchy_info()
    for alpha in (0.999, 1.001):
        fi = fisher_info(alpha)
        assert abs(fi[0, 0] / i11 - 1) < 0.01
        assert abs(fi[1, 1] / i22 - 1) < 0.01
        assert abs(fi[1, 2] / i23 - 1) < 0.01
        assert abs(fi[2, 2] / i33 - 1) < 0.01


def test_fisher_rejects_gaussian_endpoint():
    with pytest.raises(ValueError):
        fisher_info(2.0)


def test_mle_covariance_at_the_normal_endpoint_uses_the_closed_forms():
    # with alpha = 2 fixed the law is N(mu, 2 sigma^2): I11 = 1/2, I22 = 2
    v, j, em = _covariance(2.0, 2)
    assert np.array_equal(v, np.diag([2.0, 0.5, 0.0])) and j is v and em is None
    # alpha = 2 free has no information for alpha
    with pytest.raises(ValueError):
        _covariance(2.0, 3)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 1.9])
def test_covariance_is_the_restricted_inverse_and_its_sandwich(alpha):
    fi = fisher_info(alpha)
    for free in (2, 3):
        v, j, _ = _covariance(alpha, free)
        assert np.array_equal(v, _restricted_inverse(fi, free)) and j is v
    # the (mu, sigma) block of I alone gives the same bits with alpha fixed
    assert np.array_equal(_covariance(alpha, 2)[0], _restricted_inverse(np.diag([fi[0, 0], fi[1, 1]]), 2))
    w = WeightSpec("exp_power", 1.0, 1.5)
    em = eise_matrices(alpha, w)
    v, j, got = _covariance(alpha, 3, w)
    assert got is em and np.array_equal(v, _restricted_inverse(em.A, 3))
    assert np.array_equal(j, em.J)
    v, j, _ = _covariance(alpha, 2, w)
    assert np.array_equal(j, v @ em.H @ v)
    assert j[2].tolist() == j[:, 2].tolist() == [0.0, 0.0, 0.0]
    # with alpha fixed, J's (mu, sigma) entries are H_ii / A_ii^2
    np.testing.assert_allclose(np.diag(j)[:2], np.diag(em.H)[:2] / np.diag(em.A)[:2] ** 2, rtol=1e-15)


def test_fisher_matrix_positive_definite():
    for alpha in (0.8, 1.5, 1.8):
        m = fisher_info(alpha)
        assert np.all(np.linalg.eigvalsh(m) > 0)
        assert m[0, 1] == m[0, 2] == 0.0
        assert np.array_equal(m, m.T) and not m.flags.writeable


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


def restricted_inverse_closed_form(m, free):
    """The inverse entries, zero-padded, in the closed forms ``make_kernel`` spelled out per kind."""
    if free == 2:
        return np.array([[1.0 / m[0, 0], 0, 0], [0, 1.0 / m[1, 1], 0], [0, 0, 0]])
    det = m[1, 1] * m[2, 2] - m[1, 2] ** 2
    v23 = -m[1, 2] / det
    return np.array([[1.0 / m[0, 0], 0, 0], [0, m[2, 2] / det, v23], [0, v23, m[1, 1] / det]])


def test_inverse_entries_are_bit_identical_to_the_closed_forms():
    for m in (fisher_info(1.5), eise_matrices(1.3, WeightSpec("exp_power", 1.0, 1.5)).A):
        for free in (2, 3):
            v = _restricted_inverse(m, free)
            assert np.array_equal(v, restricted_inverse_closed_form(m, free))
            assert np.array_equal(v, v.T)
            # the inverse of the free block: V M is the identity on the free rows and columns
            np.testing.assert_allclose((v @ m)[:free, :free], np.eye(free), atol=1e-13)
    # with alpha fixed a (mu, sigma) matrix is enough, as _covariance passes at alpha = 2
    assert np.array_equal(_restricted_inverse(np.diag([0.5, 2.0]), 2), np.diag([2.0, 0.5, 0.0]))


def test_a_inverse_refuses_an_indefinite_matrix():
    cases = [
        (np.diag([1.0, 1.0, -1.0]), 3),
        (np.array([[1.0, 0, 0], [0, 1.0, 2.0], [0, 2.0, 1.0]]), 3),
        (np.diag([1.0, -1.0, 1.0]), 2),
        (np.diag([0.0, 1.0, 1.0]), 2),
    ]
    for bad, free in cases:
        with pytest.raises(ValueError, match="not positive definite"):
            _restricted_inverse(bad, free)
    # with alpha fixed, alpha's row and column are not read
    assert np.array_equal(_restricted_inverse(np.diag([1.0, 4.0, -1.0]), 2), np.diag([1.0, 0.25, 0.0]))


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
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            WeightSpec("exp_abs", bad)
        with pytest.raises(ValueError, match="finite and positive"):
            WeightSpec("exp_power", bad, 1.5)
    with pytest.raises(ValueError):
        WeightSpec("exp_power", 1.0)  # missing bar_alpha
    with pytest.raises(ValueError):
        WeightSpec("gauss", 1.0)


def test_log_density_lookup_beyond_its_spline():
    # the spline ends at |x| = 1e9; beyond it the lookup sums the whole tail
    # series, not only its first term (off by ~x^-alpha relative)
    ax = np.array([2e9, 1e12, 1e100])
    for alpha in (0.5, 1.5):
        want = [math.log(pdf(v, alpha)[0]) for v in ax]
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


REFUSALS = {
    **{
        f"{name}-{bad}": (DataError, lambda fit=fit, bad=bad: fit(np.r_[np.linspace(-1.0, 1.0, 20), bad]))
        for name, fit in (("mle", mle_fit), ("eise", lambda x: eise_fit(x, WeightSpec("exp_abs", 1.0))))
        for bad in (math.nan, math.inf)
    },
    **{
        f"eise_matrices-{alpha}": (ValueError, lambda alpha=alpha: eise_matrices(alpha, WeightSpec("exp_abs", 1.0)))
        for alpha in (0.0, 2.5)
    },
    "eise_h1-no-weight": (ValueError, lambda: make_kernel("eise_h1", 1.5, 2.5)),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_bad_inputs_are_refused(case):
    error, call = REFUSALS[case]
    with pytest.raises(error):
        call()


def test_a_sample_whose_differences_overflow_is_refused():
    # x_j - x_k overflows to inf here; the check itself subtracts no two points
    x = np.r_[1e308, -1e308, np.linspace(-1, 1, 48)]
    for call in (
        lambda: mle_fit(x),
        lambda: eise_fit(x, WeightSpec("exp_abs", 1.0)),
        lambda: test_statistic(x, StableParams(0.0, 1.0, 1.5), 2.5),
    ):
        with pytest.raises(DataError, match="overflow"):
            call()


def test_mle_nonconvergence_carries_best_iterate(monkeypatch):
    rng = np.random.default_rng(4)
    x = rand_stable(1.5, 100, rng)
    monkeypatch.setattr(estimators, "_MAXITER", 1)
    with pytest.raises(NonConvergenceError) as exc:
        mle_fit(x)
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
    assert best.params.sigma == estimators._SIGMA_MIN


def test_mle_stopped_on_the_alpha_bound_is_accepted():
    # a Gaussian sample drives alpha to its bound 2, where the line search
    # aborts (ABNORMAL) with jac = (-1.3e-8, -8.7e-9, -0.056): the alpha
    # component points out of the box, so the projected gradient is ~1e-8
    fit = mle_fit(np.random.default_rng(33).normal(size=200))
    assert fit.boundary_alpha and fit.params.alpha == 2.0
    bounds = [(None, None), (estimators._SIGMA_MIN, None), (0.3, 2.0)]
    for x, jac, ok in (
        ((0.0, 1.0, 2.0), (1e-8, 0.0, -0.05), True),  # outward at the upper bound
        ((0.0, 1.0, 2.0), (1e-8, 0.0, 0.05), False),  # inward: not projected
        ((0.0, 1.0, 0.3), (0.0, 0.0, 0.05), True),  # outward at the lower bound
        ((0.0, 1.0, 1.5), (0.0, 0.0, -0.05), False),  # interior
        ((0.0, estimators._SIGMA_MIN, 1.5), (0.0, 0.05, 0.0), True),
    ):
        res = SimpleNamespace(success=False, x=np.array(x), jac=np.array(jac))
        assert estimators._accepted(res, bounds) is ok


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


@pytest.mark.parametrize("spread", [1.0, 0.6])
def test_fits_are_equivariant_under_powers_of_two(spread):
    # 2^e x for e in {-40, -16, 16, 40}: at e = -16 the unit-scale MLE was
    # 0.55% off in alpha, and at e = -40 it stopped with sigma at its floor.
    # At spread 0.6 (IQR/2 0.60) the scaled samples are fitted as 2x, not x.
    x = spread * rand_stable(1.5, 200, np.random.default_rng(7))
    w = WeightSpec("exp_abs", 1.0)
    for fit in (mle_fit, lambda v: eise_fit(v, w)):
        base = fit(x)
        d0 = test_statistic(x, base.params, 2.5).statistic
        for e in (-40, -16, 16, 40):
            xe = np.ldexp(x, e)
            got = fit(xe)
            d = test_statistic(xe, got.params, 2.5).statistic
            assert got.params.alpha == pytest.approx(base.params.alpha, rel=1e-7, abs=0)
            assert got.params.sigma == pytest.approx(2.0**e * base.params.sigma, rel=1e-7, abs=0)
            assert d == pytest.approx(d0, rel=1e-7, abs=0)


def test_mle_reports_the_loglik_of_the_unscaled_sample(monkeypatch):
    # the fit runs on x / 2^k and reports n log L of x itself, best iterate included
    x = 1e9 * rand_stable(1.5, 100, np.random.default_rng(4))
    assert estimators._scale_exponent(x) == 30
    fit = mle_fit(x)
    assert fit.objective == pytest.approx(x.size * loglik(x, fit.params), rel=1e-12)
    monkeypatch.setattr(estimators, "_MAXITER", 1)
    with pytest.raises(NonConvergenceError) as exc:
        mle_fit(x)
    best = exc.value.best
    assert best.params.sigma > 1e8
    assert best.objective == pytest.approx(x.size * loglik(x, best.params), rel=1e-12)


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


def loglik(data, params):
    """Mean log-likelihood of a symmetric stable sample.

    The oracle of the MLE objective; moved here from ``stablegof.estimators``,
    where no package path called it.
    """
    y = (data - params.mu) / params.sigma
    f, _, _ = pdf_batch(y, params.alpha)
    return float(np.mean(np.log(np.maximum(f, 1e-300)))) - math.log(params.sigma)


def test_mle_objective_is_total_loglik(monkeypatch):
    x = rand_stable(1.5, 100, np.random.default_rng(4))
    n = x.size
    for fit in (mle_fit(x), mle_fit(x, fix_alpha=1.5)):
        assert fit.objective == pytest.approx(n * loglik(x, fit.params), rel=1e-12)
    monkeypatch.setattr(estimators, "_MAXITER", 1)
    with pytest.raises(NonConvergenceError) as exc:
        mle_fit(x)
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
    got = h_entries(eise_matrices(alpha, weight), alpha)
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
    np.testing.assert_allclose(h_entries(em, alpha), hv, rtol=1e-12, atol=0)
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
    # MB with the gradient); blocks of 2^18 pairs peak at 6 MB (10 MB), in
    # the table's node rows and in the direct rows alike
    x = rand_stable(0.9, 5000, np.random.default_rng(11))
    w = WeightSpec("exp_abs", 1.0)
    # the first sample takes the table; the second has no panel of more
    # than 25 points, so every point is a direct row
    for sample in (x, 1000.0 * x):
        for grad, limit in ((False, 16), (True, 24)):
            tracemalloc.start()
            try:
                _pair_sums(sample, 1.0, w, grad)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit * 2**20


def one_call_w0_and_deriv(d, weight, grad):
    """Reference W0 and W0' of every weight, cell by cell.

    The exp_abs branch is the closed form 2 kappa/(kappa^2 + d^2).  The
    exp_power branch is ``_w0_and_deriv`` before the dedupe of |d|: it runs
    ``pdf_batch`` once over every cell of ``d``, mirrored and repeated
    differences included, and forms W0' even without ``grad``.
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


def same_density_route(d, weight):
    """Whether ``pdf_batch`` takes the same route on the distinct |c d| as on
    every cell: the y-table of ``_fourier._near_sums`` above 750 near points
    (where its check passes), the direct sums at or below."""
    ((nu, p),) = weight.terms()
    ad = np.abs(nu ** (-1.0 / p) * d).ravel()
    near = ad[ad <= _crossover(p)]
    return (near.size > _fourier._DIRECT_MAX) == (np.unique(near).size > _fourier._DIRECT_MAX)


def assert_same_w0(d, weight, grad):
    """Bit for bit where both batches take the same density route, else
    within the table's 2.5e-15 on f and f' (times 2 pi c and 2 pi c^2).

    The largest difference seen was 2.15e-15, on f' at bar_alpha = 0.8,
    whose near points take halved panels of the table, and 1.30e-15 on f.
    """
    got, want = _w0_and_deriv(d, weight, grad), one_call_w0_and_deriv(d, weight, grad)
    same = same_density_route(d, weight)
    c = weight.kappa_or_nu ** (-1.0 / weight.bar_alpha)
    for g, w, scale in zip(got, want if grad else want[:1], (2.0 * math.pi * c, 2.0 * math.pi * c * c)):
        if same:
            assert np.array_equal(g, w)
        else:
            assert np.max(np.abs(g - w)) <= 2.5e-15 * scale
    if not grad:
        assert got[1] is None
    return same


@pytest.mark.parametrize("ties", [False, True])
def test_w0_from_distinct_differences_is_bit_identical(ties):
    # bit for bit wherever the distinct |d| take the density route of every
    # cell; with ties, fewer than 750 distinct |d| go direct while the
    # 10,000 cells take the table, so the two agree to the table's accuracy
    x = 2.0 + 3.0 * rand_stable(1.2, 100, np.random.default_rng(31))
    if ties:
        x = np.round(x, 1)  # tied observations: zero and repeated |d| off the diagonal
        assert np.unique(x).size < 90
    d = (x[:, None] - x[None, :]) / 1.7
    weights = (WeightSpec("exp_power", 1.0, 1.5), WeightSpec("exp_power", 2.0, 0.8),
               WeightSpec("exp_power", 0.5, 2.0))
    routes = [assert_same_w0(d, weight, grad) for weight in weights for grad in (False, True)]
    assert all(routes) == (not ties)


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
    """Reference pair sums: ``_pair_sums`` before the symmetric block sum.

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
        (512, WeightSpec("exp_abs", 1.0)),
    ],
)
def test_pair_sums_in_one_block_match_full_matrix_exactly(n, weight):
    # exp_abs sums full rows, each in its own order: close, not exact
    x = 2.0 + 3.0 * rand_stable(1.2, n, np.random.default_rng(n))
    if weight.kind == "exp_abs":
        assert_pair_sums_close(x, 3.1, weight, 2e-15)
        return
    for grad in (False, True):
        assert _pair_sums(x, 3.1, weight, grad) == full_matrix_pair_sums(x, 3.1, weight, grad)


def test_pair_sums_over_blocks_match_full_matrix(monkeypatch):
    def check(x, weight):
        for grad in (False, True):
            got = _pair_sums(x, 1.3, weight, grad)
            want = full_matrix_pair_sums(x, 1.3, weight, grad)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    x = rand_stable(0.9, 5000, np.random.default_rng(12))
    # the table, then direct rows only: no panel 1.3 wide holds 26 points
    for sample in (x, 1000.0 * x):
        check(sample, WeightSpec("exp_abs", 1.0))
    # the exp_power pair sum at n = 5000 takes minutes (pdf_batch on 25M
    # differences); smaller blocks give n = 200 ten row blocks instead
    monkeypatch.setattr(estimators, "_BLOCK_CELLS", 2**12)
    x = rand_stable(1.5, 200, np.random.default_rng(13))
    for weight in (WeightSpec("exp_abs", 5.0), WeightSpec("exp_power", 1.0, 1.5)):
        check(x, weight)


def assert_pair_sums_close(x, sigma, weight, rtol):
    """Both routes of ``_pair_sums`` against the full matrix; s0 the same bits in both."""
    value, _ = _pair_sums(x, sigma, weight, False)
    got = _pair_sums(x, sigma, weight, True)
    assert value == got[0]
    want = full_matrix_pair_sums(x, sigma, weight, True)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.2, 1.7, 1.95])
def test_pair_table_matches_the_full_matrix(alpha, monkeypatch):
    # largest relative errors seen: 1.2e-16 in s0, 1.9e-16 in s1
    x = 2.0 + 3.0 * rand_stable(alpha, 5000, np.random.default_rng(int(100 * alpha)))
    calls = cauchy_rows_calls(monkeypatch)
    for kappa in (1.0, 2.5, 10.0):
        assert_pair_sums_close(x, 2.9, WeightSpec("exp_abs", kappa), 2e-15)
    # node rows, then direct rows, in each of the six sums
    assert len(calls) == 12 and all(z.size % 25 == 0 for z in calls[::2])


def test_pair_table_far_from_zero_matches_the_full_matrix(monkeypatch):
    # the rows are measured from the sample's median, so a location of 1e12
    # costs no digits (largest relative error seen: 2.1e-16)
    x = 1e12 + 3.0 * rand_stable(1.2, 5000, np.random.default_rng(21))
    calls = cauchy_rows_calls(monkeypatch)
    for kappa in (1.0, 10.0):
        assert_pair_sums_close(x, 2.9, WeightSpec("exp_abs", kappa), 2e-15)
    assert len(calls) == 8 and all(np.max(np.abs(z)) < 1e9 for z in calls)


def test_pair_sums_of_at_most_750_points_keep_the_direct_sums(monkeypatch):
    x = rand_stable(1.5, 751, np.random.default_rng(14))
    w = WeightSpec("exp_abs", 1.0)
    cauchy_rows = estimators._cauchy_rows
    calls = cauchy_rows_calls(monkeypatch)
    for grad in (False, True):
        rows = cauchy_rows(x[:750], x[:750], 1.0, 1.0, grad)
        want = (float(np.sum(rows[0])), float(np.sum(rows[1])) if grad else 0.0)
        assert _pair_sums(x[:750], 1.0, w, grad) == want
    assert [z.size for z in calls] == [750, 750]
    # one point more builds a table: its node rows come first
    _pair_sums(x, 1.0, w, False)
    assert len(calls) == 4 and calls[2].size % 25 == 0


@pytest.mark.parametrize("n", [30, 100, 750])
def test_pair_sums_of_few_points_build_no_table(n, monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(_fourier, "_cheb_table", no_table)
    x = 2.0 + 3.0 * rand_stable(1.2, n, np.random.default_rng(n))
    for kappa in (1.0, 2.5, 10.0):
        assert_pair_sums_close(x, 0.7, WeightSpec("exp_abs", kappa), 2e-15)


@pytest.mark.parametrize("n", [100, 800])
def test_exp_power_with_exponent_one_is_exp_abs_bit_for_bit(n, monkeypatch):
    # the exponent picks the pair-sum route: exp(-nu|t|) of either kind takes
    # the Cauchy rows, and at n = 800 the x-table, never the density
    def no_density(*args):
        raise AssertionError("the pair sum took the density")

    monkeypatch.setattr(estimators, "_w0_and_deriv", no_density)
    calls = cauchy_rows_calls(monkeypatch)
    x = 2.0 + 3.0 * rand_stable(1.0, n, np.random.default_rng(n))
    params = StableParams(0.3, 1.4, 1.1)
    for nu in (1.0, 2.5):
        power, plain = WeightSpec("exp_power", nu, 1), WeightSpec("exp_abs", nu)
        got, want = q_objective(x, params, power, grad=True), q_objective(x, params, plain, grad=True)
        assert [v.hex() for v in (got[0], *got[1])] == [v.hex() for v in (want[0], *want[1])]
        assert q_objective(x, params, power).hex() == q_objective(x, params, plain).hex()
    # node rows of a table come in multiples of 25 points
    assert any(z.size != n for z in calls) == (n == 800)


def test_exp_power_with_exponent_two_takes_the_gaussian_closed_form(monkeypatch):
    # at exponent 2 the pair sum reads f and f' of N(0, 2) directly, the bits
    # pdf_batch returns there after forming (and dropping) its grid sums
    x = 2.0 + 3.0 * rand_stable(1.6, 100, np.random.default_rng(20))
    params = StableParams(0.3, 1.4, 1.6)
    weights = [WeightSpec("exp_power", nu, 2.0) for nu in (0.5, 1.0, 2.5)]
    with monkeypatch.context() as m:
        m.setattr(estimators, "_gaussian_f_fp", lambda u: pdf_batch(u, 2.0)[:2])
        want = [(q_objective(x, params, w), q_objective(x, params, w, grad=True)) for w in weights]

    def no_density(*args):
        raise AssertionError("the pair sum called pdf_batch")

    monkeypatch.setattr(estimators, "pdf_batch", no_density)
    for w, (value, (q, g)) in zip(weights, want):
        got_value, (got_q, got_g) = q_objective(x, params, w), q_objective(x, params, w, grad=True)
        assert [v.hex() for v in (got_value, got_q, *got_g)] == [v.hex() for v in (value, q, *g)]


def test_eise_fit_under_exp_power_with_exponent_one_is_the_exp_abs_fit():
    x = rand_stable(1.0, 100, np.random.default_rng(3))
    got = eise_fit(x, WeightSpec("exp_power", 1.0, 1))
    want = eise_fit(x, WeightSpec("exp_abs", 1.0))
    assert got.n_iter == want.n_iter
    assert [v.hex() for v in (got.params.mu, got.params.sigma, got.params.alpha, got.objective)] == [
        v.hex() for v in (want.params.mu, want.params.sigma, want.params.alpha, want.objective)
    ]


def cauchy_rows_calls(monkeypatch):
    """Record the points z of every ``_cauchy_rows`` call."""
    calls, cauchy_rows = [], estimators._cauchy_rows

    def recording(z, *args, **kwargs):
        calls.append(z)
        return cauchy_rows(z, *args, **kwargs)

    monkeypatch.setattr(estimators, "_cauchy_rows", recording)
    return calls


def test_pair_table_sums_huge_points_directly(monkeypatch):
    # |x|/(kappa sigma) far beyond the int64 range: no panel, a direct row,
    # and W0 = 0 where the squared differences overflow
    x = rand_stable(1.2, 5000, np.random.default_rng(15))
    x[:2] = 1e300, -1e300
    calls = cauchy_rows_calls(monkeypatch)
    assert_pair_sums_close(x, 1.0, WeightSpec("exp_abs", 1.0), 2e-15)
    assert all(np.count_nonzero(np.abs(z) == 1e300) == 2 for z in calls[1::2])


def test_pair_table_with_tied_points():
    x = np.round(rand_stable(1.2, 5000, np.random.default_rng(16)), 1)
    assert_pair_sums_close(x, 1.1, WeightSpec("exp_abs", 1.0), 2e-15)


def test_pair_table_takes_a_nodes_value(monkeypatch):
    # a symmetric sample has median 0, so the table's frame is the sample's
    # own; h = kappa sigma = 1: the panel [0, 1] has nodes 0.5 + 0.5
    # cos(theta_k), and a point on one of them takes that node's value
    half = rand_stable(1.5, 2500, np.random.default_rng(17))
    half[0] = 0.5 + 0.5 * _fourier._CHEB_X[4]
    x = np.concatenate([half, -half])
    seen, cheb_table = [], _fourier._cheb_table

    def recording(tables, nodes, points, panel):
        ok, sums = cheb_table(tables, nodes, points, panel)
        on = ok[panel]
        hit = points[on] == half[0]
        seen.append((tables[0][panel[on][hit], 4], sums[0][hit]))
        return ok, sums

    monkeypatch.setattr(_fourier, "_cheb_table", recording)
    assert_pair_sums_close(x, 1.0, WeightSpec("exp_abs", 1.0), 2e-15)
    assert seen and all(t.size == 1 and np.array_equal(t, v) for t, v in seen)


def test_pair_table_does_not_pay_on_sparse_panels(monkeypatch):
    # one point per panel: no table, and every point a direct row
    x = 10.0 * np.arange(5000.0)
    calls = cauchy_rows_calls(monkeypatch)
    assert_pair_sums_close(x, 1.0, WeightSpec("exp_abs", 1.0), 1e-14)
    assert [z.size for z in calls] == [5000, 5000]


def test_pair_table_refused_on_every_panel_sums_every_point_directly(monkeypatch):
    # with a zero tail no panel passes: the panels are halved until their
    # node rows would reach the point count, and every point is a direct row
    monkeypatch.setattr(_fourier, "_TABLE_TAIL", 0.0)
    x = rand_stable(0.9, 5000, np.random.default_rng(18))
    calls = cauchy_rows_calls(monkeypatch)
    assert_pair_sums_close(x, 1.0, WeightSpec("exp_abs", 2.5), 1e-14)
    direct = [i for i, z in enumerate(calls) if z.size == 5000]
    assert len(direct) == 2 and direct[1] == len(calls) - 1
    assert all(z.size % 25 == 0 and z.size < 5000 for i, z in enumerate(calls) if i not in direct)


def test_pair_table_halves_a_failing_panel(monkeypatch):
    # every panel h = kappa sigma = 2.5 wide is refused; the halves holding
    # more than 25 points make the second round, whose nodes lie 1.25 apart
    # at most, and the rest are direct rows
    x = rand_stable(1.2, 5000, np.random.default_rng(19))
    rounds, cheb_table = [], _fourier._cheb_table

    def refusing_the_first_round(tables, nodes, points, panel):
        rounds.append(np.ptp(nodes, axis=1))
        if np.all(rounds[-1] > 2.0):
            return np.zeros(nodes.shape[0], dtype=bool), tuple(None if g is None else g[:0, 0] for g in tables)
        return cheb_table(tables, nodes, points, panel)

    monkeypatch.setattr(_fourier, "_cheb_table", refusing_the_first_round)
    calls = cauchy_rows_calls(monkeypatch)
    assert_pair_sums_close(x, 1.0, WeightSpec("exp_abs", 2.5), 2e-15)
    assert len(rounds) == 4 and len(calls) == 6
    for first, second in (rounds[:2], rounds[2:]):
        assert np.all(first > 2.4) and np.all(first < 2.5) and np.all(second < 1.25)
    assert [z.size for z in calls[:2]] == [25 * r.size for r in rounds[:2]]


@pytest.mark.parametrize("n, seed", [(50, 0), (100, 1), (100, 2), (1000, 3), (5000, 0)])
def test_normal_endpoint_mle_meets_its_closed_form(n, seed):
    # at alpha = 2 the law is N(mu, 2 sigma^2): mu_hat is the mean and
    # sigma_hat the standard deviation over sqrt(2); the largest distance
    # seen was 8.9e-9 sigma_hat (n = 100, seed 2), a stopping tolerance of
    # L-BFGS-B, not rounding
    x = np.random.default_rng(seed).normal(3.0, 2.0, n)
    p = mle_fit(x, fix_alpha=2.0).params
    sigma = x.std() / math.sqrt(2.0)
    assert abs(p.mu - x.mean()) <= 1e-7 * sigma
    assert abs(p.sigma - sigma) <= 1e-7 * sigma
    assert p.alpha == 2.0
