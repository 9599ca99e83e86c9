"""Covariance kernels: closed-form consistency, PSD structure, parity."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicSpline

from stablegof import _fourier, estimators
from stablegof._fourier import _GRADED_NODES, _RULE_CELLS, _graded_rule, _phi, envelope_cutoff
from stablegof.estimators import (
    WeightSpec,
    _inner_values,
    eise_matrices,
    fisher_info,
)
from stablegof.kernels import (
    KERNEL_KINDS,
    _N_GRID,
    _S_MAX,
    gamma,
    make_kernel,
)
from stablegof.spectral import discretize, midpoint_grid
from stablegof.stable_core import StableParams, _safe_log_abs, cf

ACCEPT_GRID = [(a, k) for a in (1.0, 1.5, 1.8) for k in (1.0, 2.5, 5.0, 10.0)]


def nodes_on_the_line(n):
    """The N midpoint nodes mapped to the line by s = -sgn(x) log(1 - |x|)."""
    xi = midpoint_grid(n)
    return -np.sign(xi) * np.log1p(-np.abs(xi))


def cf_grad(t, params):
    """Gradient of the characteristic function in (mu, sigma, alpha).

    At t = 0 the formulas give 0 for all three components, their limits:
    the alpha component carries |sigma t|^alpha log|sigma t|, and
    ``_safe_log_abs`` reads the log there as 0.  Moved here from
    ``stablegof.stable_core`` with :func:`gamma_efficient`, its one caller.
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


def gamma_efficient(s, t, params, fisher_inverse):
    """General efficient-estimator kernel (complex, Hermitian).

    Gamma(s,t) = Phi(s-t) - Phi(s) conj(Phi(t))
               - grad Phi(s)' I^-1 conj(grad Phi(t))
    for any family with characteristic function ``cf`` and an efficient
    estimator whose asymptotic covariance is the inverse information
    ``fisher_inverse`` (p x p).  The paper's general formula and the oracle
    for the MLE kernels; moved here from ``stablegof.kernels``, where no
    package path called it.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    gs = np.stack(cf_grad(s, params))
    gt = np.stack(cf_grad(t, params))
    quad_form = np.einsum("i...,ij,j...->...", gs, np.asarray(fisher_inverse), np.conj(gt))
    return cf(s - t, params) - cf(s, params) * np.conj(cf(t, params)) - quad_form


def location_scale_info(alpha):
    """(I11, I22) with alpha fixed: from the Fisher matrix, or N(0, 2)'s 1/2 and 2 at alpha = 2."""
    if alpha == 2.0:
        return 0.5, 2.0
    info = fisher_info(alpha)
    return info[0, 0], info[1, 1]


def gamma_cauchy(s, t):
    """Closed-form Cauchy (alpha = 1) MLE/H1 kernel: the oracle for the ``mle_h1`` kernel.

    Moved here from ``stablegof.kernels``, where no package path called it.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    a_s, a_t = np.abs(s), np.abs(t)
    c = np.euler_gamma + math.log(2.0) - 1.0
    ls, lt = _safe_log_abs(a_s), _safe_log_abs(a_t)
    e_pp = np.exp(-(a_s + a_t))
    st = s * t
    out = (
        np.exp(-np.abs(t - s))
        - (1.0 + 2.0 * (st + np.abs(st))) * e_pp
        - 12.0 / math.pi**2 * (ls + c) * (lt + c) * np.abs(st) * e_pp
    )
    return out


# Hand-written kernels, kept as references: the mle_h2 and eise_fixed kinds
# evaluate the H1 formulas with zero alpha entries and must agree with the
# fixed-alpha ones, and every kind must agree with the per-estimator
# formulas the package evaluated before the factor form.


def gamma_mle_fixed(s, t, alpha, inv_entries):
    """MLE/H2 kernel (alpha fixed): only the location/scale bracket remains."""
    i11, i22 = inv_entries[:2]
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    sa, ta = np.abs(s) ** alpha, np.abs(t) ** alpha
    e_pp = np.exp(-(sa + ta))
    bracket = i11 * s * t + i22 * sa * ta * alpha**2
    return np.exp(-np.abs(t - s) ** alpha) - e_pp - bracket * e_pp


class HeldEiseInnerCache:
    """Reference copy of the package's former ``_EiseInnerCache``, three splines of M1-M3.

    ``KernelSpec.inner`` is one spline through all three columns; its
    factors must equal this copy's bit for bit.  Called on s, returns
    (M1, M2, M3) with |s| clamped at ``_S_MAX`` and M1 odd.
    """

    def __init__(self, alpha, weight):
        grid = np.linspace(0.0, _S_MAX, _N_GRID)
        vals = _inner_values(alpha, weight, grid)
        self._spl = [CubicSpline(grid, vals[:, i]) for i in range(3)]

    def __call__(self, s):
        a_s = np.minimum(np.abs(s), _S_MAX)
        sgn = np.where(s < 0, -1.0, 1.0)
        return sgn * self._spl[0](a_s), self._spl[1](a_s), self._spl[2](a_s)


def gamma_eise_fixed(s, t, a, em, inner):
    """EISE kernel with alpha fixed: location/scale blocks only."""
    a11inv = 1.0 / em.A[0, 0]
    a22inv = 1.0 / em.A[1, 1]
    j11 = em.H[0, 0] * a11inv**2
    j22 = em.H[1, 1] * a22inv**2
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    sa, ta = np.abs(s) ** a, np.abs(t) ** a
    e_s, e_t = np.exp(-sa), np.exp(-ta)
    e_pp = e_s * e_t
    m1s, m2s, _ = inner(s)
    m1t, m2t, _ = inner(t)
    cross = (
        -a11inv * (t * e_t * m1s + s * e_s * m1t)
        - a22inv * a**2 * (ta * e_t * m2s + sa * e_s * m2t)
    )
    bracket = j11 * s * t + j22 * a**2 * sa * ta + a22inv * em.Bsigma * a * (ta + sa)
    return np.exp(-np.abs(t - s) ** a) - e_pp + bracket * e_pp + cross


def old_gamma_mle(s, t, alpha, inv_entries):
    """Reference copy of ``gamma_mle`` with its own operation order, before ``_gradient_form``."""
    i11, i22, i23, i33 = inv_entries
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    a_s, a_t = np.abs(s), np.abs(t)
    sa, ta = a_s**alpha, a_t**alpha
    e_pp = np.exp(-(sa + ta))
    ls, lt = _safe_log_abs(a_s), _safe_log_abs(a_t)
    ast = sa * ta
    bracket = (
        i11 * s * t
        + i22 * ast * alpha**2
        + i23 * ast * alpha * (ls + lt)
        + i33 * ast * ls * lt
    )
    return np.exp(-np.abs(t - s) ** alpha) - e_pp - bracket * e_pp


def old_gamma_eise(s, t, a, inv_entries, J, em, inner):
    """Reference copy of the package's ``gamma_eise`` before the factor form.

    Its ``_gradient_form`` helper is inlined in the same operation order.
    ``inv_entries`` are (A^11, A^22, A^23, A^33), ``J`` = A^-1 H A^-1 and
    ``em`` the :class:`EiseMatrices` (for the B constants), each with the
    alpha entries zeroed for ``eise_fixed``; ``inner`` is a
    :class:`HeldEiseInnerCache`.
    """
    a11, a22, a23, a33 = inv_entries
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    a_s, a_t = np.abs(s), np.abs(t)
    sa, ta = a_s**a, a_t**a
    ls, lt = _safe_log_abs(a_s), _safe_log_abs(a_t)
    ast = sa * ta
    jbr = (
        J[0, 0] * s * t
        + J[1, 1] * a**2 * ast
        + J[1, 2] * a * ast * (ls + lt)
        + J[2, 2] * ast * ls * lt
    )
    e_s, e_t = np.exp(-sa), np.exp(-ta)
    e_pp = e_s * e_t
    bbr = (em.Bsigma * a22 + em.Balpha * a23) * a * (ta + sa) + (
        em.Bsigma * a23 + em.Balpha * a33
    ) * (ta * lt + sa * ls)
    m1s, m2s, m3s = inner(s)
    m1t, m2t, m3t = inner(t)

    def half(tt, ta_, lt_, e_t_, m1, m2, m3):
        # cross terms with the roles (t-side CF gradient) x (s-side inner integral)
        return (
            -a11 * tt * e_t_ * m1
            - a * (a22 * a + a23 * lt_) * ta_ * e_t_ * m2
            - (a23 * a + a33 * lt_) * ta_ * e_t_ * m3
        )

    cross = half(t, ta, lt, e_t, m1s, m2s, m3s) + half(s, sa, ls, e_s, m1t, m2t, m3t)
    return np.exp(-np.abs(t - s) ** a) - e_pp + (jbr + bbr) * e_pp + cross


def closed_form_inverse_entries(m):
    """(M^11, M^22, M^23, M^33) of a positive-definite block-diagonal 3x3 ``m``, in closed form."""
    det = m[1, 1] * m[2, 2] - m[1, 2] ** 2
    return 1.0 / m[0, 0], m[2, 2] / det, -m[1, 2] / det, m[1, 1] / det


def old_coefficients(kind, alpha, weight=None):
    """(inverse entries, J, EiseMatrices) as the package's ``make_kernel`` built them
    before the factor form; J and the matrices are None for the MLE kinds.

    Each kind's formula is spelled out here on its own, the fixed-alpha
    ones included, and J = A^-1 H A^-1 comes from a general matrix inverse.
    """
    if kind == "mle_h1":
        return closed_form_inverse_entries(fisher_info(alpha)), None, None
    if kind == "mle_h2":
        i11, i22 = location_scale_info(alpha)
        return (1.0 / i11, 1.0 / i22, 0.0, 0.0), None, None
    em = eise_matrices(alpha, weight)
    if kind == "eise_h1":
        ainv = np.linalg.inv(em.A)
        return closed_form_inverse_entries(em.A), ainv @ em.H @ ainv.T, em
    inv = (1.0 / em.A[0, 0], 1.0 / em.A[1, 1], 0.0, 0.0)
    return inv, np.diag([em.H[0, 0] * inv[0] ** 2, em.H[1, 1] * inv[1] ** 2, 0.0]), em


def old_kernel(kind, spec, weight=None):
    """Gamma(s, t) of the ``kind`` that built ``spec``, by the formulas before the factor form.

    The EISE kinds read the inner integrals from :class:`HeldEiseInnerCache`,
    whose values equal the package's spline bit for bit, so the two differ
    only by rounding.
    """
    inv, J, em = old_coefficients(kind, spec.alpha, weight)
    if em is None:
        return lambda s, t: old_gamma_mle(s, t, spec.alpha, inv)
    inner = HeldEiseInnerCache(spec.alpha, weight)
    return lambda s, t: old_gamma_eise(s, t, spec.alpha, inv, J, em, inner)


def adaptive_inner(alpha, weight, s):
    """(M1, M2, M3) at one s >= 0 by adaptive quadrature.

    Reference copy of the per-node computation the EISE inner-integral cache
    used before the graded Gauss-Legendre rule, with epsrel tightened from
    1e-10 to 1e-12: at the old tolerance it errs by 1.2e-12 at alpha = 0.5,
    s = 0.  QUADPACK's roundoff notes are dropped (``full_output``); the
    comparison itself is the check.
    """
    U = envelope_cutoff(((1.0, alpha),) + weight.terms())

    def base(u):
        return math.exp(-abs(s - u) ** alpha - abs(u) ** alpha) * float(weight.values(u))

    pts = sorted({0.0, min(max(s, -U), U)})

    def do(g):
        return integrate.quad(
            g, -U, U, points=pts, limit=300, epsabs=1e-15, epsrel=1e-12, full_output=1
        )[0]

    m1 = do(lambda u: base(u) * u)
    m2 = do(lambda u: base(u) * abs(u) ** alpha)
    m3 = do(lambda u: base(u) * abs(u) ** alpha * (math.log(abs(u)) if u != 0 else 0.0))
    return np.array([m1, m2, m3])


EISE_WEIGHT = WeightSpec("exp_power", 2.5, 1.5)
EISE_FIXED_WEIGHT = WeightSpec("exp_abs", 1.0)


@pytest.fixture(scope="module")
def eise_spec():
    return make_kernel("eise_h1", 1.5, kappa=2.5, weight=EISE_WEIGHT)


@pytest.fixture(scope="module")
def eise_fixed_spec():
    return make_kernel("eise_fixed", 1.0, kappa=1.0, weight=EISE_FIXED_WEIGHT)


def test_gamma_mle_vanishes_on_axes():
    spec = make_kernel("mle_h1", 1.5)
    t = np.linspace(-8, 8, 33)
    assert np.allclose(gamma(0.0, t, spec), 0.0, atol=1e-14)
    assert np.allclose(gamma(t, 0.0, spec), 0.0, atol=1e-14)


@pytest.mark.parametrize("kind,alpha", [("mle_h1", a) for a in (0.5, 0.8, 1.0, 1.5, 1.9)]
                         + [("mle_h2", a) for a in (0.8, 1.5, 2.0)])
def test_gamma_mle_matches_its_old_operation_order(kind, alpha):
    # the factor form sums the terms in its own order, which moves the last
    # bits; Gamma cancels to near zero in places, so the scale is max |Gamma|
    g = np.concatenate((-np.geomspace(1e-6, 40.0, 60)[::-1], [0.0], np.geomspace(1e-6, 40.0, 60)))
    s, t = np.meshgrid(g, g)
    spec = make_kernel(kind, alpha, 1.0)
    want = old_kernel(kind, spec)(s, t)
    assert np.max(np.abs(gamma(s, t, spec) - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["eise_h1", "eise_fixed"])
@pytest.mark.parametrize("alpha", [0.8, 1.2, 1.7, 2.0])
def test_gamma_eise_matches_its_old_formula(kind, alpha):
    # the EISE coefficients reach ~15 (A^11 at alpha = 1.7), so the two
    # summation orders part by up to 1.9e-15 of max |Gamma|
    g = np.concatenate((-np.geomspace(1e-6, 40.0, 60)[::-1], [0.0], np.geomspace(1e-6, 40.0, 60)))
    s, t = np.meshgrid(g, g)
    spec = make_kernel(kind, alpha, 2.5, EISE_WEIGHT)
    want = old_kernel(kind, spec, EISE_WEIGHT)(s, t)
    assert np.max(np.abs(gamma(s, t, spec) - want)) <= 4e-15 * np.max(np.abs(want))


def test_gamma_mle_symmetric():
    spec = make_kernel("mle_h1", 1.5)
    rng = np.random.default_rng(1)
    s, t = rng.uniform(-10, 10, 200), rng.uniform(-10, 10, 200)
    np.testing.assert_allclose(gamma(s, t, spec), gamma(t, s, spec), rtol=0, atol=1e-14)


def test_cauchy_specialization():
    rng = np.random.default_rng(2)
    s, t = rng.uniform(-15, 15, 500), rng.uniform(-15, 15, 500)
    got = gamma(s, t, make_kernel("mle_h1", 1.0))
    np.testing.assert_allclose(got, gamma_cauchy(s, t), atol=1e-12)


def test_fixed_alpha_kernel_drops_exponent_terms():
    # zeroing the I23/I33 inverse entries in the H1 kernel's B_e gives the H2 kernel
    inv = closed_form_inverse_entries(fisher_info(1.5))
    h1 = make_kernel("mle_h1", 1.5)
    b_even = h1.b_even.copy()
    b_even[1:, 2] = b_even[2, 1:] = 0.0
    rng = np.random.default_rng(3)
    s, t = rng.uniform(-6, 6, 100), rng.uniform(-6, 6, 100)
    left = gamma(s, t, dataclasses.replace(h1, b_even=b_even))
    right = gamma_mle_fixed(s, t, 1.5, (inv[0], inv[1]))
    np.testing.assert_allclose(left, right, atol=1e-15)
    assert np.allclose(gamma_mle_fixed(0.0, t, 1.5, (inv[0], inv[1])), 0.0, atol=1e-15)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_mle_h2_is_h1_formula_with_zero_alpha_entries(alpha):
    i11, i22 = location_scale_info(alpha)
    rng = np.random.default_rng(9)
    s, t = rng.uniform(-15, 15, 400), rng.uniform(-15, 15, 400)
    got = gamma(s, t, make_kernel("mle_h2", alpha, 2.5))
    ref = gamma_mle_fixed(s, t, alpha, (1.0 / i11, 1.0 / i22))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    # independent oracle: the general efficient kernel with alpha not estimated
    v = np.diag([1.0 / i11, 1.0 / i22, 0.0])
    eff = gamma_efficient(s, t, StableParams(0.0, 1.0, alpha), v)
    np.testing.assert_allclose(eff.real, got, rtol=0, atol=1e-12)


def test_eise_fixed_is_h1_formula_with_zero_alpha_entries(eise_fixed_spec):
    rng = np.random.default_rng(10)
    s, t = rng.uniform(-15, 15, 400), rng.uniform(-15, 15, 400)
    got = gamma(s, t, eise_fixed_spec)
    em = eise_matrices(1.0, EISE_FIXED_WEIGHT)
    want = gamma_eise_fixed(s, t, 1.0, em, HeldEiseInnerCache(1.0, EISE_FIXED_WEIGHT))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_make_kernel_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        make_kernel("cauchy_mle", 1.0)


INNER_WEIGHTS = [WeightSpec("exp_abs", 1.0), WeightSpec("exp_power", 1.0, 0.7), WeightSpec("exp_power", 2.5, 1.5)]
INNER_WEIGHT_IDS = ["exp_abs", "power0.7", "power1.5"]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("weight", INNER_WEIGHTS, ids=INNER_WEIGHT_IDS)
def test_inner_values_match_adaptive_quadrature(alpha, weight):
    # nodes of the cache's s-grid: both ends, near the u = 0 cusp, and past
    # the cutoff U of every case
    grid = np.linspace(0.0, _S_MAX, _N_GRID)
    s = grid[[0, 1, 3, 10, 40, 150, 600, _N_GRID - 1]]
    got = _inner_values(alpha, weight, s)
    want = np.array([adaptive_inner(alpha, weight, si) for si in s])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def per_row_inner_values(alpha, weight, s):
    """(M1, M2, M3) with a two-sided graded rule of its own on each interval of each row.

    Reference copy of ``_inner_values`` before it shared its rules and
    u-only factors: [-U, 0], [0, min(s, U)] and [min(s, U), U], each on
    ``_graded_rule``, row by row.
    """
    U = envelope_cutoff(((1.0, alpha),) + weight.terms())
    c = np.minimum(s, U)
    ends = np.stack([np.full_like(s, -U), np.zeros_like(s), c, np.full_like(s, U)], axis=-1)
    out = np.empty((s.size, 3))
    rows = max(1, _RULE_CELLS // (3 * _GRADED_NODES))
    for lo in range(0, s.size, rows):
        blk = slice(lo, lo + rows)
        u, w = _graded_rule(ends[blk, :-1], ends[blk, 1:])
        u, w = u.reshape(u.shape[0], -1), w.reshape(w.shape[0], -1)
        au = np.abs(u)
        lg = _safe_log_abs(au)
        ua = au**alpha
        w *= np.exp(-np.abs(s[blk, None] - u) ** alpha - ua - _phi(au, weight.terms()))
        out[blk, 0] = np.sum(w * u, axis=1)
        w *= ua
        out[blk, 1] = np.sum(w, axis=1)
        out[blk, 2] = np.sum(w * lg, axis=1)
    return out


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.2, 1.7, 2.0])
@pytest.mark.parametrize("weight", INNER_WEIGHTS, ids=INNER_WEIGHT_IDS)
def test_inner_values_match_the_per_row_rule(alpha, weight):
    # around the cutoff U, the 840 nodes of eise_matrices (all below U) and
    # the kernel grid, unsorted; largest error seen 1.8e-15 of a column's max
    U = envelope_cutoff(((1.0, alpha),) + weight.terms())
    edge = [0.0, 1e-6, 0.5 * U, np.nextafter(U, 0.0), U, 1.5 * U]
    s = np.concatenate((edge, _graded_rule(0.0, U)[0], np.linspace(0.0, _S_MAX, _N_GRID)[::-1]))
    want = per_row_inner_values(alpha, weight, s)
    got = _inner_values(alpha, weight, s)
    assert np.all(np.abs(got - want) <= 5e-15 * np.max(np.abs(want), axis=0))


def mpmath_inner(alpha, weight, s):
    """(M1, M2, M3) at one s >= 0 by 30-digit mpmath quadrature over the whole line.

    Split at the cusps u = 0 and u = s and on a geometric ladder on each
    side, out to infinity, so no truncation at the cutoff U is shared with
    the rule under test.
    """
    ((c, p),) = weight.terms()
    with mpmath.workdps(30):
        a, c, p, s = (mpmath.mpf(v) for v in (alpha, c, p, s))

        def integrand(k):
            def f(u):
                au = abs(u)
                if au == 0:
                    return mpmath.mpf(0)
                e = mpmath.exp(-abs(s - u) ** a - au**a - c * au**p)
                return (u, au**a, au**a * mpmath.log(au))[k] * e

            return f

        ladder = [mpmath.mpf(10) ** k for k in range(-2, 6)]
        cusps = [mpmath.mpf(0)] + ([s] if s > 0 else [])
        pts = [-mpmath.inf] + [-x for x in ladder[::-1]] + cusps + [s + x for x in ladder] + [mpmath.inf]
        return np.array([float(mpmath.quad(integrand(k), pts)) for k in range(3)])


@pytest.mark.parametrize(
    "alpha,weight,atol",
    [
        (0.5, WeightSpec("exp_power", 1.0, 0.5), 1e-14),
        (0.8, WeightSpec("exp_abs", 1.0), 1e-14),
        (1.2, WeightSpec("exp_power", 1.0, 0.7), 1e-14),
        (1.7, WeightSpec("exp_power", 2.5, 1.5), 1e-14),
        (2.0, WeightSpec("exp_abs", 2.5), 1e-14),
        # U = 2.5e4: the innermost panel, 2^-41 U = 1.1e-8 wide, leaves
        # M3(0) 4.6e-13 off
        (0.3, WeightSpec("exp_power", 1.0, 0.3), 5e-13),
    ],
    ids=["0.5-power0.5", "0.8-exp_abs", "1.2-power0.7", "1.7-power1.5", "2-exp_abs2.5", "0.3-power0.3"],
)
def test_inner_values_match_mpmath(alpha, weight, atol):
    # largest error seen for alpha, bar_alpha >= 0.5: 2.8e-16
    U = envelope_cutoff(((1.0, alpha),) + weight.terms())
    s = np.array([0.0, 0.7, 0.5 * U])
    want = np.array([mpmath_inner(alpha, weight, si) for si in s])
    np.testing.assert_allclose(_inner_values(alpha, weight, s), want, rtol=0, atol=atol)


def test_inner_values_build_no_rule_per_row(monkeypatch):
    # the unit rules are formed once, at import: no call builds a graded rule
    def no_rule(*args):
        raise AssertionError("_inner_values built a graded rule")

    monkeypatch.setattr(_fourier, "_graded_rule", no_rule)
    monkeypatch.setattr(estimators, "_graded_rule", no_rule)
    grid = np.linspace(0.0, _S_MAX, _N_GRID)
    for alpha, weight in ((0.8, INNER_WEIGHTS[0]), (1.7, INNER_WEIGHTS[2])):
        assert np.all(np.isfinite(_inner_values(alpha, weight, grid)))


@pytest.mark.parametrize("alpha", [1.2, 1.33, 1.7, 1.76])
def test_one_spline_matches_three_bit_for_bit(alpha):
    # the N = 800 midpoint nodes (both signs), and |s| at and past the clamp
    weight = WeightSpec("exp_power", 1.0, 1.5)
    spec = make_kernel("eise_h1", alpha, 2.5, weight)
    held = HeldEiseInnerCache(alpha, weight)
    far = np.array([_S_MAX, 65.5, 100.0, 1e6])
    for s in (nodes_on_the_line(800), np.concatenate((-far, far)), np.float64(-0.3)):
        even, odd = spec.factors(s)
        m1, m2, m3 = held(s)
        for got, want in ((odd[..., 1], m1), (even[..., 3], m2), (even[..., 4], m3)):
            assert got.tobytes() == np.asarray(want).tobytes()


def test_make_kernel_reuses_read_only_eise_matrices():
    w = WeightSpec("exp_abs", 1.0)
    em = eise_matrices(1.0, w)
    hits = eise_matrices.cache_info().hits
    spec = make_kernel("eise_fixed", 1.0, kappa=1.0, weight=w)
    assert eise_matrices.cache_info().hits == hits + 1
    assert spec.b_odd[0, 1] == 1.0 / em.A[0, 0]
    for m in (em.A, em.H, em.J):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_gamma_mle_diagonal_bounded():
    for alpha in (1.0, 1.5, 1.8):
        t = np.linspace(-30, 30, 301)
        assert np.all(gamma(t, t, make_kernel("mle_h1", alpha)) <= 1.0 + 1e-12)


def test_gamma_eise_symmetry_and_trace(eise_spec):
    rng = np.random.default_rng(4)
    s, t = rng.uniform(-12, 12, 100), rng.uniform(-12, 12, 100)
    np.testing.assert_allclose(gamma(s, t, eise_spec), gamma(t, s, eise_spec), atol=1e-9)
    tr, _ = integrate.quad(
        lambda u: float(gamma(u, u, eise_spec)) * math.exp(-2.5 * abs(u)), -30, 30, limit=200
    )
    assert 0.0 < tr < 10.0


def test_gamma_eise_positive_semidefinite(eise_spec, eise_fixed_spec):
    rng = np.random.default_rng(5)
    for spec in (eise_spec, eise_fixed_spec):
        nodes = rng.uniform(-8, 8, 60)
        gram = gamma(nodes[:, None], nodes[None, :], spec)
        gram = 0.5 * (gram + gram.T)
        w = np.linalg.eigvalsh(gram)
        assert w.min() >= -1e-8 * max(w.max(), 1.0)


def test_gamma_efficient_properties():
    fi = np.linalg.inv(fisher_info(1.5))
    p = StableParams(0.0, 1.0, 1.5)
    rng = np.random.default_rng(6)
    s, t = rng.uniform(-5, 5, 50), rng.uniform(-5, 5, 50)
    g_st = gamma_efficient(s, t, p, fi)
    g_ts = gamma_efficient(t, s, p, fi)
    np.testing.assert_allclose(g_st, np.conj(g_ts), atol=1e-12)
    diag = gamma_efficient(t, t, p, fi)
    assert np.allclose(diag.imag, 0.0, atol=1e-12)
    assert np.all(diag.real >= -1e-12)
    assert abs(gamma_efficient(0.0, 0.0, p, fi)) < 1e-14


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_gamma_efficient_specializes_to_mle(alpha):
    fi_mat = np.linalg.inv(fisher_info(alpha))
    p = StableParams(0.0, 1.0, alpha)
    rng = np.random.default_rng(7)
    s, t = rng.uniform(-10, 10, 300), rng.uniform(-10, 10, 300)
    eff = gamma_efficient(s, t, p, fi_mat)
    assert np.max(np.abs(eff.imag)) < 1e-12
    np.testing.assert_allclose(eff.real, gamma(s, t, make_kernel("mle_h1", alpha)), atol=1e-10)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_transformed_kernel_even_under_joint_reflection(kind):
    # the even/odd split of the Nystrom problem rests on this being exact
    weight = WeightSpec("exp_power", 1.0, 1.5) if kind.startswith("eise") else None
    # at the nodes of an N = 800 discretization
    nodes = nodes_on_the_line(800)
    s, t = nodes[:, None], nodes[None, :]
    for alpha, kappa in ((0.8, 1.0), (1.0, 2.5), (1.7, 10.0)):
        spec = make_kernel(kind, alpha, kappa, weight)
        assert np.array_equal(gamma(-s, -t, spec), gamma(s, t, spec))


@pytest.mark.parametrize("alpha,kappa", ACCEPT_GRID)
def test_gram_psd_on_acceptance_grid(alpha, kappa):
    # the eigenvalues of both Nystrom blocks, together those of the N = 200 matrix
    for kind in ("mle_h1", "mle_h2"):
        blocks = discretize(make_kernel(kind, alpha, kappa), 200)
        w = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
        assert w.min() >= -1e-7 * w.max()
