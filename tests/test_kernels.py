"""Covariance kernels: closed-form consistency, PSD structure, parity."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicSpline

from stablegof._fourier import envelope_cutoff
from stablegof.estimators import (
    WeightSpec,
    _inner_values,
    eise_matrices,
    fisher_info,
    fisher_location_scale,
)
from stablegof.kernels import (
    KERNEL_KINDS,
    _N_GRID,
    _S_MAX,
    gamma,
    gamma_efficient,
    make_kernel,
)
from stablegof.spectral import discretize, midpoint_grid
from stablegof.stable_core import StableParams, _safe_log_abs

ACCEPT_GRID = [(a, k) for a in (1.0, 1.5, 1.8) for k in (1.0, 2.5, 5.0, 10.0)]


def nodes_on_the_line(n):
    """The N midpoint nodes mapped to the line by s = -sgn(x) log(1 - |x|)."""
    xi = midpoint_grid(n)
    return -np.sign(xi) * np.log1p(-np.abs(xi))


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


def old_coefficients(kind, alpha, weight=None):
    """(inverse entries, J, EiseMatrices) as the package's ``make_kernel`` built them
    before the factor form; J and the matrices are None for the MLE kinds."""
    if kind == "mle_h1":
        return fisher_info(alpha).inverse_entries(), None, None
    if kind == "mle_h2":
        i11, i22 = fisher_location_scale(alpha)
        return (1.0 / i11, 1.0 / i22, 0.0, 0.0), None, None
    em = eise_matrices(alpha, weight)
    if kind == "eise_h1":
        return em.a_inverse_entries(), em.J, em
    inv = (1.0 / em.A[0, 0], 1.0 / em.A[1, 1], 0.0, 0.0)
    return inv, np.diag([em.H[0, 0] * inv[0] ** 2, em.H[1, 1] * inv[1] ** 2, 0.0]), em


def old_kernel(spec, weight=None):
    """Gamma(s, t) of ``spec``'s kind by the formulas before the factor form.

    The EISE kinds read the inner integrals from :class:`HeldEiseInnerCache`,
    whose values equal the package's spline bit for bit, so the two differ
    only by rounding.
    """
    inv, J, em = old_coefficients(spec.kind, spec.alpha, weight)
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
    want = old_kernel(spec)(s, t)
    assert np.max(np.abs(gamma(s, t, spec) - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["eise_h1", "eise_fixed"])
@pytest.mark.parametrize("alpha", [0.8, 1.2, 1.7, 2.0])
def test_gamma_eise_matches_its_old_formula(kind, alpha):
    # the EISE coefficients reach ~15 (A^11 at alpha = 1.7), so the two
    # summation orders part by up to 1.9e-15 of max |Gamma|
    g = np.concatenate((-np.geomspace(1e-6, 40.0, 60)[::-1], [0.0], np.geomspace(1e-6, 40.0, 60)))
    s, t = np.meshgrid(g, g)
    spec = make_kernel(kind, alpha, 2.5, EISE_WEIGHT)
    want = old_kernel(spec, EISE_WEIGHT)(s, t)
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
    inv = fisher_info(1.5).inverse_entries()
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
    i11, i22 = fisher_location_scale(alpha)
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


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "weight",
    [WeightSpec("exp_abs", 1.0), WeightSpec("exp_power", 1.0, 0.7), WeightSpec("exp_power", 2.5, 1.5)],
    ids=["exp_abs", "power0.7", "power1.5"],
)
def test_inner_values_match_adaptive_quadrature(alpha, weight):
    # nodes of the cache's s-grid: both ends, near the u = 0 cusp, and past
    # the cutoff U of every case
    grid = np.linspace(0.0, _S_MAX, _N_GRID)
    s = grid[[0, 1, 3, 10, 40, 150, 600, _N_GRID - 1]]
    got = _inner_values(alpha, weight, s)
    want = np.array([adaptive_inner(alpha, weight, si) for si in s])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
    fi = np.linalg.inv(fisher_info(1.5).matrix())
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
    fi_mat = np.linalg.inv(fisher_info(alpha).matrix())
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
