"""Asymptotic covariance kernels of the ECF process with estimated parameters.

Each kernel Gamma(s, t) is the covariance of the limiting Gaussian process
of the empirical-characteristic-function distance.  There is one formula
per estimator (:func:`gamma_mle`, :func:`gamma_eise`), both around the form
grad phi(s)' C grad phi(t) with C = I^-1 or J (:func:`_gradient_form`);
which parameters were estimated only changes the coefficients.  A fixed
alpha (the H2 and ``eise_fixed`` kinds) removes alpha from the estimated
parameters, which zeroes the alpha row and column of I^-1 (MLE), or of A^-1
and J (EISE).  ``transformed_kernel`` folds in the exponential test weight
and maps the plane onto [-1, 1]^2 through s = -sgn(u) log(1 - |u|), which
is the form the eigenvalue solver consumes.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.interpolate import CubicSpline

from .estimators import EiseMatrices, _inner_values, eise_matrices, fisher_info, fisher_location_scale
from .stable_core import _safe_log_abs, cf, cf_grad

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "make_kernel",
    "gamma_mle",
    "gamma_eise",
    "gamma_efficient",
    "transformed_kernel",
    "kernel_fn",
]

KERNEL_KINDS = ("mle_h1", "mle_h2", "eise_h1", "eise_fixed")


def _gradient_form(s, t, alpha, c):
    """(s, t, |s|^alpha, |t|^alpha, log|s|, log|t|, form) as arrays, log 0 read as 0.

    form * phi(s) phi(t) = grad phi(s)' C conj(grad phi(t)) at the standard
    case, for the block-diagonal C with entries ``c`` = (C11, C22, C23, C33).
    """
    c11, c22, c23, c33 = c
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    a_s, a_t = np.abs(s), np.abs(t)
    sa, ta = a_s**alpha, a_t**alpha
    ls, lt = _safe_log_abs(a_s), _safe_log_abs(a_t)
    ast = sa * ta
    form = (
        c11 * s * t
        + c22 * alpha**2 * ast
        + c23 * alpha * ast * (ls + lt)
        + c33 * ast * ls * lt
    )
    return s, t, sa, ta, ls, lt, form


def gamma_mle(s, t, alpha, inv_entries):
    """MLE covariance kernel.

    ``inv_entries`` are (I^11, I^22, I^23, I^33) of the inverse Fisher
    matrix; with alpha fixed, I^23 = I^33 = 0.  Vanishes on the axes: every
    correction term carries s and t.
    """
    s, t, sa, ta, _, _, form = _gradient_form(s, t, alpha, inv_entries)
    e_pp = np.exp(-(sa + ta))
    return np.exp(-np.abs(t - s) ** alpha) - e_pp - form * e_pp


def gamma_efficient(s, t, params, fisher_inverse):
    """General efficient-estimator kernel (complex, Hermitian).

    Gamma(s,t) = Phi(s-t) - Phi(s) conj(Phi(t))
               - grad Phi(s)' I^-1 conj(grad Phi(t))
    for any family with characteristic function ``cf`` and an efficient
    estimator whose asymptotic covariance is the inverse information
    ``fisher_inverse`` (p x p).  Complex-valued, so no :data:`KERNEL_KINDS`
    entry: the paper's general formula and the tests' oracle for the MLE kernels.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    gs = np.stack(cf_grad(s, params))
    gt = np.stack(cf_grad(t, params))
    quad_form = np.einsum("i...,ij,j...->...", gs, np.asarray(fisher_inverse), np.conj(gt))
    return cf(s - t, params) - cf(s, params) * np.conj(cf(t, params)) - quad_form


# s-grid of the inner-integral splines; |s| beyond _S_MAX reads the last node
_S_MAX = 65.0
_N_GRID = 2048


class _EiseInnerCache:
    """Cubic-spline cache of the three EISE inner integrals M1, M2, M3.

    Each kernel evaluation needs all three at both arguments; computing them
    on a fixed grid once keeps the Nystrom assembly O(N^2) cheap.  The
    ``_N_GRID`` node values on [0, ``_S_MAX``] come from
    :func:`~stablegof.estimators._inner_values`, which defines M1-M3 and
    states their accuracy.  Between the nodes the values are cubic-spline
    interpolants, whose error dominates: with the weight exp(-|t|^1.5), at
    the nodes of an N = 800 discretization (|s| <= log N, about 6.7) M2 is
    off by up to 1.8e-7 absolute at alpha = 1.33 and 5.2e-8 at 1.76, which
    moves the 5% critical value by 1.7e-7 and 1.0e-7 relative.
    """

    def __init__(self, alpha, weight):
        grid = np.linspace(0.0, _S_MAX, _N_GRID)
        vals = _inner_values(alpha, weight, grid)
        self._spl = [CubicSpline(grid, vals[:, i]) for i in range(3)]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        a_s = np.minimum(np.abs(s), _S_MAX)
        sgn = np.where(s < 0, -1.0, 1.0)
        return sgn * self._spl[0](a_s), self._spl[1](a_s), self._spl[2](a_s)


@dataclass(frozen=True)
class KernelSpec:
    """Which asymptotic kernel to evaluate, with its coefficients.

    ``inv_entries`` are (V^11, V^22, V^23, V^33) of the inverse of the
    estimator's matrix V: the Fisher matrix I for the MLE kinds, A for the
    EISE kinds.  EISE kinds also carry J = A^-1 H A^-1, their
    :class:`EiseMatrices` (for the B constants) and the inner-integral
    cache.  The fixed-alpha kinds (``mle_h2``, ``eise_fixed``) invert only
    the (mu, sigma) block and set V^23 = V^33 = 0 and J's alpha row and
    column to zero.
    """

    kind: str
    alpha: float
    kappa: float
    inv_entries: tuple
    J: np.ndarray | None = None
    eise: EiseMatrices | None = None
    inner: _EiseInnerCache | None = None


def make_kernel(kind, alpha, kappa=1.0, weight=None):
    """Build a :class:`KernelSpec`, computing Fisher/EISE inputs as needed."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; choose from {KERNEL_KINDS}")
    if kind == "mle_h1":
        return KernelSpec(kind, alpha, kappa, fisher_info(alpha).inverse_entries())
    if kind == "mle_h2":
        i11, i22 = fisher_location_scale(alpha)
        return KernelSpec(kind, alpha, kappa, (1.0 / i11, 1.0 / i22, 0.0, 0.0))
    if weight is None:
        raise ValueError(f"{kind} kernel needs a WeightSpec")
    em = eise_matrices(alpha, weight)
    if kind == "eise_h1":
        inv, J = em.a_inverse_entries(), em.J
    else:
        inv = (1.0 / em.A[0, 0], 1.0 / em.A[1, 1], 0.0, 0.0)
        J = np.diag([em.H[0, 0] * inv[0] ** 2, em.H[1, 1] * inv[1] ** 2, 0.0])
    return KernelSpec(kind, alpha, kappa, inv, J, em, _EiseInnerCache(alpha, weight))


def gamma_eise(s, t, spec):
    """EISE covariance kernel (symmetrized form, negative-exponent inner integrals)."""
    em = spec.eise
    a = spec.alpha
    a11, a22, a23, a33 = spec.inv_entries
    J = spec.J
    s, t, sa, ta, ls, lt, jbr = _gradient_form(s, t, a, (J[0, 0], J[1, 1], J[1, 2], J[2, 2]))
    e_s, e_t = np.exp(-sa), np.exp(-ta)
    e_pp = e_s * e_t
    bbr = (em.Bsigma * a22 + em.Balpha * a23) * a * (ta + sa) + (
        em.Bsigma * a23 + em.Balpha * a33
    ) * (ta * lt + sa * ls)
    m1s, m2s, m3s = spec.inner(s)
    m1t, m2t, m3t = spec.inner(t)

    def half(tt, ta_, lt_, e_t_, m1, m2, m3):
        # cross terms with the roles (t-side CF gradient) x (s-side inner integral)
        return (
            -a11 * tt * e_t_ * m1
            - a * (a22 * a + a23 * lt_) * ta_ * e_t_ * m2
            - (a23 * a + a33 * lt_) * ta_ * e_t_ * m3
        )

    cross = half(t, ta, lt, e_t, m1s, m2s, m3s) + half(s, sa, ls, e_s, m1t, m2t, m3t)
    return np.exp(-np.abs(t - s) ** a) - e_pp + (jbr + bbr) * e_pp + cross


def kernel_fn(spec):
    """Gamma(s, t) evaluator for a kernel spec (vectorized)."""
    if spec.eise is None:
        return lambda s, t: gamma_mle(s, t, spec.alpha, spec.inv_entries)
    return lambda s, t: gamma_eise(s, t, spec)


def transform_point(u):
    """Map u in [-1, 1] to the line: s = -sgn(u) log(1 - |u|)."""
    u = np.asarray(u, dtype=float)
    return -np.sign(u) * np.log1p(-np.abs(u))


def transformed_kernel(u, v, spec):
    """Weighted kernel on [-1, 1]^2 consumed by the eigenvalue solver.

    K(u, v) = Gamma(s(u), s(v)) * ((1-|u|)(1-|v|))^((kappa-1)/2), which is
    the plane kernel with the weight e^{-kappa|t|} folded in and the
    Jacobian of the log map absorbed.  For kappa > 1 the kernel vanishes
    at |u| = 1; for kappa <= 1 the endpoints are evaluated just inside
    (quadrature grids never place nodes at +-1).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(u) > 1) or np.any(np.abs(v) > 1):
        raise ValueError("transformed kernel arguments must lie in [-1, 1]")
    g = kernel_fn(spec)
    k = spec.kappa
    at_edge = (np.abs(u) >= 1.0) | (np.abs(v) >= 1.0)
    u = np.clip(u, -1.0 + 1e-12, 1.0 - 1e-12)
    v = np.clip(v, -1.0 + 1e-12, 1.0 - 1e-12)
    au, av = np.abs(u), np.abs(v)
    fac = ((1.0 - au) * (1.0 - av)) ** (0.5 * (k - 1.0))
    out = g(transform_point(u), transform_point(v)) * fac
    if k > 1.0:
        out = np.where(at_edge, 0.0, out)
    return out

