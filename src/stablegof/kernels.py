"""Asymptotic covariance kernels of the ECF process with estimated parameters.

Each kernel is the covariance of the limiting Gaussian process of the ECF
distance.  Every kind has the shape of the paper's efficient-estimator
formula, a stationary part minus a low-rank part, evaluated by :func:`gamma`:

    Gamma(s, t) = C(s - t) - u_e(s)' B_e u_e(t) - u_o(s)' B_o u_o(t),

with C(d) = exp(-|d|^alpha), u_e even and u_o odd one-variable factors,
and small symmetric B_e, B_o that :func:`make_kernel` fills per kind.  With
e = exp(-|s|^alpha), g = |s|^alpha, l = log|s| (0 at s = 0), the EISE
inner integrals M1 (odd), M2, M3 (even), a = alpha and the 2 x 2 block
S(m) = [[a^2 m22, a m23], [a m23, m33]]:

    kinds                u_e                      u_o        B_e, B_o
    mle_h1, mle_h2       (e, g e, g l e)          (s e)      [[1, 0], [0, S(V)]], [[V11]]
    eise_h1, eise_fixed  (e, g e, g l e, M2, M3)  (s e, M1)  see below

    EISE  B_e = [[1, -r', 0], [-r, -S(J), S(V)], [0, S(V), 0]], r = (a p, q)',
          B_o = [[-J11, V11], [V11, 0]]

V holds the entries of the inverse of the estimator's matrix (the Fisher
matrix I for MLE, A for EISE), J = A^-1 H A^-1 is indexed
(mu, sigma, alpha) = (1, 2, 3), and p = Bs V22 + Ba V23, q = Bs V23 + Ba V33
with the EISE B constants Bs, Ba.  The EISE factors read M1-M3 from one
cubic spline in |s| (see :class:`KernelSpec`).  A fixed alpha (``mle_h2``,
``eise_fixed``) zeroes V23, V33 and J's alpha row and column.  Even and odd
factors never share a term, so under (s, t) -> (-s, -t) the odd factors'
signs cancel in pairs and Gamma is even bit for bit;
:func:`~stablegof.spectral.discretize` builds its Nystrom blocks from the
factors at the nodes.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import block_diag

from .estimators import _inner_values, eise_matrices, fisher_info, fisher_location_scale
from .stable_core import _safe_log_abs, cf, cf_grad

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "make_kernel",
    "gamma",
    "gamma_efficient",
]

KERNEL_KINDS = ("mle_h1", "mle_h2", "eise_h1", "eise_fixed")


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


# s-grid of the inner-integral spline; |s| beyond _S_MAX reads the last node
_S_MAX = 65.0
_N_GRID = 2048


@dataclass(frozen=True)
class KernelSpec:
    """A kernel kind with B_e (``b_even``), B_o (``b_odd``) and the EISE kinds' inner integrals.

    ``inner`` is None for the MLE kinds.  For the EISE kinds it is one cubic
    spline through (M1, M2, M3) at the ``_N_GRID`` nodes of [0, ``_S_MAX``],
    one column per integral; :meth:`factors` reads it at min(|s|, ``_S_MAX``)
    and gives M1 the sign of s.  The node values come from
    :func:`~stablegof.estimators._inner_values`, which defines M1-M3 and
    states their accuracy.  Between the nodes the spline's error dominates:
    with the weight exp(-|t|^1.5), at the nodes of an N = 800
    discretization (|s| <= log N, about 6.7) M2 is off by up to 1.8e-7
    absolute at alpha = 1.33 and 5.2e-8 at 1.76, which moves the 5% critical
    value by 1.7e-7 and 1.0e-7 relative.
    """

    kind: str
    alpha: float
    kappa: float
    b_even: np.ndarray
    b_odd: np.ndarray
    inner: CubicSpline | None = None

    def stationary(self, d):
        """The stationary part C(d) = exp(-|d|^alpha)."""
        return np.exp(-np.abs(d) ** self.alpha)

    def factors(self, s):
        """Even and odd factors (u_e(s), u_o(s)), stacked on a new last axis."""
        s = np.asarray(s, dtype=float)
        a_s = np.abs(s)
        sa = a_s**self.alpha
        e = np.exp(-sa)
        ge = sa * e
        even, odd = [e, ge, ge * _safe_log_abs(a_s)], [s * e]
        if self.inner is not None:
            m = self.inner(np.minimum(a_s, _S_MAX))
            even += [m[..., 1], m[..., 2]]
            odd.append(np.where(s < 0, -1.0, 1.0) * m[..., 0])
        return np.stack(even, axis=-1), np.stack(odd, axis=-1)


def make_kernel(kind, alpha, kappa=1.0, weight=None):
    """Build a :class:`KernelSpec`, computing Fisher/EISE inputs as needed.

    The EISE kinds also tabulate the inner integrals M1-M3 under ``weight``
    and fit the spline that :class:`KernelSpec` describes.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; choose from {KERNEL_KINDS}")

    def block(m22, m23, m33):
        # S(m) of the module docstring: the sigma gradient carries a factor alpha
        return np.array([[alpha**2 * m22, alpha * m23], [alpha * m23, m33]])

    if kind == "mle_h1":
        v11, v22, v23, v33 = fisher_info(alpha).inverse_entries()
    elif kind == "mle_h2":
        i11, i22 = fisher_location_scale(alpha)
        v11, v22, v23, v33 = 1.0 / i11, 1.0 / i22, 0.0, 0.0
    if kind.startswith("mle"):
        b_even = block_diag(1.0, block(v22, v23, v33))
        return KernelSpec(kind, alpha, kappa, b_even, np.array([[v11]]))
    if weight is None:
        raise ValueError(f"{kind} kernel needs a WeightSpec")
    em = eise_matrices(alpha, weight)
    if kind == "eise_h1":
        (v11, v22, v23, v33), J = em.a_inverse_entries(), em.J
    else:
        v11, v22, v23, v33 = 1.0 / em.A[0, 0], 1.0 / em.A[1, 1], 0.0, 0.0
        J = np.diag([em.H[0, 0] * v11**2, em.H[1, 1] * v22**2, 0.0])
    p, q = em.Bsigma * v22 + em.Balpha * v23, em.Bsigma * v23 + em.Balpha * v33
    b_even = block_diag(1.0, -block(J[1, 1], J[1, 2], J[2, 2]), np.zeros((2, 2)))
    b_even[0, 1:3] = b_even[1:3, 0] = -alpha * p, -q
    b_even[1:3, 3:] = b_even[3:, 1:3] = block(v22, v23, v33)
    b_odd = np.array([[-J[0, 0], v11], [v11, 0.0]])
    grid = np.linspace(0.0, _S_MAX, _N_GRID)
    inner = CubicSpline(grid, _inner_values(alpha, weight, grid))
    return KernelSpec(kind, alpha, kappa, b_even, b_odd, inner)


def _form(us, b, ut):
    """u(s)' B u(t) for factor stacks ``us`` and ``ut``, broadcasting before the last axis."""
    return np.sum((us @ b) * ut, axis=-1)


def gamma(s, t, spec):
    """Covariance kernel Gamma(s, t) of any kind: C(s - t) - u_e' B_e u_e - u_o' B_o u_o.

    Vectorized over broadcastable ``s`` and ``t``.  Symmetric in (s, t) up
    to rounding and even under (s, t) -> (-s, -t) bit for bit.
    """
    (even_s, odd_s), (even_t, odd_t) = spec.factors(s), spec.factors(t)
    c = spec.stationary(np.subtract(s, t, dtype=float))
    return c - _form(even_s, spec.b_even, even_t) - _form(odd_s, spec.b_odd, odd_t)

