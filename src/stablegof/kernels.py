"""Asymptotic covariance kernels of the ECF process with estimated parameters.

Each kernel is the covariance of the limiting Gaussian process of the ECF
distance.  For an efficient estimator of a family with characteristic
function Phi, the paper's general formula is

    Gamma(s, t) = Phi(s - t) - Phi(s) conj(Phi(t)) - grad Phi(s)' I^-1 conj(grad Phi(t)),

the complex covariance with the inverse information I^-1 (the tests keep
it as the oracle of the MLE kinds).  Every kind here is real and has the
same shape, a stationary part minus a low-rank part, evaluated by
:func:`gamma`:

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

V and J come from ``estimators._covariance``.  V is the inverse of the
estimator's matrix (the Fisher matrix I for MLE, A for EISE) over the free
parameters, zero-padded to 3 x 3 and indexed (mu, sigma, alpha) =
(1, 2, 3): all three for the H1 kinds, (mu, sigma) for the fixed-alpha
kinds ``mle_h2`` and ``eise_fixed``, where V23 and V33 are zero.  J = V H V,
so a fixed alpha also zeroes J's alpha row and column, and
p = Bs V22 + Ba V23, q = Bs V23 + Ba V33 with the EISE B constants Bs, Ba.
The EISE factors read M1-M3 from one cubic spline in |s| (see
:class:`KernelSpec`).  Even and odd factors never share a term,
so under (s, t) -> (-s, -t) the odd factors' signs cancel in pairs and
Gamma is even bit for bit; :func:`~stablegof.spectral.discretize` builds
its Nystrom blocks from the factors at the nodes.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import block_diag

from .estimators import _covariance, _inner_values
from .stable_core import _safe_log_abs

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "make_kernel",
    "gamma",
]

KERNEL_KINDS = ("mle_h1", "mle_h2", "eise_h1", "eise_fixed")


# s-grid of the inner-integral spline; |s| beyond _S_MAX reads the last node
_S_MAX = 65.0
_N_GRID = 2048


@dataclass(frozen=True)
class KernelSpec:
    """A kernel's alpha, kappa, B_e (``b_even``), B_o (``b_odd``) and EISE inner integrals.

    The kind is :func:`make_kernel`'s argument and is not stored; it shows
    in B_e, B_o and ``inner``.  ``inner`` is None for the MLE kinds.  For
    the EISE kinds it is one cubic spline through (M1, M2, M3) at the
    ``_N_GRID`` nodes of [0, ``_S_MAX``], one column per integral;
    :meth:`factors` reads it at min(|s|, ``_S_MAX``) and gives M1 the sign
    of s.  The node values come from
    :func:`~stablegof.estimators._inner_values`, which defines M1-M3 and
    states their accuracy.  Between the nodes the spline's error dominates:
    with the weight exp(-|t|^1.5), at the nodes of an N = 800
    discretization (|s| <= log N, about 6.7) M2 is off by up to 1.8e-7
    absolute at alpha = 1.33 and 5.2e-8 at 1.76, which moves the 5% critical
    value by 1.7e-7 and 1.0e-7 relative.
    """

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

    def block(m):
        # S(m) of the module docstring: the sigma gradient carries a factor alpha
        return m[1:, 1:] * np.array([[alpha**2, alpha], [alpha, 1.0]])

    free = 3 if kind.endswith("h1") else 2
    if kind.startswith("mle"):
        V, _, _ = _covariance(alpha, free)
        return KernelSpec(alpha, kappa, block_diag(1.0, block(V)), V[:1, :1])
    if weight is None:
        raise ValueError(f"{kind} kernel needs a WeightSpec")
    V, J, em = _covariance(alpha, free, weight)
    p, q = em.Bsigma * V[1, 1] + em.Balpha * V[1, 2], em.Bsigma * V[1, 2] + em.Balpha * V[2, 2]
    b_even = block_diag(1.0, -block(J), np.zeros((2, 2)))
    b_even[0, 1:3] = b_even[1:3, 0] = -alpha * p, -q
    b_even[1:3, 3:] = b_even[3:, 1:3] = block(V)
    b_odd = np.array([[-J[0, 0], V[0, 0]], [V[0, 0], 0.0]])
    grid = np.linspace(0.0, _S_MAX, _N_GRID)
    inner = CubicSpline(grid, _inner_values(alpha, weight, grid))
    return KernelSpec(alpha, kappa, b_even, b_odd, inner)


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

