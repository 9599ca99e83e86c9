"""Nystrom discretization and eigenvalues of the weighted covariance kernels.

The null law of D needs the eigenvalues of the covariance kernel
Gamma(s, t) of :mod:`stablegof.kernels` under the weight exp(-kappa|t|) on
the line.  The map s(x) = -sgn(x) log(1 - |x|) takes [-1, 1] onto the
line, and with its Jacobian absorbed the weighted operator is the kernel

    K(x, y) = Gamma(s(x), s(y)) w(x) w(y),   w(x) = (1 - |x|)^((kappa - 1)/2),

on [-1, 1]^2.  The integral equation lambda int_{-1}^{1} K(x,y) f(y) dy =
f(x) is discretized on the midpoint grid xi_i = -1 + (2i-1)/N.  The rule
weight on the length-2 interval is 2/N, so the eigenvalues nu_j of (2/N) K~
approximate the operator eigenvalues 1/lambda_j; their reciprocals are the
lambda_j the Fredholm determinant and the distribution series consume.
Midpoint nodes never touch +-1, which keeps the kappa <= 1 kernels (only
continuous in the open square) evaluable without special casing.

The laws under test are symmetric, so Gamma is even under
(s, t) -> (-s, -t): ``gamma(-s, -t, spec)`` equals ``gamma(s, t, spec)``
bit for bit for every kind.  The weight factor w is even in x and s is odd,
so K is even under (x, y) -> (-x, -y) as well.  The grid is mirrored about
0, so with x the N/2 positive nodes, P = K(x_i, x_j) and M = K(x_i, -x_j),
and J the order reversal, the N x N matrix is

    [[J P J, J M],
     [M J,   P  ]].

It maps [Jw; w] to [J(P + M)w; (P + M)w] and [-Jw; w] to
[-J(P - M)w; (P - M)w], so its eigenvectors split into even ones, from the
block E = P + M, and odd ones, from O = P - M, and its N eigenvalues are
exactly those of E together with those of O.  Two solves of order N/2
replace one of order N.  In the Cauchy case (alpha = 1 with alpha fixed,
``mle_h2``) the eigenvalues come in pairs; each pair is one even and one
odd eigenfunction with the same eigenvalue, one from each block.

The kernel is C(s - t) - u_e(s)' B_e u_e(t) - u_o(s)' B_o u_o(t) (see
:mod:`stablegof.kernels`), and at -s_j only the odd factors change sign, so

    E = F [C(s_i - s_j) + C(s_i + s_j) - 2 U_e B_e U_e'] F,
    O = F [C(s_i - s_j) - C(s_i + s_j) - 2 U_o B_o U_o'] F,

with s = s(x) = -log(1 - x), U the factors at s (one row per node) and
F = diag(w(x_i)).

A saved spectrum is an uncompressed numpy archive (``np.savez``) with one
array per stored field: ``lambdas`` (float64, ascending), ``kappa`` (a
float64 scalar) and ``n_dropped`` (an integer scalar).  It loads without
pickling.  The kernel kind and alpha are not stored: the ``cli`` cache
names each entry by them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import NumericsError

__all__ = ["Spectrum", "midpoint_grid", "discretize", "eigen_spectrum", "build_spectrum"]


@dataclass(frozen=True)
class Spectrum:
    """Ascending positive eigenvalues lambda_j of a discretized kernel.

    ``kappa`` is the constant of the weight exp(-kappa|t|); it sets the
    inversion's truncation defaults.
    ``n_dropped`` counts the eigenvalues discarded as discretization noise;
    together with the kept ones they are all N eigenvalues of the matrix.
    """

    lambdas: np.ndarray
    kappa: float
    n_dropped: int = 0

    def trace_sum(self, m=None):
        """sum_j 1/lambda_j over the first m eigenvalues = approximate E[D]."""
        lam = self.lambdas if m is None else self.lambdas[:m]
        return float(np.sum(1.0 / lam))

    def save(self, path):
        """Write the stored fields to ``path`` as an uncompressed numpy archive."""
        # an open handle keeps np.savez from appending ".npz" to the name
        with open(path, "wb") as fh:
            np.savez(fh, **vars(self))

    @classmethod
    def load(cls, path):
        with np.load(path) as arc:
            return cls(arc["lambdas"], float(arc["kappa"]), int(arc["n_dropped"]))


def midpoint_grid(n):
    """Midpoint nodes xi_i = -1 + (2i - 1)/N on [-1, 1], mirrored about 0.

    The positive nodes are formed once and the negative ones are their
    negated mirror image, so ``xi[::-1] == -xi`` holds exactly and, for even
    N, the upper half is (2i - 1)/N, i = 1..N/2, bit for bit.
    """
    pos = (2.0 * np.arange(n // 2) + 1.0 + n % 2) / n
    return np.concatenate((-pos[::-1], np.zeros(n % 2), pos))


def discretize(spec, n):
    """Even and odd Nystrom blocks (E, O) of the kernel on the N-node midpoint grid.

    E = K(x_i, x_j) + K(x_i, -x_j) and O = K(x_i, x_j) - K(x_i, -x_j) over
    the N/2 positive nodes x, built from the kernel's factors (see the module
    docstring): 2 (N/2)^2 evaluations of the stationary part plus products
    of rank at most 5 (even) and 2 (odd), with no pairwise kernel call.  E
    carries the even eigenvectors of the full matrix, O the odd ones.  The
    stationary part is exactly symmetric in (i, j) but U B U' only up to
    rounding, so each block is symmetrized exactly.  Raises ValueError
    unless N is even and >= 16.
    """
    if n < 16 or n % 2:
        raise ValueError("node count must be even and at least 16")
    x = midpoint_grid(n)[n // 2 :]
    s = -np.log1p(-x)
    f = (1.0 - x) ** (0.5 * (spec.kappa - 1.0))
    ff = f[:, None] * f[None, :]
    same = spec.stationary(s[:, None] - s[None, :])
    mirror = spec.stationary(s[:, None] + s[None, :])
    u_even, u_odd = spec.factors(s)
    even = ff * (same + mirror - 2.0 * (u_even @ spec.b_even @ u_even.T))
    odd = ff * (same - mirror - 2.0 * (u_odd @ spec.b_odd @ u_odd.T))
    return 0.5 * (even + even.T), 0.5 * (odd + odd.T)


def eigen_spectrum(blocks, kappa):
    """Spectrum of the integral operator from the blocks of a discretized kernel.

    ``blocks`` is a tuple of symmetric matrices whose eigenvalues together
    are those of the N x N kernel matrix: the even and odd blocks of
    :func:`discretize`, or ``(matrix,)`` for a plain symmetric matrix;
    ``kappa``, the weight's constant, is stored on the result.  The
    node count N is the sum of the block orders.  Solves each block's
    symmetric dense problem for (2/N) times the block with LAPACK's
    divide-and-conquer driver (``evd``): the default ``evr`` took ~1.7 s on
    a rank-one matrix of order 400, ``evd`` ~20 ms, and on the order-400
    blocks of the tabulated kernels the two agree to 1.5e-15 nu_max at
    equal speed.  Keeps the positive
    eigenvalues (tiny or negative ones are discretization noise and are
    counted in ``n_dropped``) and returns their reciprocals ascending.  The
    blocks' eigenvalues are merged before anything is kept or dropped, so a
    Cauchy-case pair, one eigenvalue from each block, stays a pair.
    """
    n = sum(blk.shape[0] for blk in blocks)
    nu = np.concatenate([eigh(2.0 / n * blk, eigvals_only=True, driver="evd") for blk in blocks])
    if not np.all(np.isfinite(nu)):
        raise NumericsError("eigensolve returned non-finite values")
    numax = float(np.max(nu))
    if numax <= 0:
        raise NumericsError("kernel matrix has no positive eigenvalues")
    keep = nu > 1e-13 * numax
    lam = np.sort(1.0 / nu[keep])
    return Spectrum(lam, kappa, int(np.sum(~keep)))


def build_spectrum(spec, n):
    """Discretize a kernel and extract its spectrum in one step."""
    return eigen_spectrum(discretize(spec, n), spec.kappa)
