"""Nystrom discretization and eigenvalues of the weighted covariance kernels.

The integral equation lambda int_{-1}^{1} K(s,t) f(t) dt = f(s) is
discretized on the midpoint grid xi_i = -1 + (2i-1)/N.  The rule weight on
the length-2 interval is 2/N, so the eigenvalues nu_j of (2/N) K~
approximate the operator eigenvalues 1/lambda_j; their reciprocals are the
lambda_j the Fredholm determinant and the distribution series consume.
Midpoint nodes never touch +-1, which keeps the kappa <= 1 kernels (only
continuous in the open square) evaluable without special casing.

A saved spectrum is an uncompressed numpy archive (``np.savez``) with one
array per stored field: ``lambdas`` (float64, ascending), ``kind`` (a
unicode scalar), ``alpha`` and ``kappa`` (float64 scalars) and
``n_dropped`` (an integer scalar).  It loads without pickling.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import NumericsError
from .kernels import transformed_kernel

__all__ = ["Spectrum", "midpoint_grid", "discretize", "eigen_spectrum", "build_spectrum"]


@dataclass(frozen=True)
class Spectrum:
    """Ascending positive eigenvalues lambda_j of a discretized kernel.

    ``n_dropped`` counts the eigenvalues discarded as discretization noise;
    together with the kept ones they are all N eigenvalues of the matrix.
    """

    lambdas: np.ndarray
    kind: str
    alpha: float
    kappa: float
    n_dropped: int = 0

    @property
    def n_nodes(self):
        """Node count N of the discretization."""
        return len(self.lambdas) + self.n_dropped

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
            return cls(
                lambdas=arc["lambdas"],
                kind=str(arc["kind"]),
                alpha=float(arc["alpha"]),
                kappa=float(arc["kappa"]),
                n_dropped=int(arc["n_dropped"]),
            )


def midpoint_grid(n):
    """Midpoint nodes xi_i = -1 + (2i - 1)/N on [-1, 1]."""
    i = np.arange(1, n + 1)
    return -1.0 + (2.0 * i - 1.0) / n


def discretize(spec, n):
    """Kernel matrix K(xi_i, xi_j) on the midpoint grid (exactly symmetric)."""
    if n < 16 or n % 2:
        raise ValueError("node count must be even and at least 16")
    xi = midpoint_grid(n)
    mat = transformed_kernel(xi[:, None], xi[None, :], spec)
    return 0.5 * (mat + mat.T)


def eigen_spectrum(matrix, spec=None):
    """Spectrum of the integral operator from a discretized kernel matrix.

    The node count N is the matrix order.  Solves the symmetric dense
    problem for (2/N) K~, keeps the positive eigenvalues (tiny or negative
    ones are discretization noise and are counted in ``n_dropped``) and
    returns their reciprocals ascending.
    """
    nu = eigh(2.0 / matrix.shape[0] * matrix, eigvals_only=True)
    if not np.all(np.isfinite(nu)):
        raise NumericsError("eigensolve returned non-finite values")
    numax = float(np.max(nu))
    if numax <= 0:
        raise NumericsError("kernel matrix has no positive eigenvalues")
    keep = nu > 1e-13 * numax
    lam = np.sort(1.0 / nu[keep])
    return Spectrum(
        lambdas=lam,
        kind=spec.kind if spec else "unknown",
        alpha=spec.alpha if spec else float("nan"),
        kappa=spec.kappa if spec else float("nan"),
        n_dropped=int(np.sum(~keep)),
    )


def build_spectrum(spec, n=800):
    """Discretize a kernel and extract its spectrum in one step."""
    return eigen_spectrum(discretize(spec, n), spec)
