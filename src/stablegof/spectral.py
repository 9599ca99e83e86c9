"""Nystrom discretization and eigenvalues of the weighted covariance kernels.

The integral equation lambda int_{-1}^{1} K(s,t) f(t) dt = f(s) is
discretized on the midpoint grid xi_i = -1 + (2i-1)/N.  The rule weight on
the length-2 interval is 2/N, so the eigenvalues nu_j of (2/N) K~
approximate the operator eigenvalues 1/lambda_j; their reciprocals are the
lambda_j the Fredholm determinant and the distribution series consume.
Midpoint nodes never touch +-1, which keeps the kappa <= 1 kernels (only
continuous in the open square) evaluable without special casing.
"""

from dataclasses import dataclass
import io

import numpy as np
from scipy.linalg import eigh

from .errors import NumericsError
from .kernels import transformed_kernel

__all__ = ["Spectrum", "midpoint_grid", "discretize", "eigen_spectrum", "build_spectrum", "fredholm_det"]


@dataclass(frozen=True)
class Spectrum:
    """Ascending positive eigenvalues lambda_j of a discretized kernel."""

    lambdas: np.ndarray
    n_nodes: int
    grid: np.ndarray
    kind: str
    alpha: float
    kappa: float
    n_dropped: int = 0

    def trace_sum(self, m=None):
        """sum_j 1/lambda_j over the first m eigenvalues = approximate E[D]."""
        lam = self.lambdas if m is None else self.lambdas[:m]
        return float(np.sum(1.0 / lam))

    def save(self, path):
        """Write the spectrum as a flat text file (header + grid + eigenvalues)."""
        with open(path, "w") as fh:
            fh.write("# stablegof spectrum v1\n")
            fh.write(f"kind={self.kind}\n")
            fh.write(f"alpha={self.alpha!r}\n")
            fh.write(f"kappa={self.kappa!r}\n")
            fh.write(f"n_nodes={self.n_nodes}\n")
            fh.write(f"n_dropped={self.n_dropped}\n")
            fh.write("[grid]\n")
            np.savetxt(fh, self.grid)
            fh.write("[lambdas]\n")
            np.savetxt(fh, self.lambdas)

    @classmethod
    def load(cls, path):
        head = {}
        grid_lines, lam_lines = [], []
        target = None
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line == "[grid]":
                    target = grid_lines
                elif line == "[lambdas]":
                    target = lam_lines
                elif target is None:
                    key, val = line.split("=", 1)
                    head[key] = val
                else:
                    target.append(line)
        return cls(
            lambdas=np.loadtxt(io.StringIO("\n".join(lam_lines))),
            n_nodes=int(head["n_nodes"]),
            grid=np.loadtxt(io.StringIO("\n".join(grid_lines))),
            kind=head["kind"],
            alpha=float(head["alpha"]),
            kappa=float(head["kappa"]),
            n_dropped=int(head["n_dropped"]),
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
    mat = 0.5 * (mat + mat.T)
    return mat, xi


def eigen_spectrum(matrix, n, spec=None):
    """Spectrum of the integral operator from a discretized kernel matrix.

    Solves the symmetric dense problem for (2/N) K~, keeps the positive
    eigenvalues (tiny or negative ones are discretization noise and are
    counted in ``n_dropped``) and returns their reciprocals ascending.
    """
    nu = eigh(2.0 / n * matrix, eigvals_only=True)
    if not np.all(np.isfinite(nu)):
        raise NumericsError("eigensolve returned non-finite values")
    numax = float(np.max(nu))
    if numax <= 0:
        raise NumericsError("kernel matrix has no positive eigenvalues")
    keep = nu > 1e-13 * numax
    lam = np.sort(1.0 / nu[keep])
    return Spectrum(
        lambdas=lam,
        n_nodes=n,
        grid=midpoint_grid(n),
        kind=spec.kind if spec else "unknown",
        alpha=spec.alpha if spec else float("nan"),
        kappa=spec.kappa if spec else float("nan"),
        n_dropped=int(np.sum(~keep)),
    )


def build_spectrum(spec, n=800):
    """Discretize a kernel and extract its spectrum in one step."""
    mat, _ = discretize(spec, n)
    return eigen_spectrum(mat, n, spec)


def fredholm_det(lam, spectrum, m=None):
    """Finite-product Fredholm determinant prod_{j<=m} (1 - lam/lambda_j)."""
    lams = spectrum.lambdas if m is None else spectrum.lambdas[:m]
    return float(np.prod(1.0 - lam / lams))
