"""The weighted-L2 goodness-of-fit statistic for symmetric stable laws.

Standardize the sample with affine-equivariant estimates, compare its
empirical characteristic function against exp(-|t|^alpha_hat) in weighted
L2 with weight exp(-kappa|t|), and scale by n:

    D = n int |Phi_n(t) - exp(-|t|^a)|^2 exp(-kappa|t|) dt.

D is n times the EISE criterion Q with the weight exp(-kappa|t|), and is
evaluated as exactly that, ``n * estimators.q_objective``: a pairwise
Cauchy-weight sum plus n cosine transforms of the standardized points.
The pair sum is one full row per point, except that above 750 points the
points of a dense panel come from a Chebyshev table in x.  It takes the
objective's value-only route, which forms none of the gradient's
transforms.
The tests' ``q_objective_direct`` is its direct-quadrature cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estimators import WeightSpec, _check_spread, q_objective

__all__ = ["TestOutcome", "test_statistic"]


@dataclass(frozen=True)
class TestOutcome:
    """The observed statistic D; the fit, weight and sample size are the caller's inputs."""

    statistic: float


def test_statistic(data, fitted, kappa):
    """Compute the test statistic from a sample and its equivariant fit.

    D is the same quantity under both hypotheses; only the fit differs.
    Under H2 the caller passes a fit with alpha frozen at the hypothesized
    value, so ``fitted.alpha`` is the exponent used either way.  Raises
    ValueError unless ``kappa`` is finite and positive, and
    :class:`~stablegof.errors.DataError` for an empty sample, one holding
    NaN or infinite values, or one whose differences over ``fitted.sigma``
    overflow.

    Q is a small difference of O(1) terms, so D = n*Q carries an absolute
    rounding error of order n*1e-15 whatever its size, and its relative
    accuracy falls as D shrinks.  On the benchmark samples, summing in
    another order moved D by at most 2e-13 at n <= 200 and 1.1e-12 at
    n = 5000; relative to D that reached 5e-11 (D = 8e-4) and 5e-10
    (D = 2e-3).  Above 750 points the near transforms and the pair sum come
    from Chebyshev tables, in y and in x, on the panels that hold more than
    25 points (``_fourier._table_sums``): on n = 5000 stable samples the
    y-table moved D by at most 2.3e-12 (see ``_fourier.cos_transforms``),
    and the x-table was within 1.9e-16 relative of the full-matrix pair sum
    (see ``estimators._pair_table``).
    """
    weight = WeightSpec("exp_abs", kappa)
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise DataError("empty sample")
    if not np.all(np.isfinite(x)):
        raise DataError("sample contains non-finite values")
    _check_spread(x, fitted.sigma)
    return TestOutcome(float(x.size * q_objective(x, fitted, weight)))


# public names that start with "test": keep pytest from collecting them in
# the test modules that import them
TestOutcome.__test__ = False
test_statistic.__test__ = False
