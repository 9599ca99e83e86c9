"""Shared exception types."""


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not converge within its evaluation budget."""


class SeriesDivergenceError(NumericsError):
    """An alternating series showed non-decreasing terms (divergence symptom)."""


class NonConvergenceError(NumericsError):
    """Optimizer stopped without meeting its convergence criterion.

    Carries the best iterate found so far in ``best`` so callers can
    inspect or reuse it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DataError(ValueError):
    """Input data unfit for the requested operation."""
