"""Shared exception types."""


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not converge within its evaluation budget."""


class SeriesDivergenceError(NumericsError):
    """The alternating series says nothing about F at this argument.

    Raised when its terms stop decreasing, or when its error bound is not
    small against min(F, 1 - F); both are symptoms of the deep left tail.
    """


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
