"""Goodness-of-fit tests for symmetric stable laws via weighted CF distances.

The package fits symmetric stable distributions by maximum likelihood or
by the equivariant integrated-squared-error criterion, computes the
weighted-L2 test statistic between the empirical and fitted characteristic
functions, and derives the asymptotic null distribution of the statistic
by eigenvalue analysis of the limiting covariance kernels.
"""

__version__ = "0.1.0"

from .stable_core import StableParams, cf, pdf, pdf_batch, rand_stable
from .estimators import (
    EiseMatrices,
    WeightSpec,
    FitResult,
    fisher_info,
    eise_matrices,
    mle_fit,
    eise_fit,
    q_objective,
)
from .ecf_test import TestOutcome, test_statistic
from .kernels import KernelSpec, make_kernel, gamma
from .spectral import Spectrum, discretize, eigen_spectrum, build_spectrum
from .inversion import (
    InversionConfig,
    default_inversion_config,
    cdf_dk,
    quantile_dk,
)
from .montecarlo import (
    ExperimentConfig,
    simulate_critical,
    power_study,
    worker_pool,
)
