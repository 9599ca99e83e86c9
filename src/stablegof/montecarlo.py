"""Finite-sample experiments: simulated critical values and power.

Replications are driven by spawned child streams of one seed, so results
are reproducible and order-independent.  Individual fit failures are
tolerated (the replication is redrawn from its own stream) up to a 1%
budget; beyond that the experiment aborts.  The asymptotic critical values
are quantiles of the limit law (``inversion.quantile_dk``), not kept here.

The replications run in a pool of spawned worker processes, one per CPU
available to the caller, each started with BLAS at one thread (a threaded
BLAS only spins on the small products of one fit).  Each worker imports
numpy, scipy and this package before its first replication, about a second
of start-up.  The pool lives as long as the outermost :func:`worker_pool`
block around the experiments: several experiments run inside one block
share its workers, and an experiment run outside any block makes its own
pool and shuts it down before it returns, so no worker outlives the call.
``worker_pool`` keeps the open pool in module state and is not for
concurrent use from several threads.  Because each worker imports the
caller's main module, a script that runs an experiment must do so under
``if __name__ == "__main__":``; otherwise the pool breaks and the
experiment raises ``RuntimeError``.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import partial
import math
import multiprocessing
import os

import numpy as np

from .errors import DataError, NumericsError
from .estimators import WeightSpec, eise_fit, mle_fit
from .ecf_test import test_statistic
from .stable_core import rand_stable

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "simulate_critical",
    "power_study",
    "worker_pool",
    "TEST_LEVELS",
]

# upper-tail levels xi at which ``table`` and ``test`` report critical
# values, and the default levels of an experiment
TEST_LEVELS = (0.10, 0.05)

# the parameter domain of each kind of draw_alternative; NaN lies in none
_ALTERNATIVE_DOMAINS = {
    "stable": ("0 < alpha <= 2", lambda a: 0 < a <= 2),
    "student_t": ("df > 0", lambda df: df > 0),
    "normal": ("a finite variance > 0", lambda var: 0 < var < math.inf),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: null model, weights, scale and seed."""

    n: int
    alpha: float
    kappas: tuple
    hypothesis: str = "H1"
    estimator: str = "mle"
    replications: int = 2000
    seed: int = 0
    alternative: tuple | None = None
    xis: tuple = TEST_LEVELS

    def __post_init__(self):
        if self.replications < 100:
            raise ValueError("need at least 100 replications")
        if self.n < 20:
            raise ValueError("need sample size at least 20")
        if not (0 < self.alpha <= 2):
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.hypothesis not in ("H1", "H2"):
            raise ValueError("hypothesis must be 'H1' or 'H2'")
        if self.estimator not in ("mle", "eise"):
            raise ValueError("estimator must be 'mle' or 'eise'")
        if not all(0 < k < math.inf for k in self.kappas):
            raise ValueError("kappas must be finite and positive")
        if not all(0 < xi < 1 for xi in self.xis):
            raise ValueError("xis must lie in (0, 1)")
        # the kinds of draw_alternative and their parameters, checked before any worker starts
        if self.alternative is not None:
            kind, par = self.alternative
            if kind not in _ALTERNATIVE_DOMAINS:
                raise ValueError(f"unknown alternative {kind!r}")
            domain, holds = _ALTERNATIVE_DOMAINS[kind]
            if not holds(par):
                raise ValueError(f"the {kind} alternative needs {domain}, got {par}")


@dataclass
class ExperimentResult:
    """(value, SE) per (kappa, xi): a simulated critical value or a rejection rate.

    ``statistics`` holds D of every replication, (R, K) in replication order.
    """

    values: dict
    n_failures: int
    statistics: np.ndarray = field(repr=False)


def draw_alternative(alternative, n, alpha, rng):
    """Draw one sample: the stable null or a named alternative."""
    if alternative is None:
        return rand_stable(alpha, n, rng)
    kind, par = alternative
    if kind == "stable":
        return rand_stable(par, n, rng)
    if kind == "student_t":
        if math.isinf(par):
            return rng.normal(0.0, 1.0, n)
        return rng.standard_t(par, n)
    if kind == "normal":
        return rng.normal(0.0, math.sqrt(par), n)
    raise ValueError(f"unknown alternative {kind!r}")


def _fit(x, config):
    fix = config.alpha if config.hypothesis == "H2" else None
    if config.estimator == "mle":
        return mle_fit(x, fix_alpha=fix)
    return eise_fit(x, WeightSpec("exp_power", 1.0, config.alpha), fix_alpha=fix)


_MAX_DRAWS = 4
# OpenBLAS, OpenMP and MKL read their thread counts when they load, so the
# workers must be started with these set.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_UNGUARDED_MAIN = (
    "a Monte Carlo worker process died; each worker imports the main script, "
    "so a script that runs an experiment must do so under "
    '`if __name__ == "__main__":`'
)


def _attempts(config, child):
    """One replication from its own stream: draw, fit and test, up to 4 draws.

    Returns the row of statistics (one per kappa), or None when every draw
    failed, and the number of failed draws.
    """
    rng = np.random.default_rng(child)
    for attempt in range(_MAX_DRAWS):
        x = draw_alternative(config.alternative, config.n, config.alpha, rng)
        try:
            p = _fit(x, config).params
            return [test_statistic(x, p, k).statistic for k in config.kappas], attempt
        except (NumericsError, DataError):
            pass
    return None, _MAX_DRAWS


def _fold(outcomes, config):
    """Apply the 1% failure budget to replication outcomes taken in order.

    Raises where a serial loop over the replications would have: at the
    failure that exceeds the budget, or after four failed draws of one
    replication.
    """
    max_failures = max(1, config.replications // 100)
    rows, failures = [], 0
    for row, n_failed in outcomes:
        if failures + n_failed > max_failures:
            raise NumericsError(
                f"fit failure rate exceeded 1% ({max_failures + 1} failures)"
            )
        failures += n_failed
        if row is None:
            raise NumericsError("replication failed repeatedly; aborting")
        rows.append(row)
    return rows, failures


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _single_threaded_blas():
    """Set the BLAS thread counts to 1 for processes started inside; restore after.

    ``os.environ`` is process-wide, so two threads must not be inside at once.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


_pool = None  # the executor of the outermost open worker_pool() block


@contextmanager
def worker_pool():
    """A spawn-context process pool, one worker per available CPU (see the module docstring).

    The outermost block creates the pool and, on exit, cancels any queued
    work and waits for its workers to end; a block opened inside it yields
    the same pool.  The pool starts a worker only when work is submitted.
    """
    global _pool
    if _pool is not None:
        yield _pool
        return
    _pool = ProcessPoolExecutor(
        max_workers=_available_cpus(), mp_context=multiprocessing.get_context("spawn")
    )
    try:
        yield _pool
    finally:
        pool, _pool = _pool, None
        pool.shutdown(wait=True, cancel_futures=True)


def _replicate(config):
    """Fit and test every replication, redrawing on fit failure (1% budget).

    The replications run in contiguous chunks, about four per available
    CPU, on the workers of :func:`worker_pool`, whose BLAS runs on one
    thread.  Their outcomes are folded in replication order, so the rows,
    the failure count and any abort are those of one serial loop; an abort
    cancels the chunks still queued.  Returns one row of statistics per
    replication (one per kappa) and the number of failures.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    size = -(-len(children) // (4 * _available_cpus()))
    with worker_pool() as pool:
        try:
            # map submits every chunk at once, and the pool starts the
            # workers it still lacks during those submits
            with _single_threaded_blas():
                outcomes = pool.map(partial(_attempts, config), children, chunksize=size)
            with closing(outcomes):
                return _fold(outcomes, config)
        except BrokenProcessPool as exc:
            raise RuntimeError(_UNGUARDED_MAIN) from exc


def _experiment(config, summary):
    """Run ``config``'s replications; ``summary(d, kappa, xi)`` reduces D's column at kappa to (value, SE)."""
    rows, failures = _replicate(config)
    stats = np.asarray(rows)
    values = {
        (k, xi): summary(stats[:, i], k, xi) for i, k in enumerate(config.kappas) for xi in config.xis
    }
    return ExperimentResult(values, failures, stats)


def _order_quantile(d, kappa, xi):
    """Upper-xi order statistic of ``d`` and its distribution-free standard error."""
    sorted_stats = np.sort(d)
    r = len(sorted_stats)
    k = min(max(int(math.ceil((1.0 - xi) * r)) - 1, 0), r - 1)
    half = math.sqrt(r * xi * (1.0 - xi))
    k_lo = max(int(k - half), 0)
    k_hi = min(int(k + half + 1), r - 1)
    se = 0.5 * (sorted_stats[k_hi] - sorted_stats[k_lo])
    return float(sorted_stats[k]), float(se)


def simulate_critical(config):
    """Simulated upper percentage points of the statistic under the null.

    Each value is an order statistic of D with its distribution-free SE.
    The replications run on the worker pool of the module docstring.
    """
    if config.alternative is not None:
        raise ValueError("critical-value simulation runs under the null (no alternative)")
    return _experiment(config, _order_quantile)


def power_study(config, critical_values):
    """Rejection rates of the test against ``config.alternative``, with binomial SEs.

    ``critical_values`` maps (kappa, xi) to the threshold c used, asymptotic
    or simulated; a replication rejects at D >= c, as ``stablegof test``
    does.  The replications run on the worker pool of the module docstring.
    """
    if config.alternative is None:
        raise ValueError("power study needs an alternative")
    for k in config.kappas:
        for xi in config.xis:
            if (k, xi) not in critical_values:
                raise ValueError(f"missing critical value for kappa={k}, xi={xi}")

    def rate(d, kappa, xi):
        p = float(np.mean(d >= critical_values[(kappa, xi)]))
        return p, math.sqrt(p * (1.0 - p) / config.replications)

    return _experiment(config, rate)
