"""The weighted-L2 statistic."""

import math
import tracemalloc

import numpy as np
import pytest

from stablegof import _fourier, estimators
from stablegof._fourier import _grid_sums, cos_transforms, envelope_cutoff
from stablegof.errors import DataError, QuadratureError
from stablegof.ecf_test import test_statistic
from stablegof.estimators import WeightSpec, mle_fit
from stablegof.stable_core import StableParams, rand_stable
from test_estimators import q_objective_direct


def test_statistic_requires_positive_kappa():
    with pytest.raises(ValueError):
        test_statistic([1.0, 2.0], StableParams(0, 1, 1.5), 0.0)


@pytest.mark.parametrize("kappa", [-1.0, math.inf, -math.inf, math.nan])
def test_statistic_requires_finite_kappa(kappa):
    with pytest.raises(ValueError, match="finite and positive"):
        test_statistic([1.0, 2.0], StableParams(0, 1, 1.5), kappa)


def test_statistic_checks_kappa_before_the_data():
    # a bad weight is reported as such, even with a sample that is bad too
    with pytest.raises(ValueError, match="finite and positive"):
        test_statistic([], StableParams(0, 1, 1.5), math.inf)


def test_single_point_closed_form():
    # y = 0 after standardization: D = int (1 - e^{-|t|})^2 e^{-|t|} dt = 2/3
    out = test_statistic(np.array([4.2]), StableParams(4.2, 1.0, 1.0), 1.0)
    assert abs(out.statistic - 2.0 / 3.0) < 1e-10


def test_two_evaluation_paths_agree():
    rng = np.random.default_rng(88)
    for alpha in (1.0, 1.4, 1.8):
        for _ in range(4):
            x = rand_stable(alpha, 20, rng)
            fit = StableParams(rng.normal(0, 0.1), rng.uniform(0.8, 1.3), alpha)
            d1 = test_statistic(x, fit, 2.5).statistic
            d2 = x.size * q_objective_direct(x, fit, WeightSpec("exp_abs", 2.5))
            assert abs(d1 - d2) < 1e-6 * max(d2, 1e-8)


def test_statistic_nonnegative():
    rng = np.random.default_rng(5)
    for kappa in (1.0, 5.0):
        x = rng.standard_t(4, 60)
        fit = StableParams(0.0, 1.0, 1.6)
        assert test_statistic(x, fit, kappa).statistic >= 0.0


def test_affine_invariance_with_refit():
    rng = np.random.default_rng(202)
    x = rand_stable(1.5, 150, rng)
    d0 = test_statistic(x, mle_fit(x).params, 2.5).statistic
    for a, b in ((3.0, 2.0), (-0.5, 0.1)):
        xx = a + b * x
        d1 = test_statistic(xx, mle_fit(xx).params, 2.5).statistic
        assert abs(d1 - d0) < 1e-4 * max(d0, 1.0)


def test_outliers_increase_statistic():
    rng = np.random.default_rng(300)
    clean_meds, dirty_meds = [], []
    for _ in range(25):
        x = rand_stable(1.8, 100, rng)
        fit = mle_fit(x, fix_alpha=1.8)
        clean_meds.append(test_statistic(x, fit.params, 2.5).statistic)
        xd = x.copy()
        xd[:5] += 60.0  # gross one-sided outliers
        fitd = mle_fit(xd, fix_alpha=1.8)
        dirty_meds.append(test_statistic(xd, fitd.params, 2.5).statistic)
    assert np.median(dirty_meds) > np.median(clean_meds)


def test_statistic_rejects_non_finite_data():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.array([0.3, -1.2, bad, 2.0, 0.7])
        with pytest.raises(DataError):
            test_statistic(x, StableParams(0.0, 1.0, 1.5), 2.5)


def test_statistic_rejects_an_empty_sample():
    with pytest.raises(DataError, match="empty"):
        test_statistic([], StableParams(0.0, 1.0, 1.5), 2.5)


def test_far_point_quadrature_failure_raises():
    # QUADPACK's oscillatory rule returns NaN (with a message) at |y| = 1e200
    x = rand_stable(1.0, 50, np.random.default_rng(3))
    x[7] = 1e200
    with pytest.raises(QuadratureError):
        test_statistic(x, StableParams(0.0, 1.0, 1.0), 2.5)


def direct_near_sums(ay, alpha, terms, T, grad=True):
    """``_fourier._near_sums`` without its table: every near point on the grid."""
    return _grid_sums(ay, alpha, terms, T, grad)


@pytest.mark.parametrize("alpha", [0.9, 1.7])
def test_statistic_from_the_table_matches_the_direct_sums(alpha, monkeypatch):
    # D = n*Q moves by at most 4n times the table's error per sum; on these
    # samples it moved by 6.7e-12 at most.  An absolute bound: D can be
    # small enough that its relative change says nothing.
    fit = StableParams(0.0, 1.0, alpha)
    for seed in (1, 2, 3):
        x = rand_stable(alpha, 5000, np.random.default_rng(seed))
        got = [test_statistic(x, fit, k).statistic for k in (1.0, 10.0)]
        monkeypatch.setattr(_fourier, "_near_sums", direct_near_sums)
        want = [test_statistic(x, fit, k).statistic for k in (1.0, 10.0)]
        monkeypatch.undo()
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-11


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.2, 1.7, 1.95])
def test_statistic_from_the_pair_table_matches_the_direct_pair_sums(alpha, monkeypatch):
    # D = n*Q moves by the pair sum's change over n; on these samples it
    # moved by 1.7e-12 at most
    fit = StableParams(0.0, 1.0, alpha)
    x = rand_stable(alpha, 5000, np.random.default_rng(int(100 * alpha)))
    sizes, cauchy_rows = [], estimators._cauchy_rows

    def recording(z, *args):
        sizes.append(z.size)
        return cauchy_rows(z, *args)

    monkeypatch.setattr(estimators, "_cauchy_rows", recording)
    got = [test_statistic(x, fit, k).statistic for k in (1.0, 2.5, 10.0)]
    assert x.size not in sizes  # the table served
    sizes.clear()
    # every point a direct row; the near sums keep their table
    monkeypatch.setattr(estimators, "_table_sums", lambda points, width, sums: sums(points))
    want = [test_statistic(x, fit, k).statistic for k in (1.0, 2.5, 10.0)]
    assert sizes == [x.size] * 3
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-11


def test_grid_transforms_memory_bounded():
    # 4935 near points x 4570 grid nodes: the exponentials of all of them at
    # once take ~700 MB; row blocks of 2^18 cells keep the peak near 4.5 MB,
    # both for the table of cos_transforms and for the direct sums
    y = rand_stable(0.9, 5000, np.random.default_rng(11))
    terms = ((1.0, 0.9), (1.0, 1.0))
    ay = np.abs(y[np.abs(y) <= 60.0])
    tracemalloc.start()
    try:
        cos_transforms(y, 0.9, terms)
        _grid_sums(ay, 0.9, terms, envelope_cutoff(terms))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
