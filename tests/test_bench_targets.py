"""The benchmark tracer's hook points exist in the package.

``bench/tracer.py`` wraps package functions found by module attribute and
binds some of their arguments by name, so a rename in the package would
break a traced benchmark run without failing any other test.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

import stablegof
from stablegof.errors import SeriesDivergenceError
from stablegof.stable_core import StableParams, rand_stable

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets(tracer):
    return tracer.TARGETS


def resolve(mod_name, attr):
    obj = importlib.import_module(f"stablegof.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_target_resolves(targets):
    assert targets
    for mod_name, attr, _, _ in targets:
        assert callable(resolve(mod_name, attr)), f"{mod_name}.{attr}"


def test_bound_arguments_exist(targets):
    bound = {f"{m}.{a}" for m, a, _, bind in targets if bind}
    assert {"stable_core.pdf_batch", "_fourier.cos_transforms"} <= bound
    assert "x" in inspect.signature(resolve("stable_core", "pdf_batch")).parameters
    params = inspect.signature(resolve("_fourier", "cos_transforms")).parameters
    assert "y" in params and "ysplit" in params


def test_fisher_info_is_an_lru_cache():
    # the tracer reports its misses through cache_info
    assert hasattr(resolve("estimators", "fisher_info"), "cache_info")


def test_tracer_counts_the_statistics_transforms(tracer):
    # the per-layer cos_transforms metrics cover the statistic only while it
    # reaches the transforms through that module attribute
    x = rand_stable(0.8, 200, np.random.default_rng(5))
    x[0] = 400.0  # one point beyond the grid split
    tr = tracer.Tracer()
    tr.install()
    try:
        stablegof.ecf_test.test_statistic(x, StableParams(0.0, 1.0, 0.8), 1.0)
    finally:
        tr.uninstall()
    st = tr.totals("_fourier.cos_transforms")
    assert st.calls >= 1
    assert st.counts["far"] > 0


def test_tracer_times_the_large_n_table_inside_cos_transforms(tracer):
    # at n = 5000 the near points go through the Chebyshev table; it must stay
    # inside the one cos_transforms call the bench times and counts
    x = rand_stable(0.9, 5000, np.random.default_rng(7))
    far = np.count_nonzero(np.abs(x) > 60.0)
    assert far > 0
    tr = tracer.Tracer()
    tr.install()
    try:
        stablegof.ecf_test.test_statistic(x, StableParams(0.0, 1.0, 0.9), 1.0)
    finally:
        tr.uninstall()
    st = tr.totals("_fourier.cos_transforms")
    assert st.calls == 1
    assert st.counts["points"] == x.size and st.counts["far"] == far


def test_tracer_counts_the_pair_terms_distinct_differences(tracer):
    # the exp_power pair term evaluates the density once, at each distinct
    # |d|: n(n-1)/2 mirrored pairs and the zero of the diagonal
    x = rand_stable(1.3, 50, np.random.default_rng(6))
    assert np.unique(x).size == 50
    tr = tracer.Tracer()
    tr.install()
    try:
        stablegof.estimators.q_objective(
            x, StableParams(0.0, 1.0, 1.3), stablegof.WeightSpec("exp_power", 1.0, 1.5), grad=True
        )
    finally:
        tr.uninstall()
    st = tr.totals("stable_core.pdf_batch")
    assert st.calls == 1
    assert st.counts["points"] == 50 * 49 // 2 + 1


def test_tracer_sees_the_kernel_and_discretization_layers(tracer):
    # the per-layer make_kernel and discretize metrics read 0 if the
    # pipeline stops reaching them through their module attributes
    tr = tracer.Tracer()
    tr.install()
    try:
        spec = stablegof.kernels.make_kernel(
            "eise_h1", 1.5, 2.5, stablegof.WeightSpec("exp_power", 1.0, 1.5)
        )
        stablegof.spectral.build_spectrum(spec, 64)
    finally:
        tr.uninstall()
    assert tr.totals("kernels.make_kernel").calls == 1
    assert tr.totals("spectral.discretize").calls == 1


def test_tracer_sees_the_covariance_inputs_of_every_kernel(tracer):
    # the per-layer fisher_info and eise_matrices metrics read 0 if make_kernel
    # stops reaching them through their module attributes
    for span, args in (
        ("estimators.fisher_info", ("mle_h1", 1.3)),
        ("estimators.eise_matrices", ("eise_h1", 1.3, 1.0, stablegof.WeightSpec("exp_power", 1.0, 1.5))),
    ):
        tr = tracer.Tracer()
        tr.install()
        try:
            stablegof.kernels.make_kernel(*args)
        finally:
            tr.uninstall()
        assert tr.totals(span).calls >= 1, span


def test_tracer_counts_every_cdf_evaluation_of_a_quantile(tracer, monkeypatch):
    # inversion.cdf_evals_per_quantile counts the evaluations inside
    # quantile_dk that return through the inversion.cdf_dk_with_bound
    # attribute; a walk to the lower bracket that bypassed the attribute would
    # make it read low.  _series_terms runs once per evaluation, whichever
    # route made it.
    inv = stablegof.inversion
    cfg = inv.default_inversion_config(
        stablegof.build_spectrum(stablegof.make_kernel("mle_h1", 1.5, 2.5), 100)
    )
    seen = {"terms": 0, "returned": 0, "refused": 0}
    series_terms, cdf = inv._series_terms, inv.cdf_dk_with_bound

    def counted_terms(*args):
        seen["terms"] += 1
        return series_terms(*args)

    def counted_cdf(x, config):
        try:
            out = cdf(x, config)
        except SeriesDivergenceError:
            seen["refused"] += 1
            raise
        seen["returned"] += 1
        return out

    monkeypatch.setattr(inv, "_series_terms", counted_terms)
    monkeypatch.setattr(inv, "cdf_dk_with_bound", counted_cdf)
    tr = tracer.Tracer()
    tr.install()
    try:
        inv.quantile_dk(0.05, cfg)
    finally:
        tr.uninstall()
    # the series refused the walk's first points on this cell
    assert seen["refused"] >= 1
    assert seen["returned"] + seen["refused"] == seen["terms"]
    assert tracer.layer_metric(tr, "inversion.cdf_evals_per_quantile") == seen["returned"]


def test_results_carry_what_the_bench_reads():
    # bench/workloads.py reads these attributes of the package's results, and
    # the tracer's hooks read n_iter and n_dropped
    x = rand_stable(1.5, 100, np.random.default_rng(8))
    fit = stablegof.mle_fit(x)
    assert isinstance(fit.params, StableParams) and isinstance(fit.n_iter, int)
    assert isinstance(stablegof.test_statistic(x, fit.params, 2.5).statistic, float)
    em = stablegof.eise_matrices(1.5, stablegof.WeightSpec("exp_power", 1.0, 1.5))
    assert em.J.shape == (3, 3)
    sp = stablegof.build_spectrum(stablegof.make_kernel("mle_h1", 1.5, 2.5), 100)
    assert isinstance(sp.n_dropped, int)
    assert stablegof.quantile_dk(0.05, stablegof.default_inversion_config(sp)) > 0
