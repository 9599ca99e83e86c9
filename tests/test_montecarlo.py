"""Monte Carlo harness: reproducibility, tabulated decisions, size."""

import math

import numpy as np
import pytest

from stablegof.montecarlo import (
    CriticalValueTable,
    Decision,
    ExperimentConfig,
    draw_alternative,
    h1_decision,
    power_study,
    simulate_critical,
)

# published upper-10% asymptotic points for kappa = 10 across the alpha grid
KAPPA10_COLUMN = [
    (0.5, 0.083189), (0.6, 0.070175), (0.7, 0.058531), (0.8, 0.048287),
    (0.9, 0.039422), (1.0, 0.031846), (1.1, 0.025434), (1.2, 0.020042),
    (1.3, 0.015530), (1.4, 0.011770), (1.5, 0.008650), (1.6, 0.006077),
    (1.7, 0.003974), (1.8, 0.002283), (1.9, 0.000973),
]


def small_table():
    rows = [(a, 10.0, 0.10, v, 1e-5) for a, v in KAPPA10_COLUMN]
    return CriticalValueTable.from_rows(rows)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, alpha=1.5, kappas=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(1.0,), replications=10)
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(-1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(1.0,), hypothesis="H3")
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(1.0,), xis=(0.10, 1.5))


def test_draw_alternative_kinds():
    rng = np.random.default_rng(0)
    assert len(draw_alternative(None, 30, 1.5, rng)) == 30
    assert len(draw_alternative(("student_t", 3.0), 30, 1.5, rng)) == 30
    z = draw_alternative(("student_t", math.inf), 50_000, 1.5, np.random.default_rng(1))
    assert abs(z.var() - 1.0) < 0.03  # t(inf) aliases to N(0,1)
    z = draw_alternative(("normal", 2.0), 50_000, 1.5, np.random.default_rng(2))
    assert abs(z.var() - 2.0) < 0.06
    with pytest.raises(ValueError):
        draw_alternative(("weibull", 1.0), 10, 1.5, rng)


def test_simulate_critical_reproducible():
    cfg = ExperimentConfig(
        n=20, alpha=1.5, kappas=(2.5,), hypothesis="H2", replications=100, seed=51
    )
    a = simulate_critical(cfg)
    b = simulate_critical(cfg)
    assert a.quantiles == b.quantiles
    np.testing.assert_array_equal(a.statistics[2.5], b.statistics[2.5])


def test_simulate_critical_rejects_alternative():
    cfg = ExperimentConfig(
        n=20, alpha=1.5, kappas=(2.5,), replications=100, seed=1,
        alternative=("student_t", 3.0),
    )
    with pytest.raises(ValueError):
        simulate_critical(cfg)


def test_power_study_needs_thresholds():
    cfg = ExperimentConfig(
        n=20, alpha=1.5, kappas=(2.5,), hypothesis="H2", replications=100, seed=1,
        alternative=("student_t", 3.0),
    )
    with pytest.raises(ValueError):
        power_study(cfg, {})


def test_h1_decision_methods():
    table = small_table()
    # column is decreasing in alpha, so the supremum sits at alpha = 0.5
    dec = h1_decision(0.05, table, 10.0, 0.10, method="sup_all")
    assert dec.threshold == pytest.approx(0.083189)
    assert not dec.reject
    dec = h1_decision(0.09, table, 10.0, 0.10, method="sup_all")
    assert dec.reject
    # below the whole curve: accepted by every procedure
    for method, kw in (
        ("sup_all", {}),
        ("sup_range", {"alpha_range": (1.0, 1.5)}),
        ("plugin", {"alpha_hat": 1.2}),
    ):
        assert not h1_decision(0.0005, table, 10.0, 0.10, method=method, **kw).reject
    # plugin at a tabulated knot returns the table value exactly
    dec = h1_decision(0.02, table, 10.0, 0.10, method="plugin", alpha_hat=1.3)
    assert dec.threshold == pytest.approx(0.015530)
    with pytest.raises(ValueError):
        h1_decision(0.02, table, 10.0, 0.10, method="plugin", alpha_hat=2.3)
    with pytest.raises(ValueError):
        h1_decision(0.02, table, 10.0, 0.10, method="sup_range")
    with pytest.raises(KeyError):
        h1_decision(0.02, table, 3.3, 0.10, method="sup_all")


def test_decision_refuses_a_column_with_a_hole():
    # a partial table: the kappa = 2.5 column lacks alpha = 1.5
    rows = [
        (a, k, 0.10, v, 1e-5)
        for a, v in KAPPA10_COLUMN
        for k in (2.5, 10.0)
        if (a, k) != (1.5, 2.5)
    ]
    table = CriticalValueTable.from_rows(rows)
    for method, kw in (
        ("plugin", {"alpha_hat": 1.3}),
        ("sup_all", {}),
        ("sup_range", {"alpha_range": (1.0, 1.8)}),
    ):
        with pytest.raises(KeyError, match="alpha=1.5"):
            h1_decision(0.02, table, 2.5, 0.10, method=method, **kw)
        assert h1_decision(0.02, table, 10.0, 0.10, method=method, **kw).threshold > 0


def test_table_roundtrip_through_rows():
    table = small_table()
    again = CriticalValueTable.from_rows(table.to_rows())
    np.testing.assert_allclose(again.values, table.values)
    np.testing.assert_allclose(again.alphas, table.alphas)


@pytest.mark.slow
def test_size_matches_level_under_null():
    # testing the null against its own asymptotic thresholds: rejection ~ xi
    crit = {(2.5, 0.10): 0.14044, (2.5, 0.05): 0.16973}  # H2 alpha=1.5 asymptotics
    cfg = ExperimentConfig(
        n=100, alpha=1.5, kappas=(2.5,), hypothesis="H2", replications=300,
        seed=7, alternative=("stable", 1.5),
    )
    res = power_study(cfg, crit)
    p, se = res.rates[(2.5, 0.10)]
    assert abs(p - 0.10) < 3 * max(se, math.sqrt(0.1 * 0.9 / 300))
