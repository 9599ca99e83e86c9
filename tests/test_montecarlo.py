"""Monte Carlo harness: reproducibility, the worker pool, size."""

import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from functools import partial

import numpy as np
import pytest

from stablegof import StableParams
from stablegof import montecarlo as mc
from stablegof.errors import DataError, NonConvergenceError, NumericsError
from stablegof.estimators import FitResult
from stablegof.montecarlo import ExperimentConfig, draw_alternative, power_study, simulate_critical

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def serial_replicate(config):
    """The replication loop as one serial pass: the oracle for the pool and its fold."""
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    failures = 0
    max_failures = max(1, config.replications // 100)
    out = []
    for child in children:
        rng = np.random.default_rng(child)
        for attempt in range(4):
            x = mc.draw_alternative(config.alternative, config.n, config.alpha, rng)
            try:
                p = mc._fit(x, config).params
                out.append([mc.test_statistic(x, p, k).statistic for k in config.kappas])
                break
            except (NonConvergenceError, NumericsError, DataError):
                failures += 1
                if failures > max_failures:
                    raise NumericsError(
                        f"fit failure rate exceeded 1% ({failures} failures)"
                    )
        else:
            raise NumericsError("replication failed repeatedly; aborting")
    return out, failures


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, alpha=1.5, kappas=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(1.0,), replications=10)
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(-1.0,))
    for kappa in (math.inf, math.nan):
        with pytest.raises(ValueError, match="kappas must be finite and positive"):
            ExperimentConfig(n=50, alpha=1.5, kappas=(2.5, kappa))
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(1.0,), hypothesis="H3")
    with pytest.raises(ValueError):
        ExperimentConfig(n=50, alpha=1.5, kappas=(1.0,), xis=(0.10, 1.5))
    for alpha in (0.0, 2.5, math.nan):
        with pytest.raises(ValueError, match="alpha must be in"):
            ExperimentConfig(n=50, alpha=alpha, kappas=(1.0,))


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
    # a config refuses the kind before any worker starts
    with pytest.raises(ValueError, match="unknown alternative 'weibull'"):
        ExperimentConfig(n=20, alpha=1.5, kappas=(2.5,), replications=100, alternative=("weibull", 1.0))


@pytest.mark.parametrize(
    "alternative",
    [("stable", 0.0), ("stable", 3.0), ("stable", math.nan), ("student_t", -2.0), ("student_t", 0.0),
     ("student_t", math.nan), ("normal", -1.0), ("normal", 0.0), ("normal", math.inf), ("normal", math.nan)],
)
def test_config_refuses_an_alternative_parameter_outside_its_domain(alternative):
    # refused before any worker starts, not inside the draws
    with pytest.raises(ValueError, match=f"the {alternative[0]} alternative needs"):
        ExperimentConfig(n=20, alpha=1.5, kappas=(2.5,), replications=100, alternative=alternative)


def test_config_takes_the_ends_of_each_alternative_domain():
    for alternative in (("stable", 2.0), ("stable", 1e-3), ("student_t", math.inf), ("student_t", 1e-3),
                        ("normal", 1e-3)):
        ExperimentConfig(n=20, alpha=1.5, kappas=(2.5,), replications=100, alternative=alternative)


def test_simulate_critical_reproducible():
    cfg = ExperimentConfig(
        n=20, alpha=1.5, kappas=(2.5,), hypothesis="H2", replications=100, seed=51
    )
    a = simulate_critical(cfg)
    b = simulate_critical(cfg)
    assert a.values == b.values
    np.testing.assert_array_equal(a.statistics, b.statistics)


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


@pytest.mark.slow
def test_size_matches_level_under_null():
    # testing the null against its own asymptotic thresholds: rejection ~ xi
    crit = {(2.5, 0.10): 0.14044, (2.5, 0.05): 0.16973}  # H2 alpha=1.5 asymptotics
    cfg = ExperimentConfig(
        n=100, alpha=1.5, kappas=(2.5,), hypothesis="H2", replications=300,
        seed=7, alternative=("stable", 1.5),
    )
    res = power_study(cfg, crit)
    p, se = res.values[(2.5, 0.10)]
    assert abs(p - 0.10) < 3 * max(se, math.sqrt(0.1 * 0.9 / 300))


class FailingFit:
    """Stands in for ``_fit``: fails on the chosen calls, else returns a fixed fit."""

    def __init__(self, failing_calls):
        self.failing_calls = set(failing_calls)
        self.calls = 0

    def __call__(self, x, config):
        self.calls += 1
        if self.calls in self.failing_calls:
            raise NonConvergenceError(f"call {self.calls} fails")
        return FitResult(StableParams(0.0, 1.0, config.alpha), 1, 0.0)


def _outcome(run):
    try:
        return run()
    except NumericsError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "replications, failing_calls",
    [
        (100, ()),  # clean
        (100, (5,)),  # one redraw within the budget
        (200, (3, 50, 120)),  # the budget of 2 exceeded at the third failure
        (100, (10, 11, 12, 13)),  # four in one replication: the budget of 1 fires first
        (400, (10, 11, 12, 13)),  # four in one replication within a budget of 4
    ],
)
def test_fold_matches_the_serial_loop(monkeypatch, replications, failing_calls):
    cfg = ExperimentConfig(
        n=20, alpha=1.5, kappas=(1.0, 2.5), hypothesis="H2", replications=replications, seed=3
    )
    monkeypatch.setattr(mc, "_fit", FailingFit(failing_calls))
    expected = _outcome(lambda: serial_replicate(cfg))
    monkeypatch.setattr(mc, "_fit", FailingFit(failing_calls))
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    got = _outcome(lambda: mc._fold(map(partial(mc._attempts, cfg), children), cfg))
    assert got == expected


def serial_statistics(out_dir, config_name):
    """The serial loop's statistics for this module's ``config_name``, (R, K) in
    replication order, computed in a process with single-threaded BLAS."""
    out = out_dir / "stats.npy"
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        sys.path[:0] = [{SRC!r}, {os.path.dirname(os.path.abspath(__file__))!r}]
        from test_montecarlo import {config_name}, serial_replicate
        rows, _ = serial_replicate({config_name})
        np.save({str(out)!r}, np.array(rows))
    """)
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)
    return np.load(out)


@pytest.fixture(scope="module")
def oracle_statistics(tmp_path_factory):
    return serial_statistics(tmp_path_factory.mktemp("oracle"), "POOL_CONFIG")


POOL_CONFIG = ExperimentConfig(
    n=20, alpha=1.5, kappas=(2.5,), hypothesis="H2", replications=100, seed=51
)
EISE_CONFIG = ExperimentConfig(
    n=20, alpha=1.5, kappas=(1.0, 2.5), hypothesis="H2", estimator="eise", replications=100, seed=52
)


def test_an_eise_section_matches_the_serial_loop(tmp_path):
    # the pool's EISE fits (weight exp(-|t|^alpha) at the null alpha) give the
    # serial loop's statistics bit for bit
    res = simulate_critical(EISE_CONFIG)
    assert np.array_equal(res.statistics, serial_statistics(tmp_path, "EISE_CONFIG"))
    assert res.statistics.shape == (100, 2) and res.n_failures == 0


@pytest.mark.parametrize("preset", [None, "2"])
def test_pool_is_bit_identical_and_restores_the_environment(monkeypatch, oracle_statistics, preset):
    for name in BLAS_THREAD_VARS:
        if preset is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, preset)
    before = dict(os.environ)
    res = simulate_critical(POOL_CONFIG)
    assert dict(os.environ) == before
    assert np.array_equal(res.statistics, oracle_statistics)
    assert multiprocessing.active_children() == []


def report_worker(config, child):
    """Stands in for ``_attempts`` in the workers: a row naming the process and its BLAS settings."""
    return [os.getpid(), *(os.environ.get(name) for name in BLAS_THREAD_VARS)], 0


# a statistic that every replication returns, and the threshold it meets exactly
AT_THRESHOLD = 0.25


def statistic_at_threshold(config, child):
    """Stands in for ``_attempts`` in the workers: every statistic equals ``AT_THRESHOLD``."""
    return [AT_THRESHOLD] * len(config.kappas), 0


def test_power_study_rejects_at_the_threshold(monkeypatch):
    # `stablegof test` rejects at D >= c; a power study counts the same rejections
    monkeypatch.setattr(mc, "_attempts", statistic_at_threshold)
    cfg = ExperimentConfig(
        n=20, alpha=1.5, kappas=(2.5,), replications=100, seed=1, alternative=("student_t", 3.0)
    )
    res = power_study(cfg, {(2.5, xi): AT_THRESHOLD for xi in cfg.xis})
    assert res.values == {(2.5, xi): (1.0, 0.0) for xi in cfg.xis}
    assert res.n_failures == 0


def test_workers_start_with_single_threaded_blas(monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "4")
    monkeypatch.setattr(mc, "_attempts", report_worker)
    rows, failures = mc._replicate(POOL_CONFIG)
    assert failures == 0 and len(rows) == POOL_CONFIG.replications
    assert {tuple(r[1:]) for r in rows} == {("1", "1", "1")}
    pids = {r[0] for r in rows}
    assert os.getpid() not in pids
    assert len(pids) <= len(os.sched_getaffinity(0))
    assert all(os.environ[name] == "4" for name in BLAS_THREAD_VARS)


def raise_in_worker(config, child):
    """Stands in for ``_attempts`` in the workers: every replication raises."""
    raise ValueError(f"replication {child.spawn_key[0]} raised")


# an alternative whose replications run; raise_in_worker makes them fail
FAILING_POWER = ExperimentConfig(
    n=20, alpha=1.5, kappas=(2.5,), hypothesis="H2", replications=100, seed=1, alternative=("stable", 1.5)
)


def test_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(mc, "_attempts", raise_in_worker)
    with pytest.raises(ValueError, match=r"replication \d+ raised"):
        power_study(FAILING_POWER, {(2.5, 0.10): 0.1, (2.5, 0.05): 0.2})
    assert multiprocessing.active_children() == []


def test_unguarded_script_fails_with_the_main_guard_message(tmp_path):
    # each spawned worker imports the script, which starts another experiment
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""
        import multiprocessing
        from stablegof.montecarlo import ExperimentConfig, simulate_critical

        cfg = ExperimentConfig(n=20, alpha=1.5, kappas=(2.5,), replications=100, seed=1)
        try:
            simulate_critical(cfg)
        finally:
            if multiprocessing.parent_process() is None:
                print("children left:", len(multiprocessing.active_children()))
    """))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert "RuntimeError" in proc.stderr
    assert 'if __name__ == "__main__":' in proc.stderr
    assert "children left: 0" in proc.stdout


def test_experiments_in_one_block_share_the_workers(monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "4")
    monkeypatch.setattr(mc, "_attempts", report_worker)
    with mc.worker_pool() as pool:
        assert multiprocessing.active_children() == []  # workers start with the first experiment
        first, _ = mc._replicate(POOL_CONFIG)
        workers = {p.pid for p in multiprocessing.active_children()}
        with mc.worker_pool() as inner:
            assert inner is pool
        second, _ = mc._replicate(POOL_CONFIG)
        assert {p.pid for p in multiprocessing.active_children()} == workers
    assert {r[0] for r in first} <= workers and {r[0] for r in second} <= workers
    assert {tuple(r[1:]) for r in first + second} == {("1", "1", "1")}
    assert multiprocessing.active_children() == []


def test_a_failed_experiment_leaves_the_pool_to_the_next(monkeypatch, oracle_statistics):
    with mc.worker_pool():
        with monkeypatch.context() as m:
            m.setattr(mc, "_attempts", raise_in_worker)
            with pytest.raises(ValueError, match=r"replication \d+ raised"):
                power_study(FAILING_POWER, {(2.5, 0.10): 0.1, (2.5, 0.05): 0.2})
        res = simulate_critical(POOL_CONFIG)
    assert np.array_equal(res.statistics, oracle_statistics)
    assert multiprocessing.active_children() == []


def fail_after_first_chunk(run_dir, chunk, config, child):
    """Stands in for ``_attempts``: the first chunk fails at once; each later
    replication records that it ran, then waits for the release file."""
    if child.spawn_key[0] >= chunk:
        open(os.path.join(run_dir, f"ran-{child.spawn_key[0]}"), "w").close()
        release = os.path.join(run_dir, "release")
        for _ in range(600):
            if os.path.exists(release):
                break
            time.sleep(0.05)
    return None, mc._MAX_DRAWS


def test_an_abort_cancels_the_queued_chunks(monkeypatch, tmp_path):
    cpus = len(os.sched_getaffinity(0))
    chunk = -(-POOL_CONFIG.replications // (4 * cpus))
    # the workers hold one later chunk each and the call queue one more than
    # there are workers; only the chunks behind those can be cancelled
    if -(-POOL_CONFIG.replications // chunk) <= 2 * cpus + 2:
        pytest.skip(f"the workers and the call queue hold every chunk on {cpus} CPU(s)")
    monkeypatch.setattr(mc, "_attempts", partial(fail_after_first_chunk, str(tmp_path), chunk))
    with mc.worker_pool():
        try:
            # the error is held, as a caller that logs it would, so its
            # traceback keeps the aborted map alive: the abort itself must
            # cancel the chunks still queued
            with pytest.raises(NumericsError) as aborted:
                mc._replicate(POOL_CONFIG)
        finally:
            # the workers wait inside later chunks and the call queue is
            # full, so the chunks behind them were still pending at the abort
            (tmp_path / "release").touch()
        monkeypatch.setattr(mc, "_attempts", report_worker)
        rows, failures = mc._replicate(POOL_CONFIG)
    assert "fit failure rate exceeded" in str(aborted.value)
    ran = len(list(tmp_path.glob("ran-*")))
    assert 0 < ran <= (2 * cpus + 1) * chunk
    assert ran < POOL_CONFIG.replications - chunk
    assert failures == 0 and len(rows) == POOL_CONFIG.replications
    assert multiprocessing.active_children() == []
