"""Command-line interface: exit codes, file formats, determinism."""

import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from stablegof import cli, inversion
from stablegof import montecarlo as mc
from stablegof.cli import cached_spectrum, critical_values, main, read_column
from stablegof.ecf_test import test_statistic
from stablegof.errors import NumericsError, SeriesDivergenceError
from stablegof.estimators import WeightSpec, eise_matrices, fisher_info, mle_fit
from stablegof.inversion import cdf_dk, cdf_dk_with_bound, default_inversion_config, quantile_dk
from stablegof.kernels import make_kernel
from stablegof.montecarlo import TEST_LEVELS
from stablegof.spectral import Spectrum, build_spectrum
from stablegof.stable_core import rand_stable
from test_inversion import imhof_cdf


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("STABLEGOF_CACHE", str(tmp_path / "cache"))
    return tmp_path


@pytest.fixture()
def cauchy_file(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "cauchy.txt"
    np.savetxt(path, rand_stable(1.0, 200, rng), header="value", comments="")
    return path


def test_read_column_header_and_errors(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("x\n1.0\n2.5\n-3.0\n")
    np.testing.assert_allclose(read_column(p), [1.0, 2.5, -3.0])
    p.write_text("1.0\nnot_a_number\n")
    with pytest.raises(Exception):
        read_column(p)


def test_estimate_reports_information_se(cache, cauchy_file, capsys):
    assert main(["estimate", str(cauchy_file)]) == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(None, 1) for line in out.strip().splitlines() if len(line.split(None, 1)) == 2
    )
    alpha_hat = float(fields["alpha_hat"].split()[0])
    assert abs(alpha_hat - 1.0) < 0.15
    # reported alpha SE tracks the information bound at the fitted exponent
    inv = np.linalg.inv(fisher_info(alpha_hat))
    want = math.sqrt(inv[2, 2] / 200)
    assert abs(float(fields["se(alpha_hat)"]) - want) < 1e-6


def test_estimate_names_the_estimator_and_counts_the_iterations(cache, cauchy_file, capsys):
    # a returned fit has converged, so the output states no convergence flag
    assert main(["estimate", str(cauchy_file)]) == 0
    fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
    assert fields["estimator"] == "mle"
    assert int(fields["iterations"]) == mle_fit(read_column(cauchy_file)).n_iter
    assert "converged" not in fields


def test_estimate_eise_se_uses_the_fit_weight(cache, tmp_path, capsys):
    path = tmp_path / "x.txt"
    np.savetxt(path, rand_stable(1.0, 60, np.random.default_rng(8)))
    cases = [
        # without --bar-alpha the fit weight is exp_power(nu, 1.5), not exp_power(nu, alpha_hat)
        ([], WeightSpec("exp_power", 1.0, 1.5)),
        # bar_alpha = 1 is the weight exp(-nu|t|)
        (["--bar-alpha", "1"], WeightSpec("exp_power", 1.0, 1.0)),
    ]
    for extra, weight in cases:
        assert main(["estimate", str(path), "--estimator", "eise", *extra]) == 0
        fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
        alpha_hat = float(fields["alpha_hat"].split()[0])
        j = eise_matrices(alpha_hat, weight).J
        assert float(fields["se(alpha_hat)"]) == pytest.approx(math.sqrt(j[2, 2] / 60), rel=1e-5)

        # with alpha fixed: the (mu, sigma) block of J = V H V, V = A^-1 over (mu, sigma), so
        # J_ii = H_ii / A_ii^2; the weight is exp_power(1, 1) either way: --bar-alpha 1, or
        # without it the fixed alpha
        fixed = WeightSpec("exp_power", 1.0, 1.0)
        assert main(["estimate", str(path), "--estimator", "eise", "--fix-alpha", "1.0", *extra]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        em = eise_matrices(1.0, fixed)
        sigma_hat = float(fields["sigma_hat"])
        for i, name in enumerate(("se(mu_hat)", "se(sigma_hat)")):
            want = sigma_hat * math.sqrt(em.H[i, i] / em.A[i, i] ** 2 / 60)
            assert float(fields[name]) == pytest.approx(want, rel=2e-5)
        assert "se(alpha_hat)" not in out


@pytest.mark.parametrize("alpha0", ["1.5", "2"])
def test_estimate_mle_with_fixed_alpha_reports_mu_and_sigma_se(cache, cauchy_file, capsys, alpha0):
    assert main(["estimate", str(cauchy_file), "--fix-alpha", alpha0]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    # the inverse information of (mu, sigma); N(0, 2) has I11 = 1/2, I22 = 2
    i11, i22 = (0.5, 2.0) if alpha0 == "2" else np.diag(fisher_info(float(alpha0)))[:2]
    sigma_hat = float(fields["sigma_hat"])
    assert float(fields["se(mu_hat)"]) == pytest.approx(sigma_hat * math.sqrt(1.0 / (i11 * 200)), rel=2e-5)
    assert float(fields["se(sigma_hat)"]) == pytest.approx(sigma_hat * math.sqrt(1.0 / (i22 * 200)), rel=2e-5)
    assert "se(alpha_hat)" not in out


@pytest.mark.parametrize("estimator", ["mle", "eise"])
def test_estimate_reports_no_se_at_the_alpha_bound(cache, tmp_path, capsys, estimator):
    # a uniform sample is lighter-tailed than any stable law: both fits end at alpha = 2
    path = tmp_path / "uniform.txt"
    np.savetxt(path, np.random.default_rng(1).uniform(-1.0, 1.0, 60))
    assert main(["estimate", str(path), "--estimator", estimator]) == 0
    out = capsys.readouterr().out
    assert "alpha_hat    2  (boundary)" in out
    assert "no asymptotic covariance reported" in out
    assert "se(" not in out


@pytest.mark.parametrize("extra", [["--nu", "2"], ["--bar-alpha", "1"], ["--estimator", "mle", "--nu", "1"]])
def test_estimate_mle_refuses_the_eise_weight(tmp_path, monkeypatch, capsys, extra):
    # the MLE has no weight, so these options would be ignored
    monkeypatch.setattr(cli, "read_column", lambda path: pytest.fail("the sample was read"))
    assert main(["estimate", str(tmp_path / "unread.txt"), *extra]) == 1
    assert "the MLE has none" in capsys.readouterr().err


def test_estimate_input_failures(cache, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["estimate", str(empty)]) == 2
    const = tmp_path / "const.txt"
    const.write_text("1.0\n" * 60)
    assert main(["estimate", str(const)]) == 2
    assert main(["estimate", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("estimate", "value\n", "holds no numeric rows"),  # a header alone
        ("simulate", None, "cannot read config"),  # no such file
        ("simulate", "n = 20\n", "bad config"),  # no section header
    ],
    ids=["header-only", "missing-config", "malformed-config"],
)
def test_unusable_input_files_exit_2(cache, tmp_path, capsys, command, text, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    extra = ["-o", str(tmp_path / "o.csv")] if command == "simulate" else []
    assert main([command, str(path), *extra]) == 2
    assert message in capsys.readouterr().err


def test_usage_errors(cache, cauchy_file, capsys):
    # --alpha0 names H2 and --sup the sup method, so the options that named them are gone
    for gone in (["--hypothesis", "H2"], ["--method", "sup"], ["--alpha-range", "1.3", "1.8"]):
        assert main(["test", str(cauchy_file), "--kappa", "2.5", *gone]) == 1
        assert f"unrecognized arguments: {gone[0]}" in capsys.readouterr().err
    assert main(["table", "--alphas", "1.0", "--kappas", "0.5", "--hypothesis", "H1", "-o", "x"]) == 1
    assert main(["bogus"]) == 1


@pytest.mark.parametrize(
    "hypothesis, alphas, nodes",
    [
        ("H1", "1.5", "15"),
        ("H1", "1.5", "14"),
        ("H2", "1.5", "801"),
        ("H1", "2.0", "16"),
        ("H1", "1.5,2.5", "16"),
        ("H2", "2.5", "16"),
        ("H2", "0", "16"),
        ("H1", "nan", "16"),
    ],
)
def test_table_checks_nodes_and_alphas_before_any_cell(
    cache, tmp_path, monkeypatch, capsys, hypothesis, alphas, nodes
):
    def no_cell(*args):
        pytest.fail("a table cell was attempted")

    monkeypatch.setattr(cli, "cached_spectrum", no_cell)
    out = tmp_path / "t.csv"
    argv = ["table", "--hypothesis", hypothesis, "--alphas", alphas, "--kappas", "2.5",
            "--nodes", nodes, "-o", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kappas", ["inf", "nan", "2.5,inf", "2.5,-inf", "0.5"])
def test_table_checks_kappas_before_any_cell(cache, tmp_path, monkeypatch, capsys, kappas):
    def no_cell(*args):
        pytest.fail("a table cell was attempted")

    monkeypatch.setattr(cli, "cached_spectrum", no_cell)
    out = tmp_path / "t.csv"
    assert main(["table", "--alphas", "1.5", "--kappas", kappas, "--nodes", "16", "-o", str(out)]) == 1
    assert not out.exists()
    assert "kappa >= 1" in capsys.readouterr().err


def test_h2_table_accepts_the_normal_endpoint(cache, tmp_path):
    out = tmp_path / "t.csv"
    argv = ["table", "--hypothesis", "H2", "--alphas", "2.0", "--kappas", "2.5",
            "--nodes", "16", "-o", str(out)]
    assert main(argv) == 0
    rows = table_rows(out)
    assert len(rows) == 2
    assert np.all(np.isfinite(rows))


def test_table_keeps_the_cells_that_did_not_fail(cache, tmp_path, monkeypatch, capsys):
    real = cli.cached_spectrum

    def second_cell_fails(kind, alpha, kappa, n):
        if alpha == 1.5:
            raise NumericsError("eigensolve did not converge")
        return real(kind, alpha, kappa, n)

    monkeypatch.setattr(cli, "cached_spectrum", second_cell_fails)
    out = tmp_path / "t.csv"
    argv = ["table", "--alphas", "1.0,1.5", "--kappas", "2.5", "--nodes", "64", "-o", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "cell (alpha=1.5, kappa=2.5) failed: eigensolve did not converge" in captured.err
    assert "(PARTIAL)" in captured.out
    assert "# partial=True" in out.read_text().splitlines()
    rows = table_rows(out)
    assert rows.shape == (len(TEST_LEVELS), 5)
    assert np.all(rows[:, :2] == [1.0, 2.5])
    cfg = default_inversion_config(real("mle_h1", 1.0, 2.5, 64)[0])
    assert np.allclose(rows[:, 3], [quantile_dk(xi, cfg) for xi in TEST_LEVELS], rtol=1e-9, atol=0)


def test_table_test_cycle_and_cache_determinism(cache, cauchy_file, tmp_path, capsys):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    args = [
        "table", "--alphas", "0.9,1.0,1.1", "--kappas", "2.5",
        "--hypothesis", "H1", "--nodes", "200", "-o",
    ]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    rows = table_rows(out1)
    assert set(np.round(rows[:, 0], 3)) == {0.9, 1.0, 1.1}
    assert rows.shape == (6, 5)
    assert np.all(np.isfinite(rows))

    capsys.readouterr()
    code = main(["test", str(cauchy_file), "--kappa", "2.5", "--machine"])
    assert code == 0
    fields = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert fields["reject_10"] == "False"  # Cauchy data fit the stable family
    assert float(fields["statistic"]) > 0


def test_paired_h2_cell_table_and_test(cache, cauchy_file, tmp_path, capsys):
    # at alpha = 1 the mle_h2 spectrum is doubled: each series term is one
    # exponential of the law's finite sum
    out = tmp_path / "h2.csv"
    argv = ["table", "--hypothesis", "H2", "--alphas", "1.0", "--kappas", "2.5",
            "--nodes", "800", "-o", str(out)]
    assert main(argv) == 0
    got = {round(xi, 2): v for _, _, xi, v, _ in table_rows(out)}
    # references of tests/test_inversion.py::test_paired_h2_cauchy_quantiles
    assert got[0.10] == pytest.approx(0.2856105048, rel=1e-9, abs=0.0)
    assert got[0.05] == pytest.approx(0.3349875548, rel=1e-9, abs=0.0)

    capsys.readouterr()
    code = main([
        "test", str(cauchy_file), "--alpha0", "1.0", "--kappa", "2.5", "--machine",
    ])
    assert code == 0
    fields = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert fields["hypothesis"] == "H2"
    assert fields["critical_10"] == "0.285611"
    assert fields["critical_5"] == "0.334988"


def test_h2_table_near_the_cauchy_point(cache, tmp_path, capsys):
    # within 1e-4 of alpha = 1 the leading eigenvalues come in pairs with
    # gaps of 5.5e-7 to 1.7e-5; the series inverts them like any spectrum
    out = tmp_path / "h2.csv"
    alphas = (0.9999, 1.0, 1.0001)
    argv = ["table", "--hypothesis", "H2", "--alphas", ",".join(map(str, alphas)),
            "--kappas", "2.5", "--nodes", "800", "-o", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == f"wrote 6 rows to {out}"
    values = table_rows(out)[:, 3].reshape(3, 2)
    assert not np.isnan(values).any()
    for ia, alpha in enumerate(alphas):
        sp, _ = cached_spectrum("mle_h2", alpha, 2.5, 800)
        lam = sp.lambdas[: default_inversion_config(sp).m]
        for ix, xi in enumerate(TEST_LEVELS):
            assert abs(imhof_cdf(values[ia, ix], lam) - (1.0 - xi)) <= 1e-8
    # q moves by 1.4e-4 relative over the 1e-4 step in alpha
    assert np.allclose(values[[0, 2]], values[1], rtol=5e-4, atol=0.0)


def test_spectrum_cache_keeps_alpha_at_full_precision(cache):
    _, name1 = cached_spectrum("mle_h2", 1.2345678, 2.5, 20)
    _, name2 = cached_spectrum("mle_h2", 1.2345679, 2.5, 20)
    assert name1 != name2
    # nothing but the two finished entries: no temporary file left behind
    assert sorted(os.listdir(cache / "cache")) == sorted([name1, name2])


def test_spectrum_cache_is_keyed_by_the_code_digest(cache, monkeypatch):
    built = []
    real_build = cli.build_spectrum

    def counting_build(spec, n):
        built.append(spec.alpha)
        return real_build(spec, n)

    monkeypatch.setattr(cli, "build_spectrum", counting_build)
    names = []
    for digest in ("0123456789abcdef", "fedcba9876543210", "0123456789abcdef"):
        monkeypatch.setattr(cli, "_code_digest", lambda d=digest: d)
        names.append(cached_spectrum("mle_h2", 1.5, 2.5, 20)[1])
    # the second digest builds its own entry; the first digest's is read back
    assert len(built) == 2
    assert names[0] != names[1] and names[0] == names[2]
    assert sorted(os.listdir(cache / "cache")) == sorted(names[:2])


def test_unreadable_cache_entry_is_rebuilt(cache, tmp_path, capsys):
    # a truncated entry made `table` fail with a zipfile.BadZipFile traceback
    args = ["table", "--hypothesis", "H2", "--alphas", "1.5", "--kappas", "2.5", "--nodes", "16", "-o"]
    assert main(args + [str(tmp_path / "fresh.csv")]) == 0
    (entry,) = os.listdir(cache / "cache")
    path = cache / "cache" / entry
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    assert main(args + [str(tmp_path / "again.csv")]) == 0
    assert data_rows(tmp_path / "again.csv") == data_rows(tmp_path / "fresh.csv")
    # the rebuilt entry replaced the truncated one through the temporary file
    assert os.listdir(cache / "cache") == [entry]
    assert Spectrum.load(path).lambdas.size > 0


def test_code_digest_covers_every_module(tmp_path, monkeypatch):
    # errors.py is imported by spectral; a byte changed in it must change the key
    copy = tmp_path / "stablegof"
    shutil.copytree(os.path.dirname(cli.__file__), copy, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cli, "__file__", str(copy / "cli.py"))
    digest = cli._code_digest.__wrapped__
    before = digest()
    assert before == cli._code_digest()
    errors = copy / "errors.py"
    src = bytearray(errors.read_bytes())
    src[0] ^= 1
    errors.write_bytes(bytes(src))
    assert digest() != before


def test_test_has_no_estimator_option(cauchy_file, capsys):
    # the cells are MLE kernels, so test fits by MLE
    assert main(["test", str(cauchy_file), "--kappa", "2.5", "--estimator", "eise"]) == 1
    assert "unrecognized arguments: --estimator" in capsys.readouterr().err


def test_sup_without_alpha_range_takes_the_papers_span(cache, cauchy_file, capsys):
    argv = ["test", str(cauchy_file), "--kappa", "2.5", "--machine", "--sup"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["0.8", "1.9"]) == 0
    assert capsys.readouterr().out == default
    assert "critical_5=" in default and "p_value" not in default


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_test_refuses_a_non_finite_kappa(cache, cauchy_file, capsys, kappa):
    assert main(["test", str(cauchy_file), "--kappa", kappa]) == 1
    captured = capsys.readouterr()
    assert "finite kappa >= 1" in captured.err
    assert "statistic" not in captured.out


@pytest.mark.parametrize(
    "extra",
    [
        ["--kappa", "0.5"],
        ["--kappa", "-inf"],
        ["--kappa", "2.5", "--alpha0", "0"],
        ["--kappa", "2.5", "--alpha0", "2.5"],
        ["--kappa", "2.5", "--alpha0", "nan"],
        ["--kappa", "2.5", "--sup", "1.8", "1.3"],
        ["--kappa", "2.5", "--sup", "0", "1.5"],
        ["--kappa", "2.5", "--sup", "1.5", "2"],
        ["--kappa", "2.5", "--sup", "nan", "1.5"],
        # --sup takes no values or two
        ["--kappa", "2.5", "--sup", "1.5"],
        # sup is an H1 method: under H2 the run uses the alpha0 cell
        ["--kappa", "2.5", "--alpha0", "1", "--sup"],
        ["--kappa", "2.5", "--alpha0", "1", "--sup", "1.3", "1.8"],
        ["--kappa", "2.5", "--sup", "1.3", "1.5", "1.8"],
    ],
)
def test_test_checks_its_inputs_before_the_sample(cache, tmp_path, monkeypatch, capsys, extra):
    # without a table to bound them, a bad kappa, alpha0 or range would reach the kernel
    def unreachable(*args, **kwargs):
        pytest.fail("test went past its input checks")

    for name in ("read_column", "mle_fit", "cached_spectrum"):
        monkeypatch.setattr(cli, name, unreachable)
    assert main(["test", str(tmp_path / "unread.txt"), *extra]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, cell, sup",
    [
        ([], "mle_h1", None),
        (["--alpha0", "1.0"], "mle_h2", None),
        (["--sup", "1.3", "1.8"], "mle_h1", (1.3, 1.8)),
        (["--alpha0", "1.0", "--sup"], None, None),
    ],
    ids=["plugin", "H2", "sup", "H2_with_sup"],
)
def test_test_options_pick_the_hypothesis_and_method(cache, cauchy_file, monkeypatch, capsys, extra, cell, sup):
    # --alpha0 is H2 at the alpha0 cell; --sup is H1's sup method; the two together are refused
    cfg = default_inversion_config(build_spectrum(make_kernel("mle_h1", 1.0, 2.5), 100))
    thresholds = {xi: quantile_dk(xi, cfg) for xi in TEST_LEVELS}
    calls = []

    def recording(*args):
        calls.append(args)
        return thresholds, None if args[3] else cfg

    monkeypatch.setattr(cli, "critical_values", recording)
    if cell is None:
        monkeypatch.setattr(cli, "read_column", lambda path: pytest.fail("the sample was read"))
        assert main(["test", str(cauchy_file), "--kappa", "2.5", *extra]) == 1
        assert "--sup is an H1 method" in capsys.readouterr().err
        return
    assert main(["test", str(cauchy_file), "--kappa", "2.5", *extra, "--machine"]) == 0
    fields = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    fit = mle_fit(read_column(cauchy_file), fix_alpha=1.0 if cell == "mle_h2" else None)
    assert calls == [(cell, fit.params.alpha, 2.5, sup)]
    assert fields["hypothesis"] == cell[-2:].upper()
    assert ("p_value" in fields) == (sup is None)


def test_a_failed_quantile_exits_3(cache, cauchy_file, monkeypatch, capsys):
    # F = 0.99 everywhere puts the lower end of every bracket above 1 - xi
    cfg = default_inversion_config(build_spectrum(make_kernel("mle_h1", 1.0, 2.5), 100))
    monkeypatch.setattr(inversion, "cdf_dk_with_bound", lambda x, config: (0.99, 0.0))
    with pytest.raises(NumericsError, match="failed to bracket"):
        quantile_dk(0.05, cfg)
    monkeypatch.setattr(cli, "cached_spectrum", lambda *args: (cfg.spectrum, "small"))
    assert main(["test", str(cauchy_file), "--kappa", "2.5"]) == 3
    assert "numerical failure: failed to bracket" in capsys.readouterr().err


def test_plugin_threshold_and_p_value_come_from_the_alpha_hat_cell(cache, cauchy_file, monkeypatch, capsys):
    calls = []

    def recording(*args):
        calls.append((args, critical_values(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "critical_values", recording)
    assert main(["test", str(cauchy_file), "--kappa", "2.5", "--machine"]) == 0
    fields = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    ((args, (thresholds, cfg)),) = calls
    x = read_column(cauchy_file)
    params = mle_fit(x).params
    assert args == ("mle_h1", params.alpha, 2.5, None)
    want = default_inversion_config(build_spectrum(make_kernel("mle_h1", params.alpha, 2.5), 800))
    for xi in TEST_LEVELS:
        assert thresholds[xi] == quantile_dk(xi, want)
        # the threshold inverts the cell's CDF within quantile_dk's tolerance
        assert abs(cdf_dk_with_bound(thresholds[xi], cfg)[0] - (1.0 - xi)) < 1e-5
        assert fields[f"critical_{int(xi * 100)}"] == f"{thresholds[xi]:.6g}"
    d = test_statistic(x, params, 2.5).statistic
    assert fields["p_value"] == f"{1.0 - cdf_dk(d, want):.6g}"


def test_p_value_below_the_series_range_is_a_lower_bound():
    # the series cannot evaluate F this deep in the left tail, so the p-value
    # is 1 - F at the first point d * 1.1^k where it can, marked '>'
    cfg = default_inversion_config(build_spectrum(make_kernel("mle_h1", 0.8, 1.0), 200))
    mean = cfg.spectrum.trace_sum(cfg.m)
    d = 0.05 * mean
    x = d
    while True:
        try:
            f = cdf_dk(x, cfg)
            break
        except SeriesDivergenceError:
            x *= 1.1
    assert x > d
    text = cli._p_value(d, cfg)
    assert text == f">{1.0 - f:.6g}" == ">0.941058"
    # a valid lower bound: the walk stops below 0.6 E[D], so 1 - F there is smaller
    assert float(text[1:]) >= 1.0 - cdf_dk(0.6 * mean, cfg)


def test_p_value_walk_is_bounded(cache, cauchy_file, monkeypatch, capsys):
    # a cell whose series never evaluates: the walk gives up with exit 3
    # after its 60 steps instead of running on
    cfg = default_inversion_config(build_spectrum(make_kernel("mle_h1", 1.0, 2.5), 100))
    thresholds = {xi: quantile_dk(xi, cfg) for xi in TEST_LEVELS}
    monkeypatch.setattr(cli, "critical_values", lambda *args: (thresholds, cfg))
    calls = []

    def refusing(x, config):
        calls.append(x)
        if len(calls) > 1000:
            raise RuntimeError("the walk did not stop")
        raise SeriesDivergenceError("refused")

    monkeypatch.setattr(inversion, "cdf_dk_with_bound", refusing)
    assert main(["test", str(cauchy_file), "--kappa", "2.5"]) == 3
    assert 1 <= len(calls) <= 60
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--kappa", "2.5"], ["--kappa", "2.5", "--alpha0", "2"]],
    ids=["H1_plugin", "H2_normal"],
)
def test_test_prints_the_machine_fields_for_people(cache, cauchy_file, capsys, argv):
    assert main(["test", str(cauchy_file), *argv, "--machine"]) == 0
    fields = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert main(["test", str(cauchy_file), *argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith(f"weighted-L2 stable GOF test ({fields['hypothesis']}, kappa=2.5, ")
    assert lines[1] == (f"fit: mu={fields['mu_hat']} sigma={fields['sigma_hat']} "
                        f"alpha={fields['alpha_hat']}")
    assert lines[2] == f"statistic D = {fields['statistic']}"
    assert lines[3] == f"p-value {fields['p_value']}"
    for line, xi in zip(lines[4:], TEST_LEVELS, strict=True):
        pct = int(xi * 100)
        decision = "REJECT" if fields[f"reject_{pct}"] == "True" else "accept"
        assert line == f"{pct}% critical value {fields[f'critical_{pct}']} -> {decision}"
    # Cauchy data fit the stable family and are far from normal
    want = "False" if "--alpha0" not in argv else "True"
    assert all(fields[f"reject_{int(xi * 100)}"] == want for xi in TEST_LEVELS)


def test_sup_range_is_at_least_every_cell_of_its_range(cache):
    # at kappa = 2.5, q(alpha) is not monotone on [1.3, 1.8]: it falls to a
    # minimum near alpha = 1.72 and rises again
    thresholds, cfg = critical_values("mle_h1", None, 2.5, (1.3, 1.8))
    assert cfg is None
    grid = np.round(np.arange(1.3, 1.8 + 1e-9, 0.01), 2)
    cells = [default_inversion_config(cached_spectrum("mle_h1", a, 2.5, 800)[0]) for a in grid]
    for xi in TEST_LEVELS:
        q = [quantile_dk(xi, c) for c in cells]
        assert np.argmin(q) not in (0, grid.size - 1)
        assert thresholds[xi] >= max(q)


def test_sup_finds_a_peak_between_its_grid_points():
    # the real curves peak inside a range only at small alpha (kappa = 1,
    # alpha near 0.36), where a cell takes seconds; this peak lies between
    # the grid points 0.4 and 0.45
    def q(a):
        return math.exp(-(((a - 0.4237) / 0.02) ** 2))

    got = cli._sup(q, 0.3, 0.6)
    assert got >= max(q(a) for a in np.arange(0.3, 0.6, 0.001))
    assert got <= 1.0


def test_plugin_at_the_normal_boundary_is_input_error(cache, tmp_path, monkeypatch, capsys):
    # this normal sample's MLE ends at alpha = 2, where fisher_info has no inverse
    path = tmp_path / "normal.txt"
    np.savetxt(path, np.random.default_rng(3).normal(size=1000))
    assert mle_fit(read_column(path)).boundary_alpha

    def no_cell(*args):
        pytest.fail("a cell was built at the boundary")

    monkeypatch.setattr(cli, "cached_spectrum", no_cell)
    assert main(["test", str(path), "--kappa", "2.5"]) == 2
    err = capsys.readouterr().err
    assert "no plug-in null law" in err and "--alpha0 2, or use --sup" in err


def test_simulate_determinism_and_power_rows(cache, tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        "[null]\n"
        "n = 20\nalpha = 1.5\nkappas = 2.5\nhypothesis = H2\n"
        "replications = 100\nseed = 3\n"
        "\n"
        "[power]\n"
        "n = 20\nalpha = 1.5\nkappas = 2.5\nhypothesis = H2\n"
        "replications = 100\nseed = 4\nalternative = student_t 1\n"
        "critical_2.5_0.1 = 0.1404\ncritical_2.5_0.05 = 0.1697\n"
    )
    o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert main(["simulate", str(cfg), "-o", str(o1)]) == 0
    assert main(["simulate", str(cfg), "-o", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    lines = [ln for ln in o1.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "experiment,kind,n,alpha,kappa,xi,value,se,n_failures"
    assert len(lines) == 5
    kinds = {ln.split(",")[1] for ln in lines[1:]}
    assert kinds == {"critical", "power"}


def test_simulate_bad_config(cache, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[exp]\nn = 50\n")  # missing fields
    assert main(["simulate", str(bad), "-o", str(tmp_path / "o.csv")]) == 2
    none = tmp_path / "none.ini"
    none.write_text("")
    assert main(["simulate", str(none), "-o", str(tmp_path / "o.csv")]) == 2
    # an out-of-range level is refused before any replication runs
    level = tmp_path / "level.ini"
    level.write_text("[exp]\nn = 20\nalpha = 1.5\nkappas = 2.5\nreplications = 100\nxis = 1.5\n")
    assert main(["simulate", str(level), "-o", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize(
    "section",
    [
        "alpha = 2.5\n",
        "alpha = 1.5\nalternative = normal\n",
        "alpha = 1.5\nalternative = normal x\n",
        # a misspelt key would run with the default of 2000 replications
        "alpha = 1.5\nreplication = 500\n",
        "alpha = 1.5\nalternative = weibull 1\n",
        # parameters outside their kind's domain, refused before the workers start
        "alpha = 1.5\nalternative = normal -1\n",
        "alpha = 1.5\nalternative = student_t -2\n",
        "alpha = 1.5\nalternative = stable 3\n",
        # a power section's thresholds are read before its replications run
        "alpha = 1.5\nalternative = student_t 3\nxis = 0.1, 0.05, 0.01\n",
        "alpha = 1.5\nalternative = student_t 3\nxis = 0.1, 0.05, 0.01\ncritical_2.5_0.01 = x\n",
    ],
    ids=["alpha_above_2", "alternative_without_parameter", "non_numeric_parameter", "unknown_key",
         "unknown_alternative", "normal_negative_variance", "student_t_negative_df", "stable_alpha_3",
         "missing_threshold", "non_numeric_threshold"],
)
def test_simulate_bad_section_exits_2_before_any_replication(cache, tmp_path, monkeypatch, capsys, section):
    def no_run(*args):
        raise AssertionError("a replication started")

    monkeypatch.setattr(cli, "simulate_critical", no_run)
    monkeypatch.setattr(cli, "power_study", no_run)
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        "[exp]\nn = 20\nkappas = 2.5\nreplications = 100\n" + section
        + "critical_2.5_0.1 = 0.1\ncritical_2.5_0.05 = 0.2\n"
    )
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2
    assert "bad experiment section [exp]" in capsys.readouterr().err


def test_simulate_reads_default_keys_as_keys_of_every_section(cache, tmp_path, monkeypatch, capsys):
    configs = []

    def recording(config):
        configs.append(config)
        return mc.ExperimentResult(values={}, n_failures=0, statistics=np.empty((0, 1)))

    monkeypatch.setattr(cli, "simulate_critical", recording)
    cfg = tmp_path / "sim.ini"
    body = "[exp]\nn = 20\nalpha = 1.5\nkappas = 2.5\n"
    cfg.write_text("[DEFAULT]\nhypothesis = H2\nreplications = 100\n" + body)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o.csv")]) == 0
    assert [(c.hypothesis, c.replications) for c in configs] == [("H2", 100)]
    cfg.write_text("[DEFAULT]\nreplication = 100\n" + body)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2
    assert "bad experiment section [exp]: unknown key(s): replication" in capsys.readouterr().err
    assert len(configs) == 1


def test_simulate_infinite_kappa_exits_2_before_any_replication(cache, tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a replication started")

    monkeypatch.setattr(cli, "simulate_critical", no_run)
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[exp]\nn = 20\nalpha = 1.5\nkappas = 2.5, inf\nreplications = 100\n")
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2
    assert "kappas must be finite and positive" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


TWO_SECTIONS = {
    "first": "n = 20\nalpha = 1.5\nkappas = 2.5\nhypothesis = H2\nreplications = 100\nseed = 3\n",
    "second": "n = 20\nalpha = 1.2\nkappas = 1, 2.5\nhypothesis = H2\nreplications = 100\nseed = 4\n",
}


def data_rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def table_rows(path):
    """The rows of a `table` file below its header, as floats."""
    return np.array([[float(v) for v in ln.split(",")] for ln in data_rows(path)[1:]])


@pytest.fixture()
def recorded_experiments(monkeypatch):
    """Each simulate_critical the CLI runs: the pool open around it and its (R, K) statistics."""
    runs = []

    def recording(config):
        res = mc.simulate_critical(config)
        runs.append((mc._pool, res.statistics))
        return res

    monkeypatch.setattr(cli, "simulate_critical", recording)
    return runs


def test_simulate_runs_its_sections_on_one_pool(cache, tmp_path, recorded_experiments):
    both = tmp_path / "both.ini"
    both.write_text("".join(f"[{name}]\n{body}\n" for name, body in TWO_SECTIONS.items()))
    assert main(["simulate", str(both), "-o", str(tmp_path / "both.csv")]) == 0
    assert multiprocessing.active_children() == []
    (pool_a, stats_a), (pool_b, stats_b) = recorded_experiments
    assert pool_a is not None and pool_b is pool_a
    alone = []
    for name, body in TWO_SECTIONS.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[{name}]\n{body}")
        assert main(["simulate", str(cfg), "-o", str(tmp_path / f"{name}.csv")]) == 0
        alone += data_rows(tmp_path / f"{name}.csv")[1:]
    assert data_rows(tmp_path / "both.csv")[1:] == alone
    for together, apart in zip((stats_a, stats_b), (r[1] for r in recorded_experiments[2:])):
        assert np.array_equal(together, apart)
    assert multiprocessing.active_children() == []


def test_simulate_seed_overrides_every_section_seed(cache, tmp_path):
    both = tmp_path / "both.ini"
    both.write_text("".join(f"[{name}]\n{body}\n" for name, body in TWO_SECTIONS.items()))
    assert main(["simulate", str(both), "--seed", "11", "-o", str(tmp_path / "override.csv")]) == 0
    written = tmp_path / "written.ini"
    bodies = {name: re.sub(r"seed = \d+", "seed = 11", body) for name, body in TWO_SECTIONS.items()}
    written.write_text("".join(f"[{name}]\n{body}\n" for name, body in bodies.items()))
    assert written.read_text().count("seed = 11") == 2
    assert main(["simulate", str(written), "-o", str(tmp_path / "written.csv")]) == 0
    override = (tmp_path / "override.csv").read_text().splitlines()
    assert "# seed=11" in override
    rows = data_rows(tmp_path / "override.csv")
    assert rows == data_rows(tmp_path / "written.csv")
    assert {row.split(",")[0] for row in rows[1:]} == set(TWO_SECTIONS)
    assert main(["simulate", str(both), "-o", str(tmp_path / "own.csv")]) == 0
    assert data_rows(tmp_path / "own.csv") != rows


def test_simulate_bad_second_section_exits_2_and_leaves_no_worker(cache, tmp_path, capsys, recorded_experiments):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(f"[first]\n{TWO_SECTIONS['first']}\n[bad]\nn = 50\n")
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2
    assert "bad experiment section [bad]" in capsys.readouterr().err
    assert len(recorded_experiments) == 1
    assert multiprocessing.active_children() == []
    assert mc._pool is None


def test_simulate_entry_point_runs_and_leaves_no_process(cache, tmp_path):
    # the module run as a script: its __main__ guard and the spawned workers
    # that import it; the command runs in its own process group, which is
    # empty once the command and every process it started have ended
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[h2]\n" + TWO_SECTIONS["first"])
    out = tmp_path / "o.csv"
    paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.Popen([sys.executable, "-m", "stablegof.cli", "simulate", str(cfg), "-o", str(out)],
                            env=env, start_new_session=True)
    try:
        assert proc.wait(timeout=300) == 0
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            pytest.fail("a process of the command outlived it")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    rows = data_rows(out)
    assert rows[0] == "experiment,kind,n,alpha,kappa,xi,value,se,n_failures"
    assert [row.split(",")[:3] for row in rows[1:]] == [["h2", "critical", "20"]] * len(TEST_LEVELS)
