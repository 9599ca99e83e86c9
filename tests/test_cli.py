"""Command-line interface: exit codes, file formats, determinism."""

import math
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from stablegof import cli
from stablegof import montecarlo as mc
from stablegof.cli import cached_spectrum, load_table, main, read_column
from stablegof.estimators import WeightSpec, eise_matrices, fisher_info
from stablegof.spectral import Spectrum
from stablegof.stable_core import rand_stable


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
    inv = np.linalg.inv(fisher_info(alpha_hat).matrix())
    want = math.sqrt(inv[2, 2] / 200)
    assert abs(float(fields["se(alpha_hat)"]) - want) < 1e-6


def test_estimate_eise_se_uses_the_fit_weight(cache, tmp_path, capsys):
    path = tmp_path / "x.txt"
    np.savetxt(path, rand_stable(1.0, 60, np.random.default_rng(8)))
    assert main(["estimate", str(path), "--estimator", "eise"]) == 0
    fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
    alpha_hat = float(fields["alpha_hat"].split()[0])
    # without --bar-alpha the fit weight is exp_power(nu, 1.5), not exp_power(nu, alpha_hat)
    j = eise_matrices(alpha_hat, WeightSpec("exp_power", 1.0, 1.5)).J
    assert float(fields["se(alpha_hat)"]) == pytest.approx(math.sqrt(j[2, 2] / 60), rel=1e-5)

    assert main(["estimate", str(path), "--estimator", "eise", "--fix-alpha", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "no asymptotic covariance reported" in out
    assert "se(alpha_hat)" not in out


def test_estimate_input_failures(cache, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["estimate", str(empty)]) == 2
    const = tmp_path / "const.txt"
    const.write_text("1.0\n" * 60)
    assert main(["estimate", str(const)]) == 2
    assert main(["estimate", str(tmp_path / "missing.txt")]) == 2


def test_usage_errors(cache, cauchy_file):
    assert main(["test", str(cauchy_file), "--kappa", "2.5", "--hypothesis", "H2"]) == 1
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
    table = load_table(out)
    assert table.values.shape == table.bounds.shape == (1, 1, 2)
    assert np.all(np.isfinite(table.values))


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

    table = load_table(out1)
    assert set(np.round(table.alphas, 3)) == {0.9, 1.0, 1.1}
    assert table.values.shape == table.bounds.shape == (3, 1, 2)
    assert np.all(np.isfinite(table.values))
    # table round-trips through its own text format
    again = load_table(out1)
    np.testing.assert_allclose(again.values, table.values)

    capsys.readouterr()
    code = main([
        "test", str(cauchy_file), "--kappa", "2.5", "--tables", str(out1), "--machine",
    ])
    assert code == 0
    fields = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert fields["reject_10"] == "False"  # Cauchy data fit the stable family
    assert float(fields["statistic"]) > 0


def test_paired_h2_cell_table_and_test(cache, cauchy_file, tmp_path, capsys):
    # at alpha = 1 the mle_h2 spectrum is paired: the exponential-sum route
    out = tmp_path / "h2.csv"
    argv = ["table", "--hypothesis", "H2", "--alphas", "1.0", "--kappas", "2.5",
            "--nodes", "800", "-o", str(out)]
    assert main(argv) == 0
    table = load_table(out)
    got = dict(zip(np.round(table.xis, 2), table.values[0, 0]))
    # references of tests/test_inversion.py::test_paired_h2_cauchy_quantiles
    assert got[0.10] == pytest.approx(0.2856105048, rel=1e-9, abs=0.0)
    assert got[0.05] == pytest.approx(0.3349875548, rel=1e-9, abs=0.0)

    capsys.readouterr()
    code = main([
        "test", str(cauchy_file), "--hypothesis", "H2", "--alpha0", "1.0", "--kappa", "2.5",
        "--tables", str(out), "--machine",
    ])
    assert code == 0
    fields = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert fields["critical_10"] == "0.285611"
    assert fields["critical_5"] == "0.334988"


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


def test_test_without_tables_is_input_error(cache, cauchy_file, tmp_path, capsys):
    assert main(["test", str(cauchy_file), "--kappa", "2.5"]) == 2
    err = capsys.readouterr().err
    assert "stablegof table" in err
    # the missing table is reported before the sample is read
    assert main(["test", str(tmp_path / "missing.txt"), "--kappa", "2.5"]) == 2
    assert "stablegof table" in capsys.readouterr().err


def test_test_has_no_estimator_option(cauchy_file, capsys):
    # the tables hold MLE critical values only, so test fits by MLE
    assert main(["test", str(cauchy_file), "--kappa", "2.5", "--estimator", "eise"]) == 1
    assert "unrecognized arguments: --estimator" in capsys.readouterr().err


def test_test_missing_cell_mentions_table_command(cache, cauchy_file, tmp_path, capsys):
    out = tmp_path / "t.csv"
    args = ["table", "--alphas", "0.9,1.0,1.1", "--kappas", "2.5", "--nodes", "200", "-o", str(out)]
    assert main(args) == 0
    code = main(["test", str(cauchy_file), "--kappa", "5.0", "--tables", str(out)])
    assert code == 2


HAND_TABLE = (
    "# stablegof run manifest\n"
    "# hypothesis=H1\n"
    "# hypothesis=H1\n"
    "alpha,kappa,xi,critical_value,series_bound\n"
    "1.0,2.5,0.1,0.05,1e-06\n"
    "1.0,2.5,0.05,0.07,1e-06\n"
    "2.0,2.5,0.1,0.01,1e-06\n"
    "2.0,2.5,0.05,0.02,1e-06\n"
)


def test_test_refuses_table_of_other_hypothesis(cache, cauchy_file, tmp_path, capsys):
    table = tmp_path / "h1.csv"
    table.write_text(HAND_TABLE)
    # a table with the manifest line and the older second line still parses
    assert load_table(table).hypothesis == "H1"
    code = main([
        "test", str(cauchy_file), "--kappa", "2.5", "--hypothesis", "H2",
        "--alpha0", "1.5", "--tables", str(table),
    ])
    assert code == 2
    assert "H1 critical values" in capsys.readouterr().err


def test_sup_range_without_alpha_range_exits_1_before_the_fit(cache, cauchy_file, tmp_path, monkeypatch, capsys):
    table = tmp_path / "h1.csv"
    table.write_text(HAND_TABLE)

    def no_fit(*args, **kwargs):
        raise AssertionError("the sample was fitted")

    monkeypatch.setattr(cli, "mle_fit", no_fit)
    code = main(["test", str(cauchy_file), "--kappa", "2.5", "--tables", str(table), "--method", "sup_range"])
    assert code == 1
    assert "--alpha-range" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_test_refuses_a_non_finite_kappa(cache, cauchy_file, tmp_path, capsys, kappa):
    table = tmp_path / "h1.csv"
    table.write_text(HAND_TABLE)
    assert main(["test", str(cauchy_file), "--kappa", kappa, "--tables", str(table)]) == 1
    captured = capsys.readouterr()
    assert "finite and positive" in captured.err
    assert "statistic" not in captured.out


@pytest.mark.parametrize(
    "extra,message",
    [
        ([], "outside tabulated range"),
        (["--method", "sup_range", "--alpha-range", "0.9", "1.2"], "no tabulated alpha"),
    ],
    ids=["plugin", "sup_range"],
)
def test_alpha_outside_the_table_is_input_error(cache, cauchy_file, tmp_path, capsys, extra, message):
    # the Cauchy sample's alpha-hat is near 1, below the table's alphas 1.5 and 1.8
    table = tmp_path / "h1.csv"
    table.write_text(HAND_TABLE.replace("\n1.0,", "\n1.5,").replace("\n2.0,", "\n1.8,"))
    assert main(["test", str(cauchy_file), "--kappa", "2.5", "--tables", str(table), *extra]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "critical value" not in captured.out


def test_malformed_table_row_is_input_error(cache, cauchy_file, tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("alpha,kappa,xi,critical_value,series_bound\n1.0,2.5,0.1,oops,1e-06\n")
    assert main(["test", str(cauchy_file), "--kappa", "2.5", "--tables", str(table)]) == 2
    err = capsys.readouterr().err
    assert str(table) in err and "oops" in err


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
    ["alpha = 2.5\n", "alpha = 1.5\nalternative = normal\n", "alpha = 1.5\nalternative = normal x\n"],
    ids=["alpha_above_2", "alternative_without_parameter", "non_numeric_parameter"],
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


TWO_SECTIONS = {
    "first": "n = 20\nalpha = 1.5\nkappas = 2.5\nhypothesis = H2\nreplications = 100\nseed = 3\n",
    "second": "n = 20\nalpha = 1.2\nkappas = 1, 2.5\nhypothesis = H2\nreplications = 100\nseed = 4\n",
}


def data_rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


@pytest.fixture()
def recorded_experiments(monkeypatch):
    """Each simulate_critical the CLI runs: the pool open around it and its statistics."""
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
        assert together.keys() == apart.keys()
        assert all(np.array_equal(together[k], apart[k]) for k in together)
    assert multiprocessing.active_children() == []


def test_simulate_bad_second_section_exits_2_and_leaves_no_worker(cache, tmp_path, capsys, recorded_experiments):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(f"[first]\n{TWO_SECTIONS['first']}\n[bad]\nn = 50\n")
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2
    assert "bad experiment section [bad]" in capsys.readouterr().err
    assert len(recorded_experiments) == 1
    assert multiprocessing.active_children() == []
    assert mc._pool is None
