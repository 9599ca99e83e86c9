"""Command-line front end: estimate, test, table, simulate.

Exit codes: 0 success, 1 usage error, 2 input error, 3 numerical failure.
Stochastic commands take --seed; expensive spectra are cached on disk under
$STABLEGOF_CACHE (default ~/.cache/stablegof) keyed by kernel kind, alpha,
kappa, node count and a digest of the package's sources, so reruns are
bit-identical and a code change never reads an old entry.  Every
output file starts with a comment manifest recording the resolved
parameters, the seed and the cache entries used.  ``simulate`` runs every
section of its config on one pool of spawned worker processes
(``montecarlo.worker_pool``), so the workers start once per command, and
no worker outlives the command, whether it succeeds or fails.
"""

import argparse
import configparser
import functools
import hashlib
import math
import os
import sys
import tempfile
import zipfile

import numpy as np

from . import __version__
from .errors import DataError, NumericsError
from .estimators import WeightSpec, eise_fit, eise_matrices, fisher_info, mle_fit
from .ecf_test import test_statistic
from .inversion import cdf_dk_with_bound, default_inversion_config, quantile_dk
from .kernels import make_kernel
from .montecarlo import (
    TEST_LEVELS,
    CriticalValueTable,
    ExperimentConfig,
    h1_decision,
    power_study,
    simulate_critical,
    worker_pool,
)
from .spectral import Spectrum, build_spectrum

USAGE_ERROR, INPUT_ERROR, NUMERICAL_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def read_column(path):
    """One numeric value per line; a single non-numeric first line is a header."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise DataError(f"{path} holds no data")
    start = 0
    try:
        float(lines[0].replace(",", " ").split()[0])
    except ValueError:
        start = 1
    vals = []
    for ln in lines[start:]:
        tok = ln.replace(",", " ").split()[0]
        try:
            vals.append(float(tok))
        except ValueError:
            raise DataError(f"non-numeric row in {path}: {ln!r}")
    if not vals:
        raise DataError(f"{path} holds no numeric rows")
    return np.asarray(vals)


def cache_dir():
    return os.environ.get(
        "STABLEGOF_CACHE", os.path.join(os.path.expanduser("~"), ".cache", "stablegof")
    )


@functools.cache
def _code_digest():
    """First 16 hex digits of the sha256 of every ``*.py`` in the package, by file name."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cached_spectrum(kind, alpha, kappa, n):
    """Load a spectrum from the cache, building and saving it when absent.

    The file name holds alpha and kappa at full precision (repr) and a
    digest of the package's sources, so distinct parameters never share an
    entry and an edit to any module never reads an entry of the old code; a
    new entry is written to a temporary file and renamed into place, so a
    reader never sees a half-written spectrum.  An entry that cannot be read
    (truncated, say, by a copy that did not finish) is a miss: the spectrum is
    rebuilt and the new entry replaces it.
    """
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    name = f"{kind}_a{float(alpha)!r}_k{float(kappa)!r}_N{n}_{_code_digest()}.npz"
    path = os.path.join(directory, name)
    if os.path.exists(path):
        try:
            return Spectrum.load(path), name
        except (OSError, EOFError, KeyError, ValueError, NotImplementedError, zipfile.BadZipFile):
            pass
    sp = build_spectrum(make_kernel(kind, alpha, kappa), n)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name, suffix=".tmp")
    os.close(fd)
    try:
        sp.save(tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return sp, name


def _manifest_lines(subcommand, params, spectra=()):
    lines = [
        "# stablegof run manifest",
        f"# version={__version__}",
        f"# subcommand={subcommand}",
    ]
    for key in sorted(params):
        lines.append(f"# {key}={params[key]}")
    for name in spectra:
        path = os.path.join(cache_dir(), name)
        stamp = int(os.path.getmtime(path)) if os.path.exists(path) else 0
        lines.append(f"# spectrum={name} created={stamp}")
    return lines


# ----------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------


def cmd_estimate(args):
    x = read_column(args.input)
    if args.estimator == "mle":
        fit = mle_fit(x, fix_alpha=args.fix_alpha)
    else:
        if args.weight_kind == "exp_abs":
            weight = WeightSpec("exp_abs", args.nu)
        else:
            bar = args.bar_alpha if args.bar_alpha is not None else args.fix_alpha or 1.5
            weight = WeightSpec("exp_power", args.nu, bar)
        fit = eise_fit(x, weight, fix_alpha=args.fix_alpha)
    p = fit.params
    n = len(x)
    print(f"n            {n}")
    print(f"estimator    {fit.estimator}")
    print(f"mu_hat       {p.mu:.6g}")
    print(f"sigma_hat    {p.sigma:.6g}")
    print(f"alpha_hat    {p.alpha:.6g}" + ("  (boundary)" if fit.boundary_alpha else ""))
    se = None
    if args.fix_alpha is None and fit.estimator == "mle" and p.alpha < 2.0:
        i11, i22, _, i33 = fisher_info(p.alpha).inverse_entries()
        se = np.sqrt(np.array([i11, i22, i33]) / n)
    elif args.fix_alpha is None and fit.estimator == "eise":
        # the standard errors belong to the weight the fit used
        se = np.sqrt(np.diag(eise_matrices(p.alpha, weight).J) / n)
    if se is None:
        print("se            boundary or fixed alpha: no asymptotic covariance reported")
    else:
        print(f"se(mu_hat)    {p.sigma * se[0]:.6g}")
        print(f"se(sigma_hat) {p.sigma * se[1]:.6g}")
        print(f"se(alpha_hat) {se[2]:.6g}")
    print(f"converged    {fit.converged} after {fit.n_iter} iterations")
    print(f"objective    {fit.objective:.8g}")
    return 0


# ----------------------------------------------------------------------
# test
# ----------------------------------------------------------------------


def load_table(path):
    rows = []
    hypothesis = "H1"
    try:
        with open(path, encoding="utf-8") as fh:
            for ln in fh:
                ln = ln.strip()
                if ln.startswith("#"):
                    if "hypothesis=" in ln:
                        hypothesis = ln.split("hypothesis=")[1].strip()
                    continue
                if not ln or ln.startswith("alpha"):
                    continue
                try:
                    a, k, xi, v, b = (float(tok) for tok in ln.split(","))
                except ValueError:
                    raise DataError(f"malformed table row in {path}: {ln!r}")
                rows.append((a, k, xi, v, b))
    except OSError as exc:
        raise DataError(f"cannot read table {path}: {exc}")
    if not rows:
        raise DataError(f"no table rows in {path}")
    return CriticalValueTable.from_rows(rows, hypothesis=hypothesis)


def cmd_test(args):
    if args.hypothesis == "H2" and args.alpha0 is None:
        raise UsageError("--alpha0 is required under H2")
    if args.hypothesis == "H1" and args.method == "sup_range" and args.alpha_range is None:
        raise UsageError("--method sup_range needs --alpha-range A B")
    if args.tables is None:
        raise DataError(
            "no critical-value table given; generate one with "
            "'stablegof table' and pass it via --tables"
        )
    table = load_table(args.tables)
    if table.hypothesis != args.hypothesis:
        raise DataError(
            f"{args.tables} holds {table.hypothesis} critical values, not "
            f"{args.hypothesis}; build one with 'stablegof table --hypothesis {args.hypothesis}'"
        )
    x = read_column(args.input)
    fit = mle_fit(x, fix_alpha=args.alpha0 if args.hypothesis == "H2" else None)
    out = test_statistic(x, fit.params, args.kappa)

    lines = {
        "n": out.n,
        "hypothesis": args.hypothesis,
        "kappa": out.kappa,
        "mu_hat": f"{fit.params.mu:.6g}",
        "sigma_hat": f"{fit.params.sigma:.6g}",
        "alpha_hat": f"{fit.params.alpha:.6g}",
        "statistic": f"{out.statistic:.6g}",
    }
    alpha_ref = args.alpha0 if args.hypothesis == "H2" else fit.params.alpha
    rng = tuple(args.alpha_range) if args.alpha_range else None
    try:
        for xi in TEST_LEVELS:
            dec = h1_decision(
                out.statistic,
                table,
                args.kappa,
                xi,
                method=args.method if args.hypothesis == "H1" else "plugin",
                alpha_hat=alpha_ref,
                alpha_range=rng,
            )
            lines[f"critical_{int(xi * 100)}"] = f"{dec.threshold:.6g}"
            lines[f"reject_{int(xi * 100)}"] = dec.reject
    except KeyError as exc:
        raise DataError(
            f"table lacks the needed cell ({exc}); regenerate with 'stablegof table'"
        )
    except ValueError as exc:
        # the checks above leave only an alpha outside the table's alpha grid
        raise DataError(f"table does not cover this test: {exc}")
    if args.machine:
        for k, v in lines.items():
            print(f"{k}={v}")
    else:
        print(f"weighted-L2 stable GOF test ({args.hypothesis}, kappa={out.kappa:g}, n={out.n})")
        print(
            f"fit: mu={fit.params.mu:.6g} sigma={fit.params.sigma:.6g} "
            f"alpha={fit.params.alpha:.6g}"
        )
        print(f"statistic D = {out.statistic:.6g}")
        for xi in TEST_LEVELS:
            pct = int(xi * 100)
            print(
                f"{pct}% critical value {lines[f'critical_{pct}']} -> "
                + ("REJECT" if lines[f"reject_{pct}"] else "accept")
            )
    return 0


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------


def cmd_table(args):
    alphas = [float(a) for a in args.alphas.split(",")]
    kappas = [float(k) for k in args.kappas.split(",")]
    if not all(1.0 <= k < math.inf for k in kappas):
        raise UsageError(f"critical-value tables support finite kappa >= 1 only, got {args.kappas}")
    if args.nodes < 16 or args.nodes % 2:
        raise UsageError(f"--nodes must be even and at least 16, got {args.nodes}")
    # H2 fixes alpha, so the normal endpoint has a kernel; H1 needs I(alpha) finite
    h2 = args.hypothesis == "H2"
    bad = [a for a in alphas if not (0 < a < 2 or (h2 and a == 2))]
    if bad:
        interval = "(0, 2]" if h2 else "(0, 2)"
        raise UsageError(f"{args.hypothesis} tables need alpha in {interval}, got {bad}")
    kind = "mle_h2" if h2 else "mle_h1"
    rows, spectra, failed = [], [], []
    for alpha in alphas:
        for kappa in kappas:
            try:
                sp, name = cached_spectrum(kind, alpha, kappa, args.nodes)
                spectra.append(name)
                cfg = default_inversion_config(sp)
                for xi in TEST_LEVELS:
                    q = quantile_dk(xi, cfg)
                    _, bound = cdf_dk_with_bound(q, cfg)
                    rows.append((alpha, kappa, xi, q, bound))
            except (NumericsError, ValueError) as exc:
                failed.append((alpha, kappa, str(exc)))
    params = {
        "alphas": args.alphas,
        "kappas": args.kappas,
        "hypothesis": args.hypothesis,
        "nodes": args.nodes,
        "partial": bool(failed),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        for ln in _manifest_lines("table", params, spectra):
            fh.write(ln + "\n")
        fh.write("alpha,kappa,xi,critical_value,series_bound\n")
        for a, k, xi, v, b in rows:
            fh.write(f"{a:.10g},{k:.10g},{xi:.10g},{v:.10g},{b:.10g}\n")
    for a, k, msg in failed:
        print(f"cell (alpha={a}, kappa={k}) failed: {msg}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.output}" + (" (PARTIAL)" if failed else ""))
    return NUMERICAL_ERROR if failed else 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _parse_alternative(text):
    if text is None or text.strip() in ("", "none", "null"):
        return None
    parts = text.replace("(", " ").replace(")", " ").split()
    if len(parts) != 2:
        raise ValueError(f"alternative must be a kind and one parameter, got {text!r}")
    kind = parts[0]
    if kind == "student_t":
        par = math.inf if parts[1] in ("inf", "infty") else float(parts[1])
    else:
        par = float(parts[1])
    return (kind, par)


def _experiment_from_section(sec):
    missing = [key for key in ("n", "alpha", "kappas") if key not in sec]
    if missing:
        raise DataError(f"missing required key(s): {', '.join(missing)}")
    alt = _parse_alternative(sec.get("alternative", fallback=None))
    return ExperimentConfig(
        n=sec.getint("n"),
        alpha=sec.getfloat("alpha"),
        kappas=tuple(float(k) for k in sec.get("kappas").split(",")),
        hypothesis=sec.get("hypothesis", "H1"),
        estimator=sec.get("estimator", "mle"),
        replications=sec.getint("replications", 2000),
        seed=sec.getint("seed", 0),
        alternative=alt,
        xis=tuple(float(v) for v in sec["xis"].split(",")) if "xis" in sec else TEST_LEVELS,
    )


def _section_rows(name, sec, seed):
    """Run one experiment section; its output rows."""
    try:
        config = _experiment_from_section(sec)
    except (ValueError, TypeError, configparser.Error) as exc:
        raise DataError(f"bad experiment section [{name}]: {exc}")
    if seed is not None:
        config = ExperimentConfig(**{**config.__dict__, "seed": seed})
    if config.alternative is None:
        res = simulate_critical(config)
        return [
            (name, "critical", config.n, config.alpha, k, xi, q, se, res.n_failures)
            for (k, xi), (q, se) in sorted(res.quantiles.items())
        ]
    crit = {}
    for k in config.kappas:
        for xi in config.xis:
            key = f"critical_{k:g}_{xi:g}"
            if key not in sec:
                raise DataError(
                    f"[{name}] needs {key} (threshold for kappa={k:g}, xi={xi:g})"
                )
            crit[(k, xi)] = sec.getfloat(key)
    res = power_study(config, crit)
    return [
        (name, "power", config.n, config.alpha, k, xi, p, se, res.n_failures)
        for (k, xi), (p, se) in sorted(res.rates.items())
    ]


def cmd_simulate(args):
    parser = configparser.ConfigParser()
    try:
        with open(args.config, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {args.config}: {exc}")
    except configparser.Error as exc:
        raise DataError(f"bad config {args.config}: {exc}")
    if not parser.sections():
        raise DataError("config defines no experiment sections")
    out_rows = []
    # one pool for every section: later sections reuse the started workers
    with worker_pool():
        for name in parser.sections():
            out_rows += _section_rows(name, parser[name], args.seed)
    params = {"config": os.path.abspath(args.config), "seed": args.seed if args.seed is not None else "per-section"}
    with open(args.output, "w", encoding="utf-8") as fh:
        for ln in _manifest_lines("simulate", params):
            fh.write(ln + "\n")
        fh.write("experiment,kind,n,alpha,kappa,xi,value,se,n_failures\n")
        for row in out_rows:
            name, kind, n, a, k, xi, v, se, nf = row
            fh.write(f"{name},{kind},{n},{a:.10g},{k:.10g},{xi:.10g},{v:.10g},{se:.10g},{nf}\n")
    print(f"wrote {len(out_rows)} rows to {args.output}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


class UsageError(Exception):
    pass


def build_parser():
    p = _Parser(prog="stablegof", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("estimate", help="fit (mu, sigma, alpha) to a data file")
    q.add_argument("input")
    q.add_argument("--estimator", choices=("mle", "eise"), default="mle")
    q.add_argument("--fix-alpha", type=float, default=None)
    q.add_argument("--weight-kind", choices=("exp_abs", "exp_power"), default="exp_power")
    q.add_argument("--nu", type=float, default=1.0)
    q.add_argument("--bar-alpha", type=float, default=None)
    q.set_defaults(func=cmd_estimate)

    q = sub.add_parser("test", help="run the goodness-of-fit test on a data file")
    q.add_argument("input")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--hypothesis", choices=("H1", "H2"), default="H1")
    q.add_argument("--alpha0", type=float, default=None)
    q.add_argument("--tables", default=None, help="critical-value table from 'stablegof table'")
    q.add_argument("--method", choices=("plugin", "sup_all", "sup_range"), default="plugin")
    q.add_argument("--alpha-range", type=float, nargs=2, default=None)
    q.add_argument("--machine", action="store_true", help="key=value output")
    q.set_defaults(func=cmd_test)

    q = sub.add_parser("table", help="compute asymptotic critical-value tables")
    q.add_argument("--alphas", required=True, help="comma list, e.g. 1.0,1.5,1.8")
    q.add_argument("--kappas", required=True, help="comma list, e.g. 1.0,2.5,5.0,10.0")
    q.add_argument("--hypothesis", choices=("H1", "H2"), default="H1")
    q.add_argument("--nodes", type=int, default=800)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_table)

    q = sub.add_parser("simulate", help="run Monte Carlo experiments from a config file")
    q.add_argument("config")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--seed", type=int, default=None, help="override every section seed")
    q.set_defaults(func=cmd_simulate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
