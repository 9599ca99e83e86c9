"""Command-line front end: estimate, test, table, simulate.

Exit codes: 0 success, 1 usage error, 2 input error, 3 numerical failure.
Stochastic commands take --seed; expensive spectra are cached on disk under
$STABLEGOF_CACHE (default ~/.cache/stablegof) keyed by kernel kind, alpha,
kappa, node count and a digest of the package's sources, so reruns are
bit-identical and a code change never reads an old entry.  Every output
file starts with a comment manifest recording the resolved parameters, the
seed and the cache entries used.  ``estimate`` (whose EISE weight is
exp(-nu |t|^bar_alpha), exp(-nu |t|) at bar_alpha = 1) prints asymptotic
standard errors from the fitted estimator's covariance: of mu, sigma and
alpha when alpha is free, of mu and sigma under --fix-alpha, and none when
alpha_hat is at its bound 2, then the optimizer's iteration count; it
prints only a converged fit, a fit that fails exits 3, and the MLE refuses
the EISE's --nu and --bar-alpha.  ``test`` computes its critical values
from the spectra it needs, as ``table`` does for a grid, and reads no
table file: the H1 cell at alpha_hat, the H2 cell at --alpha0 (a fixed
exponent is H2), or with --sup the largest H1 value over alpha in [A, B],
default [0.8, 1.9], which H2 refuses.  ``simulate`` runs every section of
its config on one pool of spawned worker processes
(``montecarlo.worker_pool``), so the workers start once per command, and
no worker outlives the command, whether it succeeds or fails; it refuses
an unknown section key.
"""

import argparse
import configparser
import dataclasses
import functools
import hashlib
import math
import os
import sys
import tempfile
import zipfile

import numpy as np
from scipy import optimize

from . import __version__
from .errors import DataError, NumericsError
from .estimators import WeightSpec, _covariance, eise_fit, mle_fit
from .ecf_test import test_statistic
from .inversion import _first_evaluable, cdf_dk_with_bound, default_inversion_config, quantile_dk
from .kernels import make_kernel
from .montecarlo import TEST_LEVELS, ExperimentConfig, power_study, simulate_critical, worker_pool
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
    if args.estimator == "mle" and (args.nu, args.bar_alpha) != (None, None):
        raise UsageError("--nu and --bar-alpha set the EISE weight; the MLE has none")
    x = read_column(args.input)
    weight = None
    if args.estimator == "mle":
        fit = mle_fit(x, fix_alpha=args.fix_alpha)
    else:
        bar = args.bar_alpha if args.bar_alpha is not None else args.fix_alpha or 1.5
        weight = WeightSpec("exp_power", 1.0 if args.nu is None else args.nu, bar)
        fit = eise_fit(x, weight, fix_alpha=args.fix_alpha)
    p = fit.params
    n = len(x)
    print(f"n            {n}")
    print(f"estimator    {args.estimator}")
    print(f"mu_hat       {p.mu:.6g}")
    print(f"sigma_hat    {p.sigma:.6g}")
    print(f"alpha_hat    {p.alpha:.6g}" + ("  (boundary)" if fit.boundary_alpha else ""))
    if fit.boundary_alpha:
        print("se            alpha at its bound 2: no asymptotic covariance reported")
    else:
        # the standard errors belong to the weight the fit used
        free = 3 if args.fix_alpha is None else 2
        _, J, _ = _covariance(p.alpha, free, weight)
        se = np.sqrt(np.diag(J) / n)
        print(f"se(mu_hat)    {p.sigma * se[0]:.6g}")
        print(f"se(sigma_hat) {p.sigma * se[1]:.6g}")
        if free == 3:
            print(f"se(alpha_hat) {se[2]:.6g}")
    print(f"iterations   {fit.n_iter}")
    print(f"objective    {fit.objective:.8g}")
    return 0


# ----------------------------------------------------------------------
# test
# ----------------------------------------------------------------------


# the node count of every cell `test` builds, and `table`'s default
_NODES = 800
# the range of a bare `test --sup`: the span of the paper's table grid
_SUP_RANGE = (0.8, 1.9)


def _check_kappas(kappas, text):
    if not all(1.0 <= k < math.inf for k in kappas):
        raise UsageError(f"critical values are computed for finite kappa >= 1 only, got {text}")


def _sup(q, lo, hi):
    """The maximum of q over [lo, hi].

    q is not monotone in alpha, so it is first taken on an even grid that
    holds both ends, with steps of at most 0.05; a bounded Brent search then
    refines the largest grid value over the grid steps on either side of it,
    to 1e-3 in alpha.  The result is never below any grid value.
    """
    grid = np.linspace(lo, hi, math.ceil((hi - lo) / 0.05) + 1)
    vals = [q(a) for a in grid]
    i = int(np.argmax(vals))
    bracket = (grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])
    res = optimize.minimize_scalar(lambda a: -q(a), bounds=bracket, method="bounded",
                                   options={"xatol": 1e-3})
    return max(vals[i], -res.fun)


def critical_values(kind, alpha, kappa, sup_range=None):
    """Asymptotic critical values of `test` at each level of ``TEST_LEVELS``.

    Without ``sup_range`` they are the quantiles of the ``kind`` cell
    (``mle_h1`` at the estimate, ``mle_h2`` at the fixed exponent) at
    ``alpha``.  With ``sup_range = (lo, hi)`` they are, at each level, the
    maximum of the ``kind`` quantile over alpha in [lo, hi] (see
    :func:`_sup`), and ``alpha`` is not read.  Every cell has ``_NODES``
    nodes and comes through :func:`cached_spectrum`.  Returns a dict from
    level to threshold and the inversion config of the one cell behind
    them, None under ``sup_range``.
    """
    @functools.cache
    def cell(a):
        return default_inversion_config(cached_spectrum(kind, a, kappa, _NODES)[0])

    if sup_range is None:
        cfg = cell(alpha)
        return {xi: quantile_dk(xi, cfg) for xi in TEST_LEVELS}, cfg
    return {xi: _sup(lambda a: quantile_dk(xi, cell(a)), *sup_range) for xi in TEST_LEVELS}, None


def _p_value(d, cfg):
    """1 - F(d) on the cell, as text.

    Where the series cannot evaluate F (deep in the left tail, F < 0.07 on
    the probed cells), a lower bound: '>' 1 - F at the first point
    max(d, E[D]/100) * 1.1^k, k < 60, where it can (``_first_evaluable``).
    """
    x, f = _first_evaluable(max(d, cfg.spectrum.trace_sum(cfg.m) / 100), 1.1, cfg)
    return f"{1.0 - f:.6g}" if x == d else f">{1.0 - f:.6g}"


def cmd_test(args):
    _check_kappas([args.kappa], args.kappa)
    # a fixed exponent is the H2 hypothesis; sup is an H1 method
    if args.alpha0 is not None and not (0 < args.alpha0 <= 2):
        raise UsageError(f"--alpha0 must lie in (0, 2], got {args.alpha0}")
    if args.sup is not None and args.alpha0 is not None:
        raise UsageError("--sup is an H1 method; under --alpha0 (H2) the alpha0 cell gives the values")
    sup = None if args.sup is None else tuple(args.sup) or _SUP_RANGE
    if sup and not (len(sup) == 2 and 0 < sup[0] < sup[1] < 2):
        raise UsageError(f"--sup takes no values or A B with 0 < A < B < 2, got {args.sup}")
    hypothesis = "H1" if args.alpha0 is None else "H2"
    x = read_column(args.input)
    fit = mle_fit(x, fix_alpha=args.alpha0)
    # only a free alpha reaches the boundary, so this is H1's plug-in
    if sup is None and fit.boundary_alpha:
        raise DataError(
            "alpha_hat is at the normal boundary 2, where H1 has no plug-in null law; "
            "test normality with --alpha0 2, or use --sup"
        )
    d = test_statistic(x, fit.params, args.kappa).statistic
    thresholds, cfg = critical_values(f"mle_{hypothesis.lower()}", fit.params.alpha, args.kappa, sup)

    lines = {
        "n": x.size,
        "hypothesis": hypothesis,
        "kappa": args.kappa,
        "mu_hat": f"{fit.params.mu:.6g}",
        "sigma_hat": f"{fit.params.sigma:.6g}",
        "alpha_hat": f"{fit.params.alpha:.6g}",
        "statistic": f"{d:.6g}",
    }
    if cfg is not None:
        lines["p_value"] = _p_value(d, cfg)
    for xi, thr in thresholds.items():
        lines[f"critical_{int(xi * 100)}"] = f"{thr:.6g}"
        lines[f"reject_{int(xi * 100)}"] = bool(d >= thr)
    if args.machine:
        for k, v in lines.items():
            print(f"{k}={v}")
    else:
        print(f"weighted-L2 stable GOF test ({hypothesis}, kappa={args.kappa:g}, n={x.size})")
        print(f"fit: mu={lines['mu_hat']} sigma={lines['sigma_hat']} alpha={lines['alpha_hat']}")
        print(f"statistic D = {d:.6g}")
        if cfg is not None:
            print(f"p-value {lines['p_value']}")
        for pct in (int(xi * 100) for xi in TEST_LEVELS):
            decision = "REJECT" if lines[f"reject_{pct}"] else "accept"
            print(f"{pct}% critical value {lines[f'critical_{pct}']} -> {decision}")
    return 0


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------


def cmd_table(args):
    alphas = [float(a) for a in args.alphas.split(",")]
    kappas = [float(k) for k in args.kappas.split(",")]
    _check_kappas(kappas, args.kappas)
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
    if text.strip() in ("", "none", "null"):
        return None
    parts = text.replace("(", " ").replace(")", " ").split()
    if len(parts) != 2:
        raise ValueError(f"alternative must be a kind and one parameter, got {text!r}")
    kind, par = parts
    return kind, math.inf if par == "infty" else float(par)


def _floats(text):
    return tuple(float(v) for v in text.split(","))


# the reader of each key a section may hold besides its thresholds
# critical_<kappa>_<xi>; a key the section lacks takes its ExperimentConfig
# default, and one without a default is required
_SECTION_READERS = {
    "n": int,
    "alpha": float,
    "kappas": _floats,
    "hypothesis": str,
    "estimator": str,
    "replications": int,
    "seed": int,
    "alternative": _parse_alternative,
    "xis": _floats,
}


def _experiment_from_section(sec):
    required = [f.name for f in dataclasses.fields(ExperimentConfig) if f.default is dataclasses.MISSING]
    missing = [key for key in required if key not in sec]
    if missing:
        raise DataError(f"missing required key(s): {', '.join(missing)}")
    # a misspelt key would otherwise run with its default; [DEFAULT] keys are in every section
    unknown = [key for key in sec if key not in _SECTION_READERS and not key.startswith("critical_")]
    if unknown:
        raise DataError(f"unknown key(s): {', '.join(unknown)}")
    return ExperimentConfig(**{key: read(sec[key]) for key, read in _SECTION_READERS.items() if key in sec})


def _section_rows(name, sec, seed):
    """Run one experiment section; its output rows."""
    try:
        config = _experiment_from_section(sec)
        crit = None if config.alternative is None else {
            (k, xi): sec.parser.getfloat(name, f"critical_{k:g}_{xi:g}")
            for k in config.kappas for xi in config.xis
        }
    except (ValueError, TypeError, configparser.Error) as exc:
        raise DataError(f"bad experiment section [{name}]: {exc}")
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    if crit is None:
        kind, res = "critical", simulate_critical(config)
    else:
        kind, res = "power", power_study(config, crit)
    return [
        (name, kind, config.n, config.alpha, k, xi, v, se, res.n_failures)
        for (k, xi), (v, se) in sorted(res.values.items())
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
        for name, kind, n, a, k, xi, v, se, nf in out_rows:
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

    q = sub.add_parser("estimate", help="fit (mu, sigma, alpha) to a data file",
                       description="Standard errors: of mu, sigma and alpha when alpha is free, of mu "
                       "and sigma under --fix-alpha, none when alpha_hat is at its bound 2. "
                       "'iterations' counts the L-BFGS-B iterations of the fit, which has "
                       "converged; a fit that does not converge exits 3.")
    q.add_argument("input")
    q.add_argument("--estimator", choices=("mle", "eise"), default="mle")
    q.add_argument("--fix-alpha", type=float, default=None)
    q.add_argument("--nu", type=float, default=None, help="EISE weight exp(-nu|t|^bar_alpha), default 1")
    q.add_argument("--bar-alpha", type=float, default=None,
                   help="in (0, 2], 1 for exp(-nu|t|); default --fix-alpha, else 1.5")
    q.set_defaults(func=cmd_estimate)

    q = sub.add_parser("test", help="run the goodness-of-fit test on a data file",
                       usage="%(prog)s [-h] input --kappa KAPPA [--alpha0 ALPHA0] [--sup [A B]] [--machine]",
                       description=f"Critical values come from {_NODES}-node spectra; no table is read. "
                       "Give the input file first: --sup takes optional values.")
    q.add_argument("input")
    q.add_argument("--kappa", type=float, required=True, help="weight exp(-kappa|t|), kappa >= 1")
    q.add_argument("--alpha0", type=float, default=None,
                   help="test H2, the exponent fixed at alpha0 in (0, 2]; without it H1, alpha estimated")
    q.add_argument("--sup", type=float, nargs="*", default=None, metavar="A B",
                   help="H1: the largest critical value over alpha in [A, B], 0 < A < B < 2, default "
                   "[%g, %g]; without it the value at alpha_hat, with a p-value" % _SUP_RANGE)
    q.add_argument("--machine", action="store_true", help="key=value output")
    q.set_defaults(func=cmd_test)

    q = sub.add_parser("table", help="compute asymptotic critical-value tables")
    q.add_argument("--alphas", required=True, help="comma list, e.g. 1.0,1.5,1.8")
    q.add_argument("--kappas", required=True, help="comma list, e.g. 1.0,2.5,5.0,10.0")
    q.add_argument("--hypothesis", choices=("H1", "H2"), default="H1")
    q.add_argument("--nodes", type=int, default=_NODES)
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
