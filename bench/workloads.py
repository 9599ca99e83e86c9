"""The four benchmark workloads: seeded inputs and one measured round each.

A round runs a workload's whole job once and returns

    sections   {name: wall seconds} of the timed parts
    attempted  operations tried, failed ones included
    failed     operations the program reported as failed
    outputs    {op_id: {"ops": k, "values": {field: number}}}

where an operation is a Monte Carlo replication attempt (mc_null), a table
cell (table_h1) or a dataset analysis (eise_pipeline, test_large_n).  Each
output group says how many operations produced it, so a group that misses
its reference check counts that many operations as failed.

Inputs come only from the workload seed.  Datasets are drawn here with the
Chambers-Mallows-Stuck formula rather than with the package's own sampler,
so a change to ``rand_stable`` cannot change the benchmark's inputs.
README.md explains why each workload exists and which layers it loads.
"""

import math
import os
import time

import numpy as np

import stablegof as sg
from stablegof import cli
from stablegof.errors import DataError, NonConvergenceError, NumericsError

FITTING = ("mc_null", "eise_pipeline", "test_large_n")

# Failures the program reports for one sample; the Monte Carlo loop redraws
# on the same set, and the dataset workloads follow that policy.
FIT_ERRORS = (NonConvergenceError, NumericsError, DataError)
MAX_DRAWS = 4

SIZES = {
    "full": {
        "mc_sections": {"heavy": (100, 0.8), "light": (200, 1.8)},
        "mc_kappas": "1, 2.5, 5",
        "table_alphas": "0.8,1.0,1.2,1.5,1.8,1.9",
        "table_kappas": "1.0,2.5,5.0,10.0",
        "nodes": 800,
        "eise_sets": ((100, 1.2), (100, 1.7)),
        "large_sets": ((5000, 0.9), (5000, 1.7)),
    },
    "tiny": {
        "mc_sections": {"heavy": (20, 0.8)},
        "mc_kappas": "2.5",
        "table_alphas": "1.5",
        "table_kappas": "2.5",
        "nodes": 100,
        "eise_sets": ((30, 1.5),),
        "large_sets": ((300, 1.5),),
    },
}
MC_REPLICATIONS = 100
EISE_WEIGHT = sg.WeightSpec("exp_power", 1.0, 1.5)
EISE_KAPPA = 2.5
LARGE_KAPPAS = (1.0, 2.5, 5.0, 10.0)
LARGE_LOC, LARGE_SCALE = 2.0, 3.0


def stable_sample(alpha, n, rng):
    """Standard symmetric stable draws, characteristic function exp(-|t|^alpha)."""
    v = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n)
    if alpha == 1.0:
        return np.tan(v)
    w = rng.exponential(1.0, n)
    return (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    )


def warm_up(workload):
    """The set-up a fitting workload pays once: the per-alpha density splines."""
    if workload in FITTING:
        sg.mle_fit(stable_sample(1.5, 20, np.random.default_rng(0)))


def _read_csv(path):
    """Data rows of a CLI output file, manifest comments and header skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def mc_null(seed, workdir, size, phase):
    """The ``simulate`` CLI on two null sections, MLE under H1."""
    cfg = os.path.join(workdir, "mc_null.ini")
    out = os.path.join(workdir, "mc_null.csv")
    sections = size["mc_sections"]
    with open(cfg, "w", encoding="utf-8") as fh:
        for i, (name, (n, alpha)) in enumerate(sections.items()):
            fh.write(
                f"[{name}]\nn = {n}\nalpha = {alpha}\nkappas = {size['mc_kappas']}\n"
                f"hypothesis = H1\nestimator = mle\nreplications = {MC_REPLICATIONS}\n"
                f"seed = {2 * seed + i}\n\n"
            )
    reps = MC_REPLICATIONS * len(sections)
    t0 = time.perf_counter()
    code = cli.main(["simulate", cfg, "-o", out])
    wall = time.perf_counter() - t0
    if code != 0:
        return {"sections": {"simulate": wall}, "attempted": reps, "failed": reps, "outputs": {}}
    outputs = {name: {"ops": MC_REPLICATIONS, "values": {}} for name in sections}
    redraws = {}
    for name, _kind, _n, _a, kappa, xi, value, _se, n_fail in _read_csv(out):
        outputs[name]["values"][f"k{float(kappa):g}/xi{float(xi):g}"] = float(value)
        redraws[name] = int(n_fail)
    failed = sum(redraws.values())
    return {
        "sections": {"simulate": wall},
        "attempted": reps + failed,
        "failed": failed,
        "outputs": outputs,
    }


def table_h1(seed, workdir, size, phase):
    """The ``table`` CLI into an empty spectrum cache (cold), then again (warm).

    The table grid is fixed, so this workload is the same at every seed.
    """
    out = os.path.join(workdir, "table_h1.csv")
    argv = [
        "table", "--hypothesis", "H1", "--nodes", str(size["nodes"]),
        "--alphas", size["table_alphas"], "--kappas", size["table_kappas"], "-o", out,
    ]
    n_cells = len(size["table_alphas"].split(",")) * len(size["table_kappas"].split(","))
    sections, outputs = {}, {}
    for name in ("cold", "warm"):
        phase(name)
        t0 = time.perf_counter()
        cli.main(argv)
        sections[name] = time.perf_counter() - t0
        for alpha, kappa, xi, value, bound in _read_csv(out):
            cell = outputs.setdefault(
                f"{name}/a{float(alpha):g}/k{float(kappa):g}", {"ops": 1, "values": {}}
            )
            cell["values"][f"q{float(xi):g}"] = float(value)
            cell["values"][f"bound{float(xi):g}"] = float(bound)
    # a cell the CLI could not compute writes no rows
    failed = 2 * n_cells - len(outputs)
    return {"sections": sections, "attempted": 2 * n_cells, "failed": failed, "outputs": outputs}


def _datasets(seed, sets, loc, scale, analyse):
    """Draw and analyse each dataset, redrawing from its stream when the fit fails."""
    wall, attempted, failed, outputs = 0.0, 0, 0, {}
    for i, (n, alpha) in enumerate(sets):
        rng = np.random.default_rng([seed, i])
        t0 = time.perf_counter()
        for _ in range(MAX_DRAWS):
            attempted += 1
            x = loc + scale * stable_sample(alpha, n, rng)
            try:
                values = analyse(x)
            except (*FIT_ERRORS, ValueError):
                failed += 1
                continue
            outputs[f"d{i}"] = {"ops": 1, "values": values}
            break
        wall += time.perf_counter() - t0
    return {"sections": {"datasets": wall}, "attempted": attempted, "failed": failed, "outputs": outputs}


def eise_pipeline(seed, workdir, size, phase):
    """EISE fit, its standard errors, D, the EISE kernel, its spectrum and a quantile."""

    def analyse(x):
        fit = sg.eise_fit(x, EISE_WEIGHT)
        alpha = fit.params.alpha
        em = sg.eise_matrices(alpha, EISE_WEIGHT)
        se = np.sqrt(np.diag(em.J) / x.size)
        d = sg.test_statistic(x, fit.params, EISE_KAPPA).statistic
        spec = sg.make_kernel("eise_h1", alpha, EISE_KAPPA, EISE_WEIGHT)
        sp = sg.build_spectrum(spec, size["nodes"])
        q = sg.quantile_dk(0.05, sg.default_inversion_config(sp))
        return {
            "alpha_hat": alpha,
            "sigma_hat": fit.params.sigma,
            "se_alpha": float(se[2]),
            "D": d,
            "q0.05": q,
        }

    return _datasets(seed, size["eise_sets"], 0.0, 1.0, analyse)


def test_large_n(seed, workdir, size, phase):
    """MLE fit and the statistic at four weights on large samples."""

    def analyse(x):
        fit = sg.mle_fit(x)
        values = {"alpha_hat": fit.params.alpha, "mu_hat": fit.params.mu}
        for kappa in LARGE_KAPPAS:
            values[f"D{kappa:g}"] = sg.test_statistic(x, fit.params, kappa).statistic
        return values

    return _datasets(seed, size["large_sets"], LARGE_LOC, LARGE_SCALE, analyse)


ROUNDS = {
    "mc_null": mc_null,
    "table_h1": table_h1,
    "eise_pipeline": eise_pipeline,
    "test_large_n": test_large_n,
}
