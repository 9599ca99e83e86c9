"""Every workload of the benchmark meets its stored references.

``bench/checks.py`` compares a round's outputs with ``bench/references.json``
to 1e-8 relative at the reference seed.  The EISE fit reacts to the last bits
of its objective, so a change to the density or the pair sums can move
``eise_pipeline``'s sigma_hat close to that tolerance, and a change to the
Monte Carlo summaries would move ``mc_null``'s critical values; these tests
run every workload at full size and the reference seed, about a second per
round (``mc_null`` about 3.5 s, on its worker processes).
"""

import importlib.util
import json
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
REFERENCE_SEED = 2006


def load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(BENCH, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    return load("workloads"), load("checks"), references


@pytest.mark.parametrize("workload", ["mc_null", "table_h1", "eise_pipeline", "test_large_n"])
def test_workload_meets_its_references(bench, workload, tmp_path, monkeypatch):
    workloads, checks, references = bench
    monkeypatch.setenv("STABLEGOF_CACHE", str(tmp_path / "cache"))
    out = workloads.ROUNDS[workload](REFERENCE_SEED, str(tmp_path), workloads.SIZES["full"], lambda name: None)
    bad, missing, used = checks.check(workload, out["outputs"], REFERENCE_SEED, "full", references)
    assert used
    assert bad == {} and missing == set()
    assert out["failed"] == 0
