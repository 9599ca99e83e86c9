"""The harness's own test, at tiny sizes.

    python3 -m pytest -q bench/test_harness.py

Runs every workload shrunk by ``--scale tiny`` and checks the result line:
every metric BENCHMARK.json names is there, a perturbed reference trips the
correctness check, and the command refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, HERE)
import checks  # noqa: E402


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--scale", "tiny", "--seconds", "0", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def assert_metrics(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_appears(workload, tmp_path):
    code, result = run_bench("--workload", workload, "--references", str(tmp_path / "refs.json"))
    assert code == 0
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    code, result = run_bench(
        "--workload", "table_h1", "--trace", "1", "--references", str(tmp_path / "refs.json")
    )
    assert code == 0
    assert_metrics(result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.cached_spectrum.cold_hit_ratio"] == 0.0
    assert m["cli.cached_spectrum.warm_hit_ratio"] == 1.0
    assert m["estimators.fisher_info.misses"] >= 1
    assert m["estimators.fisher_info.warm_misses"] == 0
    assert m["stable_core.pdf_batch.calls"] == 0
    assert m["inversion.cdf_evals_per_quantile"] > 1
    assert m["cli.cache_bytes"] > 0


def test_perturbed_reference_trips_the_check(tmp_path):
    refs = tmp_path / "refs.json"
    args = ("--workload", "test_large_n", "--references", str(refs))
    assert run_bench(*args, "--write-references")[0] == 0
    code, result = run_bench(*args)
    assert code == 0 and result["correct"]

    data = json.loads(refs.read_text())
    data["test_large_n"]["outputs"]["d0"]["D1"] *= 1.0 + 1e-6
    refs.write_text(json.dumps(data))
    code, result = run_bench(*args)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "mc_null", "--seed", "1",
           "--seconds", "10", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_invariants_catch_misordered_quantiles():
    good = {"k1/xi0.1": 1.0, "k1/xi0.05": 2.0, "alpha_hat": 1.5}
    assert checks.invariants({"s": {"ops": 1, "values": good}}) == {}
    bad = dict(good, **{"k1/xi0.05": 0.5})
    assert "s" in checks.invariants({"s": {"ops": 1, "values": bad}})
    assert "s" in checks.invariants({"s": {"ops": 1, "values": dict(good, D1=float("nan"))}})
