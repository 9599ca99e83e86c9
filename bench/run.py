"""Run one stablegof benchmark workload and print its metrics.

    python3 bench/run.py --workload mc_null [--seed 2006] [--seconds 10] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src`` directory.  Each measured round, and each extra
set-up probe, runs in a fresh interpreter started one after another, so the
workload itself has no worker threads or processes.  The spectrum cache of
every round is a fresh directory under ``.bench_tmp``, removed at exit.

With ``--trace 0`` the command runs three set-up probes, then rounds until
``--seconds`` have passed (at least one), and reports every end-to-end
metric of BENCHMARK.json.  With ``--trace 1`` it runs one plain round and
one traced round and reports every per-layer metric, with the per-span
table.  Either way the outputs are checked (see checks.py); the last line of
standard output is one JSON object, and the exit code is 1 when a check
failed.  README.md documents the workloads, the metrics and the seeds.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEFAULT_SEED = 2006  # the seed the stored references were made with
VALIDATION_SEED = 602346  # a second seed for checking claims made at the first
SETUP_PROBES = 3
DEADLINE_S = 170.0
USAGE, BROKEN = 2, 3


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed; check claims at {DEFAULT_SEED} and again at {VALIDATION_SEED}")
    p.add_argument("--seconds", type=float, default=10.0, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload, for the harness's own test")
    p.add_argument("--references", default=os.path.join(HERE, "references.json"))
    p.add_argument("--write-references", action="store_true",
                   help="store this run's outputs as the workload's reference")
    return p


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts the worker processes of one benchmark run, one at a time."""

    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def child(self, setup_only=False, trace=False, layer_metrics=()):
        self.count += 1
        tag = f"c{self.count}"
        result = os.path.join(self.tmp, tag + ".json")
        cmd = [
            sys.executable, WORKER,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--scale", self.args.scale,
            "--workdir", os.path.join(self.tmp, tag),
            "--result", result,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", "--layer-metrics", ",".join(layer_metrics)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed(f"out of time after {self.count - 1} worker runs")
        try:
            # child output goes to stderr so the last stdout line stays ours
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"worker {tag} exceeded the {DEADLINE_S:.0f} s budget")
        if proc.returncode != 0:
            raise ChildFailed(f"worker {tag} exited with code {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "stablegof")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(versions):
    env = {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
    }
    env.update(versions)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _check_round(rnd, args, references, problems):
    """Fold the reference or invariant check into a round; return its good ops."""
    bad, missing, used = checks.check(args.workload, rnd["outputs"], args.seed, args.scale, references)
    for op, msg in bad.items():
        problems.append(f"{op}: {msg}")
    for op in sorted(missing):
        problems.append(f"{op}: no output (reference expects one)")
    bad_ops = sum(rnd["outputs"][op]["ops"] for op in bad)
    rnd["failed"] += bad_ops
    produced = sum(g["ops"] for g in rnd["outputs"].values())
    return produced - bad_ops, used


def _run(args, spec, tmp):
    runner = Runner(args, tmp)
    references = {}
    if os.path.isfile(args.references):
        with open(args.references, encoding="utf-8") as fh:
            references = json.load(fh)

    setups, rounds = [], []
    if args.trace:
        layer_names = [m["name"] for m in spec["per_layer"]]
        rounds.append(runner.child())
        rounds.append(runner.child(trace=True, layer_metrics=layer_names))
    else:
        setups = [runner.child(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(runner.child())

    problems, rates, used_ref = [], [], False
    # outputs being stored as the new reference are checked on invariants only
    checked_against = {} if args.write_references else references
    for rnd in rounds:
        good, used_ref = _check_round(rnd, args, checked_against, problems)
        rates.append(good / sum(rnd["sections"].values()))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if args.trace:
        plain, traced = rounds
        wall = sum(plain["sections"].values())
        values = dict(traced["layers"])
        values["process.cpu_s"] = plain["cpu_s"]
        values["process.cpu_util"] = plain["cpu_s"] / (wall * len(os.sched_getaffinity(0)))
        values["trace.overhead_ratio"] = sum(traced["sections"].values()) / wall - 1.0
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
            "success_ratio": 1.0 - failed / attempted,
            "ops_per_s": statistics.median(rates),
        }
        wanted = spec["end_to_end"]

    if args.write_references:
        references[args.workload] = {
            "seed": args.seed,
            "scale": args.scale,
            "outputs": {op: g["values"] for op, g in rounds[0]["outputs"].items()},
        }
        with open(args.references, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} rounds={len(rounds)} setup_probes={len(setups)}")
    print("# env " + json.dumps(environment(rounds[0]["versions"]), sort_keys=True))
    for i, rnd in enumerate(rounds):
        walls = " ".join(f"{k}={v:.3f}s" for k, v in rnd["sections"].items())
        print(f"# round {i}: {walls} attempted={rnd['attempted']} failed={rnd['failed']} "
              f"cpu={rnd['cpu_s']:.2f}s rss={rnd['rss_mb']:.0f}MB")
    check = "reference" if used_ref else "invariants"
    print(f"# check ({check}): " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    for msg in problems:
        print(f"#   {msg}")
    if args.trace:
        print("# spans of the traced round: phase span calls total_s self_s counts")
        for phase, name, calls, total, self_s, counts in rounds[1]["spans"]:
            extra = " ".join(f"{k}={v:g}" for k, v in counts.items())
            print(f"#   {phase:5s} {name:32s} {calls:7d} {total:9.3f} {self_s:9.3f} {extra}")
    metrics = {}
    for m in wanted:
        v = float(values[m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:40s} {v:14.6g} {m['unit']:8s} ({m['better']} is better)")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stablegof", "__init__.py")):
        print(f"error: no package sources at {os.path.join(ROOT, 'src', 'stablegof')}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return USAGE
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return USAGE
    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        return _run(args, spec, tmp)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BROKEN
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
