"""One set-up, and optionally one round of a workload, in a fresh interpreter.

Started by run.py, one process at a time; writes its result as JSON to the
path given by ``--result``.  Set-up is timed from just before the package
import to the end of the warm-up fit that fitting workloads pay once.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--layer-metrics", default="", help="comma list of per-layer metrics to report")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import stablegof.cli  # noqa: F401  (the import is what set-up times)

    import workloads

    workloads.warm_up(args.workload)
    result = {"setup_s": time.perf_counter() - t0}

    if not args.setup_only:
        os.makedirs(args.workdir, exist_ok=True)
        cache = os.path.join(args.workdir, "cache")
        os.environ["STABLEGOF_CACHE"] = cache
        tracer = None
        phase = lambda name: None  # noqa: E731
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            phase = tracer.phase
        cpu0 = os.times()
        try:
            out = workloads.ROUNDS[args.workload](
                args.seed, args.workdir, workloads.SIZES[args.scale], phase
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu1 = os.times()
        result.update(out)
        result["versions"] = _versions()
        result["cpu_s"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        if tracer is not None:
            names = [m for m in args.layer_metrics.split(",") if m]
            result["layers"] = {m: tracing.layer_metric(tracer, m) for m in names if _traced(m)}
            result["layers"]["cli.cache_bytes"] = _dir_bytes(cache)
            result["spans"] = tracer.table()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def _traced(metric):
    """Per-layer metrics the tracer answers; run.py fills in the process ones."""
    return not metric.startswith(("process.", "trace.", "cli.cache_bytes"))


def _dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


if __name__ == "__main__":
    sys.exit(main())
