"""Per-layer spans recorded from outside the package.

The tracer replaces each traced function at every module attribute of the
``stablegof`` package that refers to it (so ``estimators.pdf_batch``,
``montecarlo.mle_fit``, ``cli.make_kernel`` and the package namespace
all see the wrapper), and restores the originals on ``uninstall``.  Every
call is a span with a parent span; a span's self time is its duration minus
the durations of its direct child spans.  Spans are folded into per-phase
statistics as they close, so memory stays flat on long runs.
"""

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "stablegof"


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(float)


class _Frame:
    __slots__ = ("name", "child_s", "hit")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.hit = False


# hooks see (tracer, stat, frame, bound arguments or None, result)


def _points(tr, st, frame, args, result):
    st.counts["points"] += np.size(args["x"])


def _far(tr, st, frame, args, result):
    ay = np.abs(np.asarray(args["y"], dtype=float))
    st.counts["points"] += ay.size
    st.counts["far"] += np.count_nonzero(ay > args["ysplit"])


def _iters(tr, st, frame, args, result):
    st.counts["iters"] += result.n_iter


def _dropped(tr, st, frame, args, result):
    st.counts["dropped"] += result.n_dropped


def _cdf_eval(tr, st, frame, args, result):
    if tr.inside("inversion.quantile_dk"):
        st.counts["in_quantile"] += 1


def _load(tr, st, frame, args, result):
    for f in reversed(tr.stack):
        if f.name == "cli.cached_spectrum":
            f.hit = True
            break


def _cache_hit(tr, st, frame, args, result):
    st.counts["hits"] += frame.hit


# (module, attribute, hook, hook needs bound arguments)
TARGETS = (
    ("stable_core", "pdf_batch", _points, True),
    ("_fourier", "cos_transforms", _far, True),
    ("_fourier", "envelope_moment", None, False),
    ("estimators", "mle_fit", _iters, False),
    ("estimators", "eise_fit", _iters, False),
    ("estimators", "q_objective", None, False),
    ("estimators", "eise_matrices", None, False),
    ("estimators", "fisher_info", None, False),
    ("ecf_test", "test_statistic", None, False),
    ("kernels", "make_kernel", None, False),
    ("spectral", "discretize", None, False),
    ("spectral", "eigen_spectrum", _dropped, False),
    ("spectral", "Spectrum.save", None, False),
    ("spectral", "Spectrum.load", _load, False),
    ("cli", "cached_spectrum", _cache_hit, False),
    ("inversion", "quantile_dk", None, False),
    ("inversion", "cdf_dk_with_bound", _cdf_eval, False),
    ("montecarlo", "draw_alternative", None, False),
    ("montecarlo", "simulate_critical", None, False),
)


class Tracer:
    def __init__(self):
        self.stats = {}  # (phase, span name) -> Stat
        self.stack = []
        self.phase_name = "run"
        self._restore = []
        self._gauges = {}  # counter -> (cache_info of an lru_cache, misses at phase start)

    def inside(self, name):
        return any(f.name == name for f in self.stack)

    def stat(self, name):
        key = (self.phase_name, name)
        if key not in self.stats:
            self.stats[key] = Stat()
        return self.stats[key]

    def phase(self, name):
        """Attribute later spans, and gauge deltas from here on, to ``name``."""
        self._close_gauges()
        self.phase_name = name

    def _close_gauges(self):
        for name, (cache_info, start) in list(self._gauges.items()):
            now = cache_info().misses
            span, counter = name.rsplit(".", 1)
            self.stat(span).counts[counter] += now - start
            self._gauges[name] = (cache_info, now)

    def _wrap(self, name, fn, hook, bind):
        sig = inspect.signature(fn) if bind else None

        def traced(*args, **kwargs):
            frame = _Frame(name)
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1].child_s += dur
                st = self.stat(name)
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame.child_s
            if hook is not None:
                bound = None
                if bind:
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    bound = ba.arguments
                hook(self, st, frame, bound, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, attr, hook, bind in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._wrap(name, fn, hook, bind)
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, hook, bind)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))
            if hasattr(orig, "cache_info"):
                self._gauges[f"{name}.misses"] = (orig.cache_info, orig.cache_info().misses)

    def uninstall(self):
        self._close_gauges()
        self._gauges.clear()
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def table(self):
        """Rows (phase, span, calls, total_s, self_s, counts) in first-seen order."""
        return [
            (phase, name, st.calls, st.total_s, st.self_s, dict(st.counts))
            for (phase, name), st in self.stats.items()
            if st.calls or any(st.counts.values())
        ]

    def totals(self, name, phase=None):
        """Stat of one span summed over phases, or of one phase."""
        out = Stat()
        for (ph, nm), st in self.stats.items():
            if nm == name and (phase is None or ph == phase):
                out.calls += st.calls
                out.total_s += st.total_s
                out.self_s += st.self_s
                for k, v in st.counts.items():
                    out.counts[k] += v
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metric(tracer, metric):
    """Value of a per-layer metric named ``<module>.<function>.<stat>``."""
    if metric == "inversion.cdf_evals_per_quantile":
        evals = tracer.totals("inversion.cdf_dk_with_bound").counts["in_quantile"]
        return _ratio(evals, tracer.totals("inversion.quantile_dk").calls)
    span, stat = metric.rsplit(".", 1)
    phase = None
    for prefix in ("cold", "warm"):
        if stat.startswith(prefix + "_"):
            phase, stat = prefix, stat[len(prefix) + 1 :]
    st = tracer.totals(span, phase)
    if stat in ("calls", "total_s", "self_s"):
        return getattr(st, stat)
    if stat == "far_share":
        return _ratio(st.counts["far"], st.counts["points"])
    if stat == "hit_ratio":
        return _ratio(st.counts["hits"], st.calls)
    return st.counts[stat]
