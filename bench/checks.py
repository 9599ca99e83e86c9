"""Correctness checks on a round's outputs.

At the reference seed every output is compared with the stored reference to
a relative tolerance; table_h1 does not depend on the seed and is compared at
every seed.  Other seeds check invariants instead: every value finite, each
statistic and quantile positive, the xi = 0.05 quantile above the xi = 0.10
one, and the fitted exponent inside the fit's bounds.
"""

import math

REL_TOL = 1e-8
SEED_FREE = ("table_h1",)


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(outputs, reference):
    """Messages for op groups that differ from the reference or are absent from it."""
    bad = {}
    for op, group in outputs.items():
        ref = reference.get(op)
        if ref is None:
            bad[op] = "no reference"
            continue
        if set(group["values"]) != set(ref):
            bad[op] = f"fields {sorted(group['values'])} != reference {sorted(ref)}"
            continue
        for field, value in group["values"].items():
            if not _close(value, ref[field]):
                bad[op] = f"{field}={value!r} reference {ref[field]!r}"
                break
    return bad


def invariants(outputs):
    """Messages for op groups whose values break a seed-independent invariant."""
    bad = {}
    for op, group in outputs.items():
        vals = group["values"]
        msg = None
        if not all(math.isfinite(v) for v in vals.values()):
            msg = "non-finite value"
        elif any(v <= 0 for k, v in vals.items() if k.startswith(("D", "q", "k"))):
            msg = "statistic or quantile not positive"
        elif not 0.3 <= vals.get("alpha_hat", 1.0) <= 2.0:
            msg = f"alpha_hat={vals['alpha_hat']} outside the fit bounds"
        else:
            for k, v in vals.items():
                upper = k.replace("0.05", "0.1")
                if k.startswith(("q", "k")) and upper != k and upper in vals and not v > vals[upper]:
                    msg = f"{k}={v} not above {upper}={vals[upper]}"
        if msg:
            bad[op] = msg
    return bad


def check(workload, outputs, seed, scale, references):
    """(bad op groups with reasons, reference groups never produced, reference used)."""
    ref = references.get(workload)
    if ref and ref["scale"] == scale and (ref["seed"] == seed or workload in SEED_FREE):
        bad = compare(outputs, ref["outputs"])
        missing = set(ref["outputs"]) - set(outputs)
        return bad, missing, True
    return invariants(outputs), set(), False
