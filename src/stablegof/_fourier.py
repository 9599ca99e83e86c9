"""Half-line cosine/sine transforms against exponential-decay envelopes.

Every Fourier-inversion grid in the package comes from here.  The EISE
criterion (and through it the test statistic D = n*Q) needs integrals

    2 int_0^inf cos(t y) exp(-phi(t)) dt          (and t*sin, t^a*log(t)*cos)

with phi(t) a sum of power terms c * t^p.  Moderate |y| goes through the
panelized Gauss-Legendre grid of :func:`panel_grid` and the three sums of
:func:`_grid_sums`, formed from real ``np.cos``/``np.sin`` (no complex
``exp``) and summed row by row, so a point's three sums depend on the rest
of its batch only through the grid, which max |y| sets.  The few points
beyond ``ysplit`` fall back to adaptive oscillatory quadrature so heavy-tail
outliers cannot alias into the grid sum.  The value of D needs only the
first transform: without ``grad``, :func:`cos_transforms` forms the grid sum
from real cosines alone and makes one quadrature per far point instead of
three.  The stable density (``stable_core``) is the same three sums with
phi(t) = t^alpha, scaled by 1/pi instead of 2: on the grid (alpha = 2
included), or point by point through :func:`_qawo_sums`, the package's one
QAWO, which also serves the far points.  Its two routes differ only in
their QUADPACK settings and accepted error, ``_DENSITY_QAWO`` and ``_FAR_QAWO``.

The non-oscillatory integrals after an EISE fit, the A/H matrices and B
constants of ``estimators.eise_matrices`` and the inner integrals of the
EISE kernel (``estimators._inner_values``), use :func:`_graded_rule`
instead: one Gauss-Legendre rule on many intervals at once, graded toward
both ends where their integrands have cusps.  :func:`envelope_moment`, one
adaptive quadrature per call, remains for the constant part of the EISE
objective.  :func:`_gl_panels` is the one panel map of every fixed rule,
``estimators._fisher_rule``'s included.
"""

import math

import numpy as np
from scipy import integrate

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# exp(-_LOG_EPS) is treated as zero when truncating the half-line integrals
_LOG_EPS = 41.5
# (y, t) pairs per block of _grid_sums: 2^21 complex cos + i sin values are 32 MB
_BLOCK_CELLS = 2**21
# panels of _graded_rule: dyadic levels toward each end, uniform ones in the middle
_GRADE_LEVELS = 40
_MID_PANELS = 4
# nodes per interval of _graded_rule
_GRADED_NODES = _GL_NODES.size * (2 * _GRADE_LEVELS + _MID_PANELS)
# nodes per block of the sums over graded rules, which hold about eight
# float arrays of that size at once: 2^17 nodes keep them near 8 MB.  Larger
# blocks fragment the heap: with 2^19, a later EISE fit's arrays did not fit
# in the freed blocks and peak RSS rose by 24 MB.
_RULE_CELLS = 2**17
# QUADPACK options and accepted error (abs, rel) of the density's QAWO route,
# then of the far points', which take QUADPACK's default tolerances
_DENSITY_QAWO = (dict(epsabs=1e-14, epsrel=1e-11, limit=600), (1e-17, 1e-9))
_FAR_QAWO = (dict(limit=400), (1.49e-8, 0.0))


def _phi(t, terms):
    """phi(t) = sum c*t^p over ``terms`` at a scalar or array t.

    A plain loop: QUADPACK calls the integrands built on this once per node,
    and a generator for ``sum`` would cost more than the arithmetic.
    """
    phi = 0.0
    for c, p in terms:
        phi += c * t**p
    return phi


def envelope_cutoff(terms):
    """T such that phi(T) = -log(eps) for phi(t) = sum c*t^p, c > 0."""
    hi = 1.0
    while _phi(hi, terms) < _LOG_EPS:
        hi *= 2.0
        if hi > 1e18:
            raise QuadratureError("envelope does not decay; bad exponent terms")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _phi(mid, terms) < _LOG_EPS:
            lo = mid
        else:
            hi = mid
    return hi


def _gl_panels(edges):
    """Gauss-Legendre nodes/weights, 10 per panel, on consecutive ``edges``."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def panel_grid(T, xmax):
    """Gauss-Legendre nodes/weights on [0, T], 10 per panel.

    Panels are graded dyadically toward t = 0, where the integrands have a
    t^alpha cusp for alpha < 1, and are shorter than half a period of
    cos(t*xmax) elsewhere.  Each dyadic piece [a, b] is cut into nsub equal
    panels whose left ends are built for all pieces at once by
    ``np.linspace``'s own formula i ((b - a)/nsub) + a, so they equal
    ``np.linspace(a, b, nsub + 1)[:-1]`` bit for bit (its step is never zero
    here, which would take linspace's other branch).
    """
    edges = [0.0]
    t0 = min(1.0, T) * 2.0 ** -14
    while t0 < T:
        edges.append(t0)
        t0 *= 2.0
    edges.append(T)
    edges = np.unique(np.asarray(edges))
    h_osc = math.pi / max(xmax, 1e-9)
    delta = np.diff(edges)
    nsub = np.maximum(np.ceil(delta / h_osc), 1.0).astype(np.intp)
    piece = np.repeat(np.arange(nsub.size), nsub)
    i = np.arange(piece.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
    lo = i * (delta / nsub)[piece] + edges[piece]
    return _gl_panels(np.append(lo, T))


def _graded_rule(a, b):
    """Gauss-Legendre nodes/weights on every interval [a, b] at once, 10 per panel.

    Each interval gets ``_GRADE_LEVELS`` panels graded dyadically toward
    each end, the outermost 2^-41 of its length, and ``_MID_PANELS``
    uniform panels on its middle half, so an integrand with a |u - end|^p
    cusp (p >= 0.3) at either end is integrated to rounding level.  Nodes
    near ``b`` are measured from ``b``.  Returns (u, w) of shape
    ``broadcast(a, b).shape + (_GRADED_NODES,)``; a degenerate interval gets
    zero weights.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    levels = _GRADE_LEVELS
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(levels + 1.0, 1.0, -1.0)))
    fmid = np.linspace(0.25, 0.75, _MID_PANELS + 1)
    # [0, 1/4] graded and [1/4, 3/4] uniform, measured from a; [0, 1/4] again from b
    off_a, fw_a = _gl_panels(np.concatenate((edges, fmid[1:])))
    off_b, fw_b = _gl_panels(edges)
    off, fw = np.concatenate((off_a, off_b)), np.concatenate((fw_a, fw_b))
    from_b = np.arange(off.size) >= off_a.size
    a, b = a[..., None], b[..., None]
    length = b - a
    u = np.where(from_b, b - length * off, a + length * off)
    return u, length * fw


def _grid_sums(ay, alpha, terms, T, grad=True):
    """int_0^T of cos(t y) env, t sin(t y) env and t^alpha log(t) cos(t y) env
    at each |y| in ``ay`` on one panel grid, with env = exp(-sum c t^p) over ``terms``.

    cos(t y) and sin(t y) are formed over row blocks of at most
    ``_BLOCK_CELLS`` (y, t) pairs, in one complex buffer that every block
    reuses, so memory stays bounded for large samples.  The products t*y
    go into its imaginary part; ``np.cos`` writes the real part from them
    and ``np.sin`` then overwrites them.  The sums are taken on the strided
    real and imaginary views: numpy then adds each row's terms in order
    itself, where a contiguous array (or a single row) would go to BLAS and
    add in another order.  So every row's sums depend only on its own y and
    the grid, whatever the block or the BLAS thread count.  They are
    bit-identical to the complex-exp route, np.exp(1j t y), on glibc with
    numpy 2.4 as tested, where np.cos and np.sin equal its real and
    imaginary parts.  Without ``grad`` only the cosines and the first sum
    are formed, the same bits as the first sum with ``grad``, and the other
    two are None.
    """
    t, w = panel_grid(T, float(np.max(ay)))
    env = np.exp(-_phi(t, terms))
    w0 = w * env
    g0, g1, ga = np.empty_like(ay), None, None
    if grad:
        lt = np.log(np.maximum(t, 1e-300))
        w1, wa = w * t * env, w * t**alpha * lt * env
        g1, ga = np.empty_like(ay), np.empty_like(ay)
    rows = max(1, _BLOCK_CELLS // t.size)
    buf = np.empty((max(2, min(rows, ay.size)), t.size), dtype=complex)
    for lo in range(0, ay.size, rows):
        yb = ay[lo : lo + rows]
        m = yb.size
        blk = slice(lo, lo + m)
        # a lone row is summed as a pair of equal rows: numpy hands a
        # one-row product to BLAS, which adds in another order
        e = buf[: max(m, 2)]
        np.multiply.outer(yb if m > 1 else np.repeat(yb, 2), t, out=e.imag)
        np.cos(e.imag, out=e.real)
        g0[blk] = (e.real @ w0)[:m]
        if grad:
            np.sin(e.imag, out=e.imag)
            g1[blk], ga[blk] = (e.imag @ w1)[:m], (e.real @ wa)[:m]
    return g0, g1, ga


def _qawo_sums(ay, alpha, terms, T, route, grad=True):
    """The sums of :func:`_grid_sums` at each |y| in ``ay``, one QAWO each under ``route``.

    A result fails when it is not finite, or when QUADPACK warns and its
    error is above max(abs, rel*|value|) of the route.  It is then retried
    once as [0, s] + [s, T], s = min(1, T/2), and a second failure raises
    QuadratureError: QAWO's roundoff test can trip on the whole interval
    where the split runs clean (f_alpha at x = 0.0515, alpha = 0.32).
    Without ``grad`` the other two sums are None.
    """
    kwargs, (abs_err, rel_err) = route

    def qawo(fn, weight, v, edges=(0.0, T)):
        outs = [
            integrate.quad(fn, a, b, weight=weight, wvar=v, full_output=1, **kwargs)
            for a, b in zip(edges, edges[1:])
        ]
        val, err = outs[0][:2]
        for out in outs[1:]:
            val, err = val + out[0], err + out[1]
        msg = " ".join(" ".join(out[3].split()) for out in outs if len(out) > 3)
        if math.isfinite(val) and (not msg or err <= max(abs_err, rel_err * abs(val))):
            return val
        if len(edges) > 2:
            raise QuadratureError(f"QAWO {weight} transform failed at y={v:g}: {msg or 'non-finite'}")
        return qawo(fn, weight, v, (0.0, min(1.0, T / 2.0), T))

    def env(t):
        return math.exp(-_phi(t, terms))

    integrands = [(env, "cos")]
    if grad:
        integrands += [
            (lambda t: t * env(t), "sin"),
            (lambda t: t**alpha * math.log(t) * env(t) if t > 0 else 0.0, "cos"),
        ]
    sums = [np.array([qawo(fn, weight, v) for v in ay]) for fn, weight in integrands]
    return (*sums, None, None)[:3]


def cos_transforms(y, alpha, terms, ysplit=60.0, grad=True):
    """Evaluate the three envelope transforms at each point of ``y``.

    Returns arrays (c0, s1, ca) with

        c0(y) = 2 int_0^inf cos(t y)              exp(-phi(t)) dt
        s1(y) = 2 int_0^inf t sin(t y)            exp(-phi(t)) dt
        ca(y) = 2 int_0^inf t^alpha log(t) cos(ty) exp(-phi(t)) dt

    where phi(t) = sum c * t^p over ``terms``.  Without ``grad`` it returns
    (c0, None, None): the grid sum is formed from real cosines alone and
    each point beyond ``ysplit`` gets one quadrature instead of three, with
    the same c0 to the last bit.  Raises
    :class:`~stablegof.errors.QuadratureError` where a far point's QAWO
    fails on its retry too (see :func:`_qawo_sums`).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ay = np.abs(y)
    T = envelope_cutoff(terms)
    c0 = np.empty_like(ay)
    s1 = np.empty_like(ay) if grad else None
    ca = np.empty_like(ay) if grad else None
    near = ay <= ysplit
    for part, sums in (
        (near, lambda v: _grid_sums(v, alpha, terms, T, grad)),
        (~near, lambda v: _qawo_sums(v, alpha, terms, T, _FAR_QAWO, grad)),
    ):
        if np.any(part):
            g0, g1, ga = sums(ay[part])
            c0[part] = 2.0 * g0
            if grad:
                s1[part], ca[part] = 2.0 * g1, 2.0 * ga
    if grad:
        # cos transforms even in y, the sine one odd
        s1 *= np.where(y < 0, -1.0, 1.0)
    return c0, s1, ca


def envelope_moment(terms, power=0.0, logpow=0):
    """2 int_0^inf t^power log(t)^logpow exp(-phi(t)) dt by adaptive quadrature.

    QUADPACK is asked for epsrel 1e-11 (epsabs 1e-14), but
    :class:`~stablegof.errors.QuadratureError` is raised only when its error
    estimate exceeds 1e-8 relative, so a result can miss 1e-11: with
    phi(t) = 2t^(7/6) + 2t^0.7, power 7/3 and logpow 2 it is 6.7e-11 off a
    30-digit mpmath value.  At its one package use, the two W2 moments of
    ``estimators.q_objective`` (power 0 and (alpha, logpow 1) with
    phi(t) = 2t^alpha + the weight's terms), it was within 1.7e-14 of mpmath
    for alpha in {0.5, 7/6, 1.5, 2} and the weights exp(-|t|), exp(-10|t|)
    and exp(-2|t|^0.7).
    """
    T = envelope_cutoff(terms)

    def g(t):
        if t <= 0:
            return 0.0
        return t**power * math.log(t) ** logpow * math.exp(-_phi(t, terms))

    val, err = integrate.quad(g, 0.0, T, limit=400, epsabs=1e-14, epsrel=1e-11)
    if err > 1e-8 * max(abs(val), 1e-10):
        raise QuadratureError(f"envelope moment failed: err={err}")
    return 2.0 * val
