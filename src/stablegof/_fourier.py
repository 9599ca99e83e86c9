"""Half-line cosine/sine transforms against exponential-decay envelopes.

Every Fourier-inversion grid in the package comes from here.  The EISE
criterion (and through it the test statistic D = n*Q) needs integrals

    2 int_0^inf cos(t y) exp(-phi(t)) dt          (and t*sin, t^a*log(t)*cos)

with phi(t) a sum of power terms c * t^p.  Moderate |y| goes through the
panelized Gauss-Legendre grid of :func:`panel_grid` and the three sums of
:func:`_grid_sums`, formed from real ``np.cos``/``np.sin`` (no complex
``exp``) and summed row by row, so a point's three sums depend on the rest
of its batch only through the grid, which max |y| sets.  A batch of more
than 750 near points is summed instead at the nodes of piecewise Chebyshev
tables in y where a panel holds more points than nodes
(:func:`_near_sums`).  One driver, :func:`_table_sums`, builds, checks,
halves and interpolates those tables and the x-tables of the large-n pair
sums (``estimators._pair_table``), under one tail rule.  The few points
beyond ``ysplit`` fall back to adaptive oscillatory quadrature so
heavy-tail outliers cannot alias into the grid sum.  The value of D needs
only the first transform: without ``grad``, :func:`cos_transforms` forms
the grid sum from real cosines alone and makes one quadrature per far
point instead of three.  The stable density (``stable_core``) is the same
three sums with phi(t) = t^alpha, scaled by 1/pi instead of 2: through
:func:`_near_sums` (alpha = 2 included), or point by point through
:func:`_qawo_sums`, the package's one QAWO, which also serves the far
points.  Its two routes differ only in their QUADPACK settings and
accepted error, ``_DENSITY_QAWO`` and ``_FAR_QAWO``.

The non-oscillatory integrals after an EISE fit use one graded
Gauss-Legendre template instead.  :func:`_graded_rule` lays it on many
intervals at once, graded toward both ends where the integrands have
cusps; the A/H matrices and B constants of ``estimators.eise_matrices``
take their nodes in s from it.  The inner integrals of the EISE kernel
(``estimators._inner_values``) map every interval onto one of two unit
rules formed from the template at import: ``_TWO_SIDED`` (the same rule on
[0, 1]) and ``_ONE_SIDED`` (graded toward 0 only, for an interval with
one cusp).  :func:`envelope_moment`, one adaptive quadrature per call,
remains for the constant part of the EISE objective.  :func:`_gl_panels`
is the one panel map of every fixed rule, ``estimators._fisher_rule``'s
included.
"""

import math

import numpy as np
from scipy import integrate

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# exp(-_LOG_EPS) is treated as zero when truncating the half-line integrals
_LOG_EPS = 41.5
# (y, t) pairs per block of _grid_sums and of estimators._pair_sums: 2^18
# complex cos + i sin values are 4 MB, which stay in cache between np.cos,
# np.sin and the sums; 2^21 (32 MB) ran the n = 5000 pair sums 1.8x slower
_BLOCK_CELLS = 2**18
# batches of at most _DIRECT_MAX points are summed directly by _table_sums,
# as they do not repay a table's fixed cost: the y-table's is its 750 nodes
# (default ysplit of 60); the x-table took 166-199 us against 53-63 us for
# full rows at n = 100 (value only, alpha 1.2 and 1.8, 2 vCPUs), though from
# about 400 points it wins (2x at 750)
_DIRECT_MAX = 750
# the Chebyshev tables of _table_sums: panels _TABLE_WIDTH wide in |y| for
# _near_sums (kappa*sigma wide in x for estimators._pair_table), each with the
# m = _TABLE_NODES first-kind Chebyshev nodes cos(theta_k), theta_k = (2k+1)
# pi/(2m), their barycentric weights (-1)^k sin(theta_k), and the rows k =
# m-2, m-1 of the map from node values to Chebyshev coefficients, (2/m)
# cos(k theta_j).  A panel passes when those two coefficients of its first
# sum are within _TABLE_TAIL * max(1, its largest |first sum|).
_TABLE_WIDTH = 2.0
_TABLE_NODES = 25
_TABLE_TAIL = 1e-14
_CHEB_ANGLES = (2.0 * np.arange(_TABLE_NODES) + 1.0) * math.pi / (2.0 * _TABLE_NODES)
_CHEB_X = np.cos(_CHEB_ANGLES)
_CHEB_W = (-1.0) ** np.arange(_TABLE_NODES) * np.sin(_CHEB_ANGLES)
_CHEB_TAIL = 2.0 / _TABLE_NODES * np.cos(
    np.outer([_TABLE_NODES - 2, _TABLE_NODES - 1], _CHEB_ANGLES)
)
# panels of _graded_rule: dyadic levels toward each end, uniform ones in the middle
_GRADE_LEVELS = 40
_MID_PANELS = 4
# nodes per interval of _graded_rule (840)
_GRADED_NODES = _GL_NODES.size * (2 * _GRADE_LEVELS + _MID_PANELS)
# (row, node) cells per block of the sums over graded rules in
# estimators._inner_values, which hold about eight float arrays of that size
# at once: 2^17 cells keep them near 8 MB.  Larger blocks fragment the heap:
# with 2^19, a later EISE fit's arrays did not fit in the freed blocks and
# peak RSS rose by 24 MB.
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


# the [0, 1] template of _graded_rule: panel edges graded dyadically over
# [0, 1/4] (the innermost panel 2^-41 wide) and uniform over [1/4, 3/4]
_GRADE_EDGES = np.concatenate(([0.0], 2.0 ** -np.arange(_GRADE_LEVELS + 1.0, 1.0, -1.0)))
_MID_EDGES = np.linspace(0.25, 0.75, _MID_PANELS + 1)
# its nodes and weights measured from a ([0, 3/4]) and from b ([0, 1/4])
_OFF_A, _FW_A = _gl_panels(np.concatenate((_GRADE_EDGES, _MID_EDGES[1:])))
_OFF_B, _FW_B = _gl_panels(_GRADE_EDGES)


def _graded_rule(a, b):
    """Gauss-Legendre nodes/weights on every interval [a, b] at once, 10 per panel.

    Each interval gets ``_GRADE_LEVELS`` panels graded dyadically toward
    each end, the outermost 2^-41 of its length, and ``_MID_PANELS``
    uniform panels on its middle half, so an integrand with a |u - end|^p
    cusp (p >= 0.3) at either end is integrated to rounding level.  Nodes
    near ``b`` are measured from ``b``.  Returns (u, w) of shape
    ``broadcast(a, b).shape + (_GRADED_NODES,)``; a degenerate interval gets
    zero weights.  :data:`_TWO_SIDED` is the same rule on [0, 1], and
    :data:`_ONE_SIDED` its variant graded toward 0 only.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    off, fw = np.concatenate((_OFF_A, _OFF_B)), np.concatenate((_FW_A, _FW_B))
    from_b = np.arange(off.size) >= _OFF_A.size
    a, b = a[..., None], b[..., None]
    length = b - a
    u = np.where(from_b, b - length * off, a + length * off)
    return u, length * fw


# Unit rules of the EISE inner integrals (estimators._inner_values), formed
# once here.  _TWO_SIDED is (v, 1 - v, w): _graded_rule on [0, 1], with each
# node's distance 1 - v from 1 taken from the template, so it is exact near
# that end too.  _ONE_SIDED is (v, w) on [0, 1] graded toward 0 only, for an
# interval with one cusp: the template's graded panels over [0, 1/4] and its
# middle panels' width 1/8 continued to 1, 46 panels (460 nodes).
_TWO_SIDED = (
    np.concatenate((_OFF_A, 1.0 - _OFF_B)),
    np.concatenate((1.0 - _OFF_A, _OFF_B)),
    np.concatenate((_FW_A, _FW_B)),
)
_ONE_SIDED = _gl_panels(
    np.concatenate((_GRADE_EDGES, np.linspace(0.25, 1.0, 3 * _MID_PANELS // 2 + 1)[1:]))
)


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


def _cheb_table(tables, nodes, points, panel):
    """The barycentric formula at ``points`` of sums tabulated on Chebyshev panels.

    ``nodes`` holds each panel's ``_TABLE_NODES`` first-kind Chebyshev
    nodes, one row per panel, and ``tables`` the sums at them in the same
    shape (None for a sum not formed).  A panel passes when the last two
    Chebyshev coefficients of its first sum are within ``_TABLE_TAIL``
    times max(1, its largest |first sum|).  Point j lies on panel
    ``panel[j]``.  Returns the panels' pass mask and, for the points on
    passing panels only, every table's barycentric formula, which is exactly
    a node's value where a point lands on that node.  The points are
    interpolated in blocks of at most ``_BLOCK_CELLS // _TABLE_NODES``, so
    memory stays bounded; a point's formula reads only its own row, so its
    bits do not depend on the block.
    """
    scale = np.maximum(1.0, np.max(np.abs(tables[0]), axis=1))
    ok = np.max(np.abs(tables[0] @ _CHEB_TAIL.T), axis=1) <= _TABLE_TAIL * scale
    on = np.flatnonzero(ok[panel])
    sums = tuple(None if g is None else np.empty(on.size) for g in tables)
    step = max(1, _BLOCK_CELLS // _TABLE_NODES)
    for lo in range(0, on.size, step):
        blk = on[lo : lo + step]
        pb = panel[blk]
        diff = points[blk][:, None] - nodes[pb]
        hit = diff == 0.0
        with np.errstate(divide="ignore"):
            c = _CHEB_W / diff
        on_node = hit.any(axis=1)
        c[on_node] = hit[on_node]
        den = c.sum(axis=1)
        for g, out in zip(tables, sums):
            if g is not None:
                out[lo : lo + blk.size] = np.einsum("ij,ij->i", c, g[pb]) / den
    return ok, sums


def _table_sums(points, width, sums):
    """``sums(points)`` from piecewise Chebyshev tables where they pay, else directly.

    ``sums(z)`` returns a tuple of arrays (or None for a sum not formed) at
    a 1-D array z, each entire in z.  It serves the y-table of
    :func:`_near_sums` and the x-table of ``estimators._pair_table``.
    Up to ``_DIRECT_MAX`` points it returns ``sums(points)``.  Above that,
    point z lies on the panel [k w, (k + 1) w], k = floor(z/w), first with
    w = ``width``, and a panel holding more than ``_TABLE_NODES`` points
    gets a table: its Chebyshev nodes, those of every such panel of one
    round in one ``sums`` call, checked and interpolated by
    :func:`_cheb_table`.  A failing panel is halved, and its halves that
    still hold more points than nodes make the next round.  Every other
    point is summed directly, in one ``sums`` call: points on sparser
    panels, at |z| >= 2^52 ``width``, where panels no longer have distinct
    centers, and those left over where the node rows, the next round's
    included, would reach the number of points.  So a table's rows cost
    less than the rows it replaces, and where no panel gets a table the
    result is ``sums(points)``.  Halving converges because the sums are
    entire: a narrower panel's Bernstein ellipse is smaller, and the sums
    are bounded on it.  The panels depend only on the points and the first
    sum.
    """
    if points.size <= _DIRECT_MAX:
        return sums(points)
    served = []  # (point indices, their sums) of each round
    todo = np.flatnonzero(np.abs(points) < 2.0**52 * width)
    rows = 0
    while todo.size:
        k, panel, counts = np.unique(np.floor(points[todo] / width), return_inverse=True, return_counts=True)
        dense = counts > _TABLE_NODES
        rows += _TABLE_NODES * np.count_nonzero(dense)
        if not dense.any() or rows >= points.size:
            break
        on = dense[panel]
        todo, panel = todo[on], (np.cumsum(dense) - 1)[panel[on]]
        nodes = ((k[dense] + 0.5) * width)[:, None] + 0.5 * width * _CHEB_X
        tables = tuple(None if g is None else g.reshape(nodes.shape) for g in sums(nodes.ravel()))
        ok, got = _cheb_table(tables, nodes, points[todo], panel)
        passed = ok[panel]
        served.append((todo[passed], got))
        todo = todo[~passed]
        width *= 0.5
    direct = np.ones(points.size, dtype=bool)
    for idx, _ in served:
        direct[idx] = False
    if direct.any():
        served.append((direct, sums(points[direct])))
    out = tuple(None if g is None else np.empty(points.size) for g in served[0][1])
    for idx, got in served:
        for o, g in zip(out, got):
            if o is not None:
                o[idx] = g
    return out


def _near_sums(ay, alpha, terms, T, grad=True):
    """The sums of :func:`_grid_sums` at each |y| in ``ay``, through :func:`_table_sums`
    on panels ``_TABLE_WIDTH`` wide.

    It serves the near points of :func:`cos_transforms` and of the stable
    density (``stable_core._near_grid``, with phi(t) = t^alpha).  Every
    batch of at most 750 points keeps its direct sums to the last bit.
    Each round's nodes are one :func:`_grid_sums` call, whose grid the
    largest node sets; the points summed directly get a grid set by their
    own largest |y|.  The first sum has the same bits with or without
    ``grad``, so the value and gradient routes table alike.  On 5000-point
    stable samples every sum was within 8.7e-15 absolute of the direct sums
    of the whole batch at alpha from 0.7 to 1.7 with exp(-|t|), 3.4e-14 at
    alpha = 0.5 with exp(-0.5|t|), and 7.6e-13 at alpha = 0.3 with
    exp(-|t|^0.5), where the first panels fail and are halved.
    """
    return _table_sums(ay, _TABLE_WIDTH, lambda z: _grid_sums(z, alpha, terms, T, grad))


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

    where phi(t) = sum c * t^p over ``terms``.  Points with |y| <= ``ysplit``
    take the grid sums of :func:`_grid_sums`, through the Chebyshev y-table
    of :func:`_near_sums` when they are more than 750.  On n = 5000 stable
    samples, alpha in {0.5, 0.9, 1.2, 1.7} and weights exp(-kappa|t|)
    (kappa 0.2 to 10) and exp(-nu|t|^p) (p 0.5 to 1.5), every sum was
    within 2.3e-14 absolute of the direct sums, and within 1.5e-13 at
    alpha = 0.5 with kappa = 0.2 or p = 0.5.  At alpha 0.9 and 1.7 with
    kappa 1 and 10, the test statistic moved by at most 2.3e-12.
    The points beyond ``ysplit`` get QAWO, one per sum.  Without ``grad``
    it returns (c0, None, None): the grid sum is formed from real cosines
    alone and each far point gets one quadrature instead of three, with
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
        (near, lambda v: _near_sums(v, alpha, terms, T, grad)),
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
