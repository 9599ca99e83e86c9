"""The near-grid sums of ``_fourier._grid_sums`` against the complex-exp route they replaced,
its value-only route against its gradient route, the Chebyshev table of ``_near_sums``
against the direct sums, the scalar integrands of the far points and moments against
their ``sum``-over-a-generator forms, the failure policy of the far points' QAWO:
one retry on a split interval, then QuadratureError, and every route at alpha in
{1, 2} against closed forms."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, special

from stablegof import _fourier
from stablegof._fourier import (
    _GL_NODES,
    _GL_WEIGHTS,
    _GRADE_LEVELS,
    _LOG_EPS,
    _MID_PANELS,
    _graded_rule,
    _grid_sums,
    _phi,
    cos_transforms,
    envelope_cutoff,
    envelope_moment,
    panel_grid,
)
from stablegof.errors import QuadratureError
from stablegof.estimators import WeightSpec
from stablegof.stable_core import _crossover, pdf_batch, rand_stable


def loop_phi(t, terms):
    """Reference copy of the exponent loop ``_grid_sums`` had before it called ``_phi``."""
    phi = np.zeros_like(t)
    for c, p in terms:
        phi += c * t**p
    return phi


def old_panel_grid(T, xmax):
    """Reference copy of ``panel_grid`` with its own panel map, before ``_gl_panels``."""
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
    hi = np.concatenate([lo[1:], [T]])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return t, w


def old_graded_rule(a, b):
    """Reference copy of ``_graded_rule`` with its own [0, 1] template, before ``_gl_panels``."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    levels = _GRADE_LEVELS
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(levels + 1.0, 1.0, -1.0)))
    fmid = np.linspace(0.25, 0.75, _MID_PANELS + 1)
    lo = np.concatenate((edges[:-1], fmid[:-1], edges[:-1]))
    hi = np.concatenate((edges[1:], fmid[1:], edges[1:]))
    off = (0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * _GL_NODES).ravel()
    fw = (0.5 * (hi - lo)[:, None] * _GL_WEIGHTS).ravel()
    from_b = np.repeat(np.arange(lo.size) >= levels + _MID_PANELS, _GL_NODES.size)
    a, b = a[..., None], b[..., None]
    length = b - a
    u = np.where(from_b, b - length * off, a + length * off)
    return u, length * fw


# (T, xmax) of panel_grid: the density's cutoffs 41.5^(1/alpha), transform
# cutoffs, a T below the first dyadic edge, and xmax from 0 to past ysplit
PANEL_CASES = [
    (T, xmax)
    for T in (_LOG_EPS ** (1 / 0.5), _LOG_EPS ** (1 / 1.5), _LOG_EPS**0.5, 4.15, 0.3, 1.0)
    for xmax in (0.0, 0.05, 1.0, 7.3, 60.0)
]


@pytest.mark.parametrize("T,xmax", PANEL_CASES)
def test_panel_grid_is_bit_identical_to_its_own_panel_map(T, xmax):
    got, want = panel_grid(T, xmax), old_panel_grid(T, xmax)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_graded_rule_is_bit_identical_to_its_own_template():
    a = np.array([[-41.5, 0.0, 0.2], [3.0, -1e-3, 7.0]])
    b = np.array([[0.0, 1e-3, 7.0], [3.0, 0.0, 41.5]])  # one degenerate interval
    for lo, hi in ((a, b), (0.0, 6.4), (-2.0, np.array([0.5, 9.0]))):
        got, want = _graded_rule(lo, hi), old_graded_rule(lo, hi)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_phi_is_bit_identical_to_the_loop():
    t = np.concatenate(([0.0], np.geomspace(1e-12, 60.0, 301)))
    for terms in (((1.0, 1.5),), ((1.0, 0.7), (2.5, 1.0)), ((2.0, 1.2), (1.0, 1.5), (10.0, 1.0))):
        assert np.array_equal(_phi(t, terms), loop_phi(t, terms))


def complex_exp_grid_sums(ay, alpha, terms, T):
    """Reference copy of the gradient route of ``_grid_sums`` before real cos/sin.

    Forms exp(i t y) with ``np.exp(1j * np.outer(ay, t))`` in one block and
    takes the three products on its real and imaginary parts.
    """
    t, w = panel_grid(T, float(np.max(ay)))
    env = np.exp(-loop_phi(t, terms))
    w0 = w * env
    lt = np.log(np.maximum(t, 1e-300))
    w1, wa = w * t * env, w * t**alpha * lt * env
    e = np.exp(1j * np.outer(ay, t))
    return e.real @ w0, e.imag @ w1, e.real @ wa


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_real_cos_sin_sums_are_bit_identical(alpha, monkeypatch):
    rng = np.random.default_rng(int(10 * alpha))
    # pdf_batch's near points and T; cos_transforms' envelope of Q's W1 term
    density = (rng.uniform(0.0, _crossover(alpha), 40), ((1.0, alpha),), _LOG_EPS ** (1.0 / alpha))
    ay = np.concatenate(([0.0], rng.uniform(0.0, 60.0, 199)))
    envelope = ((1.0, alpha), (2.5, 1.0))
    transform = (ay, envelope, envelope_cutoff(envelope))
    for ay, terms, T in (density, transform):
        want = complex_exp_grid_sums(ay, alpha, terms, T)
        # blocks of a few rows each, so rows meet block edges
        monkeypatch.setattr(_fourier, "_BLOCK_CELLS", 3 * panel_grid(T, float(np.max(ay)))[0].size)
        got = _grid_sums(ay, alpha, terms, T)
        for g, e in zip(got, want):
            assert np.array_equal(g, e)
        monkeypatch.undo()
        # a batch of one point, on the same grid, sums as in the full batch
        top = [int(np.argmax(ay))]
        for g, e in zip(_grid_sums(ay[top], alpha, terms, T), want):
            assert np.array_equal(g, e[top])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_value_route_sum_is_the_gradient_route_sum(alpha, monkeypatch):
    rng = np.random.default_rng(100 + int(10 * alpha))
    ay = np.concatenate(([0.0], rng.uniform(0.0, 60.0, 199)))
    terms = ((1.0, alpha), (2.5, 1.0))
    T = envelope_cutoff(terms)
    want = _grid_sums(ay, alpha, terms, T)[0]
    # blocks of a few rows each, so rows meet block edges
    monkeypatch.setattr(_fourier, "_BLOCK_CELLS", 3 * panel_grid(T, float(np.max(ay)))[0].size)
    g0, g1, ga = _grid_sums(ay, alpha, terms, T, grad=False)
    assert g1 is None and ga is None
    assert np.array_equal(g0, want)
    monkeypatch.undo()
    # a batch of one point, on the same grid, sums as in the full batch
    top = [int(np.argmax(ay))]
    assert np.array_equal(_grid_sums(ay[top], alpha, terms, T, grad=False)[0], want[top])


def generator_phi(terms):
    """Reference copy of the scalar phi(t) = sum c*t^p before the plain loop."""
    return lambda t: sum(c * t**p for c, p in terms)


def generator_cutoff(terms):
    """Reference copy of ``envelope_cutoff`` with the generator phi."""
    phi = generator_phi(terms)
    hi = 1.0
    while phi(hi) < _LOG_EPS:
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if phi(mid) < _LOG_EPS:
            lo = mid
        else:
            hi = mid
    return hi


def generator_far_transforms(v, alpha, terms):
    """Reference copy of ``cos_transforms``' far-point quadratures with the generator phi."""
    T = generator_cutoff(terms)
    phi = generator_phi(terms)

    def env_s(t):
        return math.exp(-phi(t))

    def far_quad(fn, weight):
        # QAWO at QUADPACK's default tolerances, as the far points take it
        return integrate.quad(fn, 0, T, weight=weight, wvar=v, limit=400)[0]

    return (
        2.0 * far_quad(env_s, "cos"),
        2.0 * far_quad(lambda t: t * env_s(t), "sin"),
        2.0 * far_quad(lambda t: t**alpha * math.log(t) * env_s(t) if t > 0 else 0.0, "cos"),
    )


def generator_moment(terms, power, logpow):
    """Reference copy of ``envelope_moment`` with the generator phi."""
    phi = generator_phi(terms)

    def g(t):
        if t <= 0:
            return 0.0
        return t**power * math.log(t) ** logpow * math.exp(-phi(t))

    val, _ = integrate.quad(g, 0.0, generator_cutoff(terms), limit=400, epsabs=1e-14, epsrel=1e-11)
    return 2.0 * val


WEIGHTS = [WeightSpec("exp_abs", 1.0), WeightSpec("exp_abs", 10.0), WeightSpec("exp_power", 2.0, 0.7)]


@pytest.mark.parametrize("alpha", [0.5, 0.8, 7.0 / 6.0, 1.5, 2.0])
@pytest.mark.parametrize("weight", WEIGHTS, ids=["exp_abs1", "exp_abs10", "power0.7"])
def test_far_transforms_and_moments_match_the_generator_integrands(alpha, weight):
    terms = ((1.0, alpha),) + weight.terms()
    assert envelope_cutoff(terms) == generator_cutoff(terms)
    y = np.array([60.5, 97.0, 250.0, 3000.0])
    c0, s1, ca = cos_transforms(y, alpha, terms)
    value_c0, _, _ = cos_transforms(y, alpha, terms, grad=False)
    for i, v in enumerate(y):
        want = generator_far_transforms(v, alpha, terms)
        assert (c0[i], s1[i], ca[i]) == want
        assert value_c0[i] == want[0]
    terms2 = ((2.0, alpha),) + weight.terms()
    for power, logpow in ((0.0, 0), (alpha, 0), (alpha, 1), (2.0, 0), (2 * alpha, 2)):
        assert envelope_moment(terms2, power, logpow) == generator_moment(terms2, power, logpow)


def far_integrands(alpha, terms):
    """(integrand, weight) of the three far-point transforms, as ``_qawo_sums`` builds them."""

    def env(t):
        return math.exp(-_phi(t, terms))

    return [
        (env, "cos"),
        (lambda t: t * env(t), "sin"),
        (lambda t: t**alpha * math.log(t) * env(t) if t > 0 else 0.0, "cos"),
    ]


def whole_interval_fake(T, value_shift, err, msg):
    """``integrate.quad`` whose QAWO on [0, T] returns its value + ``value_shift``, ``err`` and ``msg``."""
    quad = integrate.quad

    def fake(fn, a, b, **kwargs):
        out = quad(fn, a, b, **kwargs)
        if (a, b) == (0.0, T):
            return (out[0] + value_shift, err, out[2]) + ((msg,) if msg else ())
        return out

    return SimpleNamespace(quad=fake)


ALPHA, TERMS = 0.8, ((1.0, 0.8), (1.0, 1.0))


@pytest.mark.parametrize(
    "shift, err, msg, split",
    [
        (1.0, 1.0, "roundoff error is detected", True),
        (math.nan, 0.0, None, True),
        # a warning whose error meets QUADPACK's default epsabs is accepted
        (1.0, 1e-9, "roundoff error is detected", False),
    ],
    ids=["warns", "non-finite", "warns-within-tolerance"],
)
def test_far_point_retries_a_failed_whole_interval_on_the_split(monkeypatch, shift, err, msg, split):
    T = envelope_cutoff(TERMS)
    s = min(1.0, T / 2.0)
    y = np.array([75.0, -250.0])
    monkeypatch.setattr(_fourier, "integrate", whole_interval_fake(T, shift, err, msg))
    got = cos_transforms(y, ALPHA, TERMS)
    monkeypatch.undo()
    for i, v in enumerate(np.abs(y)):
        for (fn, weight), row, sign in zip(far_integrands(ALPHA, TERMS), got, (1.0, np.sign(y[i]), 1.0)):
            def q(a, b):
                return integrate.quad(fn, a, b, weight=weight, wvar=v, limit=400)[0]

            want = q(0.0, s) + q(s, T) if split else q(0.0, T) + shift
            assert row[i] == sign * 2.0 * want


def test_far_point_raises_when_the_split_fails_too(monkeypatch):
    quad = integrate.quad

    def always_warns(fn, a, b, **kwargs):
        out = quad(fn, a, b, **kwargs)
        return out[0], 1.0, out[2], "roundoff error is detected"

    monkeypatch.setattr(_fourier, "integrate", SimpleNamespace(quad=always_warns))
    with pytest.raises(QuadratureError, match="y=75: roundoff error is detected"):
        cos_transforms(np.array([1.0, 75.0]), ALPHA, TERMS, grad=False)


def grid_sums_batches(monkeypatch):
    """Record the |y| array of every ``_grid_sums`` call."""
    batches, grid_sums = [], _fourier._grid_sums

    def recording(ay, *args, **kwargs):
        batches.append(ay)
        return grid_sums(ay, *args, **kwargs)

    monkeypatch.setattr(_fourier, "_grid_sums", recording)
    return batches


def first_round(ay):
    """The first round of ``_near_sums``' table on the points ``ay``: the
    Chebyshev nodes of the panels holding more points than nodes, one row per
    panel, and the points on the other panels."""
    width = _fourier._TABLE_WIDTH
    k, which, counts = np.unique(np.floor(ay / width), return_inverse=True, return_counts=True)
    dense = counts > _fourier._TABLE_NODES
    nodes = ((k[dense] + 0.5) * width)[:, None] + 0.5 * width * _fourier._CHEB_X
    return nodes, ay[~dense[which]]


def near_points(alpha, seed, n=5000, cut=60.0):
    """|y| <= cut of a standard stable sample of size n."""
    ay = np.abs(rand_stable(alpha, n, np.random.default_rng(seed)))
    return ay[ay <= cut]


TABLE_WEIGHTS = [WeightSpec("exp_abs", 1.0), WeightSpec("exp_abs", 10.0), WeightSpec("exp_power", 1.0, 1.5)]


@pytest.mark.parametrize("alpha", [0.9, 1.7])
@pytest.mark.parametrize("weight", TABLE_WEIGHTS, ids=["exp_abs1", "exp_abs10", "power1.5"])
def test_table_sums_match_the_direct_sums(alpha, weight, monkeypatch):
    # one round of node rows on the panels holding more than 25 points, then
    # the points of the sparser panels in one direct call; largest
    # difference seen: 7.4e-15, where the direct sums' own rounding is of
    # that order
    terms = ((1.0, alpha),) + weight.terms()
    T = envelope_cutoff(terms)
    for seed in (1, 2, 3):
        ay = near_points(alpha, seed)
        nodes, sparse = first_round(ay)
        want = _grid_sums(ay, alpha, terms, T)
        batches = grid_sums_batches(monkeypatch)
        got = _fourier._near_sums(ay, alpha, terms, T)
        value = _fourier._near_sums(ay, alpha, terms, T, grad=False)
        monkeypatch.undo()
        assert [b.size for b in batches] == [nodes.size, sparse.size] * 2
        assert np.array_equal(batches[0], nodes.ravel()) and np.array_equal(batches[1], sparse)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14
        assert np.array_equal(value[0], got[0]) and value[1:] == (None, None)


@pytest.mark.parametrize("n, top", [(750, 60.0), (120, 1.0)])
def test_batches_no_larger_than_the_largest_table_keep_the_direct_sums(n, top):
    # 750 points are the nodes of the table for max|y| = ysplit = 60; a small
    # batch keeps the direct sums even where its own table would be smaller
    ay = np.random.default_rng(n).uniform(0.0, top, n)
    terms = ((1.0, 1.3), (2.5, 1.0))
    T = envelope_cutoff(terms)
    for grad in (True, False):
        got = _fourier._near_sums(ay, 1.3, terms, T, grad)
        want = _grid_sums(ay, 1.3, terms, T, grad)
        for g, w in zip(got, want):
            assert (g is None and w is None) or np.array_equal(g, w)


def test_a_failing_panel_is_halved_until_it_passes(monkeypatch):
    # alpha = 0.5 with exp(-0.5|t|): c0 is analytic only for |Im y| < 0.5,
    # and 25 nodes on a panel 2 wide miss it by about 3e-10.  [0, 2] fails
    # among the five first panels; of its halves [1, 2] passes and [0, 1]
    # fails, and its quarters pass.  Largest difference seen: 5.1e-15
    ay = np.random.default_rng(7).uniform(0.0, 10.0, 800)
    terms = ((1.0, 0.5), (0.5, 1.0))
    T = envelope_cutoff(terms)
    batches = grid_sums_batches(monkeypatch)
    got = _fourier._near_sums(ay, 0.5, terms, T)
    monkeypatch.undo()
    assert [b.size for b in batches] == [125, 50, 50]
    assert [(b.min() > 0.0, b.max() < 2.0) for b in batches[1:]] == [(True, True)] * 2
    assert np.max(batches[2]) < 1.0
    for g, w in zip(got, _grid_sums(ay, 0.5, terms, T)):
        assert np.max(np.abs(g - w)) <= 1e-14


# points, alpha, terms, cutoff (None: envelope_cutoff) and the node rows of
# each round: the density's near points at alpha = 0.9 lie in [0, 1], so of
# the halves of the one first panel [0, 2] only [0, 1] holds a point
REFINED_CASES = {
    "density0.9": (near_points(0.9, 9, cut=1.0), 0.9, ((1.0, 0.9),), _LOG_EPS ** (1.0 / 0.9), [25, 25, 50]),
    "kappa0.5": (
        np.random.default_rng(7).uniform(0.0, 10.0, 800), 0.5, ((1.0, 0.5), (0.5, 1.0)), None, [125, 50, 50]
    ),
}


@pytest.mark.parametrize("case", REFINED_CASES)
def test_refined_table_value_route_is_the_gradient_routes_first_sum(case, monkeypatch):
    # the tail check reads only the first sum, which has the same bits
    # with or without grad, so both routes halve the same panels
    ay, alpha, terms, T, rounds = REFINED_CASES[case]
    T = envelope_cutoff(terms) if T is None else T
    sums, sizes = [], []
    for grad in (True, False):
        batches = grid_sums_batches(monkeypatch)
        sums.append(_fourier._near_sums(ay, alpha, terms, T, grad))
        monkeypatch.undo()
        sizes.append([b.size for b in batches])
    got, value = sums
    assert sizes == [rounds, rounds]
    assert np.array_equal(value[0], got[0]) and value[1:] == (None, None)


def oscillating(z):
    """Sums for ``_table_sums`` whose panels on [0, 2] fail at widths 2 to
    1/16, and pass at once on [10, 12], where they are constant."""
    return np.where(z < 10.0, np.cos(200.0 * z), 1.0), None


def test_a_table_that_would_reach_the_batch_size_gives_the_direct_sums():
    # 2000 points spaced evenly on [0, 2]: the panels there fail at widths 2
    # to 1/16 (rounds of 1, 2, ..., 32 panels, 1575 node rows in all), and
    # the 64 panels 1/32 wide would take the rows to 3175, past the point
    # count; so those points are summed directly, in one call, to the last
    # bit.  500 points on [10, 12] pass the first round and keep its values
    near = (np.arange(2000) + 0.5) / 1000.0
    for served in (0, 500):
        z = np.concatenate([near, 10.0 + (np.arange(served) + 0.5) / 250.0])
        calls = []

        def recording(z):
            calls.append(z)
            return oscillating(z)

        got, none = _fourier._table_sums(z, 2.0, recording)
        assert none is None
        assert [c.size for c in calls] == [25 * 2**k + 25 * bool(served) * (k == 0) for k in range(6)] + [2000]
        assert np.array_equal(calls[-1], near)
        assert np.array_equal(got[:2000], oscillating(near)[0])
        assert np.all(np.abs(got[2000:] - 1.0) <= 1e-15)


def assert_fewer_node_rows_on_dense_panels(ay, alpha, terms, monkeypatch):
    """``_near_sums`` on ``ay`` tables only panels holding more points than
    nodes, in fewer node rows than ``ay`` has points."""
    rounds, cheb_table = [], _fourier._cheb_table

    def recording(tables, nodes, *args):
        rounds.append(nodes)
        return cheb_table(tables, nodes, *args)

    monkeypatch.setattr(_fourier, "_cheb_table", recording)
    _fourier._near_sums(ay, alpha, terms, envelope_cutoff(terms), grad=False)
    monkeypatch.undo()
    assert rounds and sum(nodes.size for nodes in rounds) < ay.size
    for row in np.concatenate(rounds):
        half = 0.5 * (row.max() - row.min()) / _fourier._CHEB_X[0]
        mid = 0.5 * (row.max() + row.min())
        assert np.count_nonzero((ay >= mid - half) & (ay < mid + half)) > _fourier._TABLE_NODES


@pytest.mark.parametrize(
    "n, top, alpha, terms",
    [
        (760, 60.0, 0.5, ((1.0, 0.5), (0.5, 1.0))),
        (760, 10.0, 0.5, ((1.0, 0.5), (0.5, 1.0))),
        (1001, 10.0, 0.3, ((1.0, 0.3), (1.0, 0.5))),
        (760, 4.0, 0.3, ((1.0, 0.3), (1.0, 0.5))),
        (2003, 1.0, 0.9, ((1.0, 0.9),)),
    ],
)
def test_the_table_sums_fewer_node_rows_than_the_batch_has_points(n, top, alpha, terms, monkeypatch):
    ay = np.random.default_rng(n).uniform(0.0, top, n)
    assert_fewer_node_rows_on_dense_panels(ay, alpha, terms, monkeypatch)


def test_d0_like_near_sums_table_no_sparse_panel(monkeypatch):
    # a stable sample like the benchmark's first n = 5000 dataset (alpha
    # 0.9) in the statistic at kappa = 1, whose sparse panels had taken most
    # of the node rows when every panel over [0, 60] was tabled
    assert_fewer_node_rows_on_dense_panels(near_points(0.9, 2006), 0.9, ((1.0, 0.9), (1.0, 1.0)), monkeypatch)


def test_table_takes_a_nodes_value_and_sums_a_panels_right_end_on_the_next_panel(monkeypatch):
    # 100 points a panel on [0, 20]; 20.0 lies on the panel [20, 22], alone,
    # so it is summed directly, on the grid its own |y| sets
    ay = np.random.default_rng(8).uniform(0.0, 20.0, 1000)
    nodes, _ = first_round(ay)
    ay[:3] = nodes[0, 4], nodes[7, 12], 20.0
    terms = ((1.0, 1.1), (1.0, 1.0))
    T = envelope_cutoff(terms)
    batches = grid_sums_batches(monkeypatch)
    got = _fourier._near_sums(ay, 1.1, terms, T)
    monkeypatch.undo()
    assert [b.size for b in batches] == [nodes.size, 1] and batches[1][0] == 20.0
    at_nodes = _grid_sums(nodes.ravel(), 1.1, terms, T)
    alone = _grid_sums(np.array([20.0]), 1.1, terms, T)
    direct = _grid_sums(ay, 1.1, terms, T)
    for g, table, top, w in zip(got, at_nodes, alone, direct):
        table = table.reshape(nodes.shape)
        assert g[0] == table[0, 4] and g[1] == table[7, 12] and g[2] == top[0]
        assert np.all(np.isfinite(g)) and np.max(np.abs(g - w)) <= 1e-14


def test_density_at_large_n_takes_the_table_where_it_passes(monkeypatch):
    # more than 750 near points go through _near_sums' y-table, within 2e-15
    # of the direct grid sums: on the first width-2 panels from alpha = 1.3,
    # on halved panels at alpha 0.9 and 1.2, where the first ones fail
    # their tail check.  Largest difference seen: 1.2e-15 (alpha = 0.9, f)
    passed, cheb_table = [], _fourier._cheb_table

    def recording(*args):
        ok, sums = cheb_table(*args)
        passed.append(bool(ok.all()))
        return ok, sums

    monkeypatch.setattr(_fourier, "_cheb_table", recording)
    for alpha in (0.9, 1.2, 1.3, 1.5, 1.7, 1.95):
        x = rand_stable(alpha, 5000, np.random.default_rng(9))
        passed.clear()
        f, fp, fa = pdf_batch(x, alpha)
        ax = np.abs(x)
        small = ax <= _crossover(alpha)
        assert np.count_nonzero(small) > 750
        g0, g1, ga = _grid_sums(ax[small], alpha, ((1.0, alpha),), _LOG_EPS ** (1.0 / alpha))
        fp_want = -g1 / math.pi
        got = (f[small], fp[small], fa[small])
        want = (g0 / math.pi, np.where(x[small] < 0, -fp_want, fp_want), -ga / math.pi)
        assert passed[-1] and (len(passed) > 1) == (alpha < 1.3)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 2e-15


def test_table_interpolates_the_same_bits_in_blocks(monkeypatch):
    # _cheb_table interpolates blocks of _BLOCK_CELLS // _TABLE_NODES points;
    # each point's formula reads only its own row, so the block size is invisible
    x = rand_stable(1.5, 3000, np.random.default_rng(12))
    terms = ((1.0, 1.5), (2.5, 1.0))
    T = envelope_cutoff(terms)
    ay = np.abs(x)[np.abs(x) <= 60.0]
    whole = _fourier._near_sums(ay, 1.5, terms, T)
    assert not np.array_equal(whole[0], _grid_sums(ay, 1.5, terms, T, grad=False)[0])  # the table served
    pdf = pdf_batch(x, 1.7)
    monkeypatch.setattr(_fourier, "_BLOCK_CELLS", 7 * _fourier._TABLE_NODES)
    for got, want in zip(_fourier._near_sums(ay, 1.5, terms, T) + pdf_batch(x, 1.7), whole + pdf):
        assert np.array_equal(got, want)


def test_density_table_memory_bounded():
    # 100,000 points: the table's barycentric arrays of shape (points, 25)
    # took the peak to 67 MB when formed all at once; in blocks it is 16 MB
    x = rand_stable(1.5, 100_000, np.random.default_rng(3))
    pdf_batch(x[:1000], 1.5)  # the crossover's cache
    tracemalloc.start()
    try:
        pdf_batch(x, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def closed_form_transforms(alpha, kappa, y):
    """c0 and s1 of the envelope exp(-|t|^alpha - kappa|t|) in closed form, alpha in {1, 2}."""
    if alpha == 2.0:
        # 2 int_0^inf exp(-t^2 - (kappa - iy) t) dt = sqrt(pi) w(z), w the Faddeeva function
        z = (y + 1j * kappa) / 2.0
        w = special.wofz(z)
        return math.sqrt(math.pi) * w.real, math.sqrt(math.pi) * (z * w).real
    a = 1.0 + kappa
    return 2.0 * a / (a**2 + y**2), 4.0 * a * y / (a**2 + y**2) ** 2


NEAR_MAGNITUDES = np.geomspace(1e-3, 60.0, 200)
DIRECT_POINTS = np.concatenate([NEAR_MAGNITUDES, -NEAR_MAGNITUDES[::3]])
TABLE_POINTS = np.concatenate([[1e-3, -1e-3, 60.0, -60.0], np.random.default_rng(0).uniform(-60.0, 60.0, 996)])
# points, bound on the absolute error of c0 and s1, and the batch sizes of
# the grid sums the route makes; the largest errors seen over the cases were
# 8.3e-15 (direct), 6.9e-15 (table) and 1.5e-11 (far, c0 at alpha = 2, kappa = 1)
CLOSED_FORM_ROUTES = {
    "direct": (DIRECT_POINTS, 2e-14, [DIRECT_POINTS.size]),
    "table": (TABLE_POINTS, 2e-14, [part.size for part in first_round(np.abs(TABLE_POINTS))]),
    "far": (np.concatenate([np.geomspace(60.5, 3000.0, 40), -np.geomspace(61.0, 2500.0, 7)]), 5e-11, []),
}


@pytest.mark.parametrize("route", CLOSED_FORM_ROUTES)
@pytest.mark.parametrize("kappa", [1.0, 2.5, 10.0])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_transforms_meet_their_closed_forms(alpha, kappa, route, monkeypatch):
    y, bound, grid_batches = CLOSED_FORM_ROUTES[route]
    batches = grid_sums_batches(monkeypatch)
    c0, s1, _ = cos_transforms(y, alpha, ((1.0, alpha), (kappa, 1.0)))
    assert [b.size for b in batches] == grid_batches
    want_c0, want_s1 = closed_form_transforms(alpha, kappa, y)
    assert np.max(np.abs(c0 - want_c0)) <= bound
    assert np.max(np.abs(s1 - want_s1)) <= bound
