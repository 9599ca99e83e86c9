"""The near-grid sums of ``_fourier._grid_sums`` against the complex-exp route they replaced,
its value-only route against its gradient route, the scalar integrands of the far
points and moments against their ``sum``-over-a-generator forms, and the failure policy
of the far points' QAWO: one retry on a split interval, then QuadratureError."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

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
from stablegof.stable_core import _crossover


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
