"""The near-grid sums of ``_fourier._grid_sums`` against the complex-exp route they replaced,
and its value-only route against its gradient route."""

import numpy as np
import pytest

from stablegof import _fourier
from stablegof._fourier import _LOG_EPS, _grid_sums, envelope_cutoff, panel_grid
from stablegof.stable_core import _crossover


def complex_exp_grid_sums(ay, alpha, terms, T):
    """Reference copy of the gradient route of ``_grid_sums`` before real cos/sin.

    Forms exp(i t y) with ``np.exp(1j * np.outer(ay, t))`` in one block and
    takes the three products on its real and imaginary parts.
    """
    t, w = panel_grid(T, float(np.max(ay)))
    phi = np.zeros_like(t)
    for c, p in terms:
        phi += c * t**p
    env = np.exp(-phi)
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
