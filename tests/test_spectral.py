"""Nystrom eigenvalues: oracles, the even/odd split, convergence, serialization."""

import math

import numpy as np
import pytest
from scipy import integrate

from stablegof.estimators import WeightSpec
from stablegof.inversion import default_inversion_config, quantile_dk
from stablegof.kernels import gamma, make_kernel
from stablegof.spectral import (
    Spectrum,
    build_spectrum,
    discretize,
    eigen_spectrum,
    midpoint_grid,
)
from test_kernels import old_kernel


def fredholm_det(lam, spectrum, m=None):
    """Finite-product Fredholm determinant prod_{j<=m} (1 - lam/lambda_j).

    Moved here from ``stablegof.spectral``, where no package path called it.
    """
    lams = spectrum.lambdas if m is None else spectrum.lambdas[:m]
    return float(np.prod(1.0 - lam / lams))


def discretize_full(spec, n, weight=None):
    """Full N x N kernel matrix K(xi_i, xi_j) on the midpoint grid (exactly symmetric).

    Reference copy of ``discretize`` before the even/odd split and the
    factor form: every entry is the kind's old pointwise formula
    (``test_kernels.old_kernel``; the EISE kinds need their ``weight``) at
    s = -sgn(xi) log(1 - |xi|) times the weight factor
    ((1 - |xi_i|)(1 - |xi_j|))^((kappa - 1)/2).  Its one eigensolve of order
    N is the oracle for the two of order N/2.
    """
    xi = midpoint_grid(n)
    a_xi = np.abs(xi)
    s = -np.sign(xi) * np.log1p(-a_xi)
    fac = ((1.0 - a_xi[:, None]) * (1.0 - a_xi[None, :])) ** (0.5 * (spec.kappa - 1.0))
    mat = old_kernel(spec, weight)(s[:, None], s[None, :]) * fac
    return 0.5 * (mat + mat.T)


def weighted_trace(spec):
    """Operator trace int Gamma(t, t) exp(-kappa|t|) dt over the line, which is E[D].

    Gamma(t, t) is even in t, so the integral is twice the half line's.
    """
    half, _ = integrate.quad(
        lambda t: float(gamma(t, t, spec)) * math.exp(-spec.kappa * t), 0.0, math.inf, limit=300
    )
    return 2.0 * half


@pytest.fixture(scope="module")
def spec_a1k1():
    return make_kernel("mle_h1", 1.0, 1.0)


@pytest.fixture(scope="module")
def spectrum_a1k1(spec_a1k1):
    return build_spectrum(spec_a1k1, 400)


def test_grid_is_midpoint_rule():
    xi = midpoint_grid(4)
    np.testing.assert_allclose(xi, [-0.75, -0.25, 0.25, 0.75])


@pytest.mark.parametrize("n", [16, 17, 400, 800])
def test_grid_is_mirrored_exactly(n):
    xi = midpoint_grid(n)
    np.testing.assert_allclose(xi, -1.0 + (2.0 * np.arange(1, n + 1) - 1.0) / n, rtol=0, atol=1e-15)
    assert np.array_equal(xi[::-1], -xi)
    if n % 2 == 0:
        assert np.array_equal(xi[n // 2 :], (2.0 * np.arange(1, n // 2 + 1) - 1.0) / n)


def test_discretize_validates_n(spec_a1k1):
    with pytest.raises(ValueError):
        discretize(spec_a1k1, 15)
    with pytest.raises(ValueError):
        discretize(spec_a1k1, 21)


def test_matrix_exactly_symmetric(spec_a1k1):
    blocks = discretize(spec_a1k1, 64)
    assert len(blocks) == 2
    for blk in blocks:
        assert blk.shape == (32, 32)
        assert np.max(np.abs(blk - blk.T)) == 0.0


def test_central_nodes_near_zero(spec_a1k1):
    # no node sits exactly at u = 0, but the two central ones are within
    # 1/N of it and the kernel vanishes on the axes; the first rows of the
    # blocks hold K(x_1, x_j) +- K(x_1, -x_j), so half their sum and half
    # their difference are the central node's row at every node
    n = 64
    even, odd = discretize(spec_a1k1, n)
    same, mirror = 0.5 * (even[0] + odd[0]), 0.5 * (even[0] - odd[0])
    assert np.max(np.abs(same)) < 5.0 / n
    assert np.max(np.abs(mirror)) < 5.0 / n


def test_rank_one_kernel_oracle():
    # K(u,v) = g(u) g(v) with g = 1 - u^2 has one eigenvalue 1/int g^2 = 15/16
    n = 400
    xi = midpoint_grid(n)
    g = 1.0 - xi**2
    sp = eigen_spectrum((np.outer(g, g),))
    assert len(sp.lambdas) == 1
    assert abs(sp.lambdas[0] - 15.0 / 16.0) < 1e-6
    assert sp.n_nodes == n


def test_trace_against_diagonal_quadrature():
    spec = make_kernel("mle_h1", 1.5, 2.5)
    n = 200
    even, odd = discretize(spec, n)
    trace = np.trace(even) + np.trace(odd)
    assert abs(trace - np.trace(discretize_full(spec, n))) <= 1e-13 * abs(trace)
    diag = weighted_trace(spec)
    assert abs(trace * 2.0 / n - diag) < 0.01 * abs(diag)


# the table_h1 benchmark's 24 cells, H2 cells through the Cauchy case and EISE cells
SPLIT_CELLS = (
    [("mle_h1", a, k) for a in (0.8, 1.0, 1.2, 1.5, 1.8, 1.9) for k in (1.0, 2.5, 5.0, 10.0)]
    + [("mle_h2", a, k) for a in (1.0, 1.5) for k in (1.0, 2.5, 5.0, 10.0)]
    + [(kind, a, 2.5) for kind in ("eise_h1", "eise_fixed") for a in (1.2, 1.7)]
)


@pytest.mark.parametrize("kind,alpha,kappa", SPLIT_CELLS)
def test_split_matches_full_matrix(kind, alpha, kappa):
    weight = WeightSpec("exp_power", 1.0, 1.5) if kind.startswith("eise") else None
    spec = make_kernel(kind, alpha, kappa, weight)
    n = 800
    full = eigen_spectrum((discretize_full(spec, n, weight),), spec)
    split = build_spectrum(spec, n)
    assert split.n_dropped == full.n_dropped
    assert split.n_nodes == full.n_nodes == n
    nu_full, nu_split = 1.0 / full.lambdas, 1.0 / split.lambdas
    assert np.max(np.abs(nu_split - nu_full)) <= 1e-14 * np.max(nu_full)
    cfg_full, cfg_split = default_inversion_config(full), default_inversion_config(split)
    assert cfg_split._table.structure == cfg_full._table.structure
    q_full, q_split = quantile_dk(0.05, cfg_full), quantile_dk(0.05, cfg_split)
    assert abs(q_split - q_full) <= 1e-12 * q_full


def test_cauchy_pairs_are_one_even_and_one_odd_eigenfunction():
    # with alpha = 1 fixed the spectrum is paired; each pair's two
    # eigenvalues come from different blocks, and within a block the
    # leading eigenvalues are simple
    even, odd = discretize(make_kernel("mle_h2", 1.0, 2.5), 800)
    top_even = np.linalg.eigvalsh(even)[-10:]
    top_odd = np.linalg.eigvalsh(odd)[-10:]
    np.testing.assert_allclose(top_even, top_odd, rtol=1e-6)
    assert np.min(np.diff(top_even) / top_even[:-1]) > 1e-3


def test_eigenvalues_stable_under_refinement(spec_a1k1, spectrum_a1k1):
    fine = build_spectrum(spec_a1k1, 800)
    coarse = spectrum_a1k1
    assert abs(fine.lambdas[0] / coarse.lambdas[0] - 1.0) < 0.003
    np.testing.assert_allclose(coarse.lambdas[:10], fine.lambdas[:10], rtol=0.01)


def test_no_multiplicities_away_from_cauchy():
    for alpha in (1.5, 1.8):
        sp = build_spectrum(make_kernel("mle_h1", alpha, 1.0), 200)
        lam = sp.lambdas[:20]
        assert np.min(np.diff(lam)) > 0.0
        assert np.min(np.diff(lam) / lam[1:]) > 1e-4


def test_fredholm_determinant(spectrum_a1k1):
    sp = spectrum_a1k1
    assert fredholm_det(0.0, sp, 50) == 1.0
    assert abs(fredholm_det(sp.lambdas[0], sp, 50)) < 1e-12
    # sign alternates between consecutive eigenvalues
    for j in range(4):
        mid = 0.5 * (sp.lambdas[j] + sp.lambdas[j + 1])
        assert math.copysign(1.0, fredholm_det(mid, sp, 50)) == (-1.0) ** (j + 1)


def test_trace_sum_matches_operator_trace(spectrum_a1k1, spec_a1k1):
    diag = weighted_trace(spec_a1k1)
    assert abs(spectrum_a1k1.trace_sum() - diag) < 0.01 * diag


def test_spectrum_roundtrip(tmp_path, spectrum_a1k1):
    path = tmp_path / "spec.spectrum"
    spectrum_a1k1.save(path)
    back = Spectrum.load(path)
    assert back.lambdas.dtype == spectrum_a1k1.lambdas.dtype
    assert back.lambdas.tobytes() == spectrum_a1k1.lambdas.tobytes()
    assert back.kind == spectrum_a1k1.kind
    assert back.alpha == spectrum_a1k1.alpha
    assert back.kappa == spectrum_a1k1.kappa
    assert back.n_dropped == spectrum_a1k1.n_dropped
    assert back.n_nodes == spectrum_a1k1.n_nodes == 400
