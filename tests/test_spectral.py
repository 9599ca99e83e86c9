"""Nystrom eigenvalues: oracles, convergence, serialization."""

import math

import numpy as np
import pytest
from scipy import integrate

from stablegof.kernels import make_kernel, transformed_kernel
from stablegof.spectral import (
    Spectrum,
    build_spectrum,
    discretize,
    eigen_spectrum,
    midpoint_grid,
)


def fredholm_det(lam, spectrum, m=None):
    """Finite-product Fredholm determinant prod_{j<=m} (1 - lam/lambda_j).

    Moved here from ``stablegof.spectral``, where no package path called it.
    """
    lams = spectrum.lambdas if m is None else spectrum.lambdas[:m]
    return float(np.prod(1.0 - lam / lams))


@pytest.fixture(scope="module")
def spec_a1k1():
    return make_kernel("mle_h1", 1.0, 1.0)


@pytest.fixture(scope="module")
def spectrum_a1k1(spec_a1k1):
    return build_spectrum(spec_a1k1, 400)


def test_grid_is_midpoint_rule():
    xi = midpoint_grid(4)
    np.testing.assert_allclose(xi, [-0.75, -0.25, 0.25, 0.75])


def test_discretize_validates_n(spec_a1k1):
    with pytest.raises(ValueError):
        discretize(spec_a1k1, 15)
    with pytest.raises(ValueError):
        discretize(spec_a1k1, 21)


def test_matrix_exactly_symmetric(spec_a1k1):
    mat = discretize(spec_a1k1, 64)
    assert np.max(np.abs(mat - mat.T)) == 0.0


def test_central_nodes_near_zero(spec_a1k1):
    # no node sits exactly at u = 0, but the two central ones are within
    # 1/N of it and the kernel vanishes on the axes
    n = 64
    mat = discretize(spec_a1k1, n)
    mid = n // 2
    assert np.max(np.abs(mat[mid - 1 : mid + 1, :])) < 5.0 / n


def test_rank_one_kernel_oracle():
    # K(u,v) = g(u) g(v) with g = 1 - u^2 has one eigenvalue 1/int g^2 = 15/16
    n = 400
    xi = midpoint_grid(n)
    g = 1.0 - xi**2
    sp = eigen_spectrum(np.outer(g, g))
    assert len(sp.lambdas) == 1
    assert abs(sp.lambdas[0] - 15.0 / 16.0) < 1e-6


def test_trace_against_diagonal_quadrature():
    spec = make_kernel("mle_h1", 1.5, 2.5)
    n = 200
    mat = discretize(spec, n)
    diag, _ = integrate.quad(lambda u: float(transformed_kernel(u, u, spec)), -1, 1, limit=300)
    assert abs(np.trace(mat) * 2.0 / n - diag) < 0.01 * abs(diag)


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
    diag, _ = integrate.quad(
        lambda u: float(transformed_kernel(u, u, spec_a1k1)), -1, 1, limit=300
    )
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
