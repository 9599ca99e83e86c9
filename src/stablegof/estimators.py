"""Fitting symmetric stable laws: maximum likelihood and EISE.

Both estimators are affine equivariant.  Both fits run on the sample
divided by a power of two near its IQR/2 (1 while IQR/2 lies in
[1/16, 16]) and scale mu and sigma back, so the optimizer's absolute
tolerances and scale floor act relative to the sample's scale.  The MLE
maximizes sum_j log f((x_j - mu)/sigma; alpha) - n log sigma using
analytic score functions built from the density derivatives; the EISE
minimizes the weighted integrated squared distance Q between the
empirical characteristic function of the standardized data and
exp(-|t|^alpha).
The two fits differ only in their objective: one bounded L-BFGS routine
runs both, with alpha free or fixed.

The module also computes the asymptotic ingredients both estimators feed
into the covariance kernels: the Fisher information matrix (one fixed
composite Gauss-Legendre rule over the half line, split at the tail-series
crossover, with every node's density from one ``pdf_batch`` call and the
rule at half the panel width as its error check) and the A/H/J matrices
plus the B constants of the EISE influence functions.  Both I and A are
block diagonal over (mu, sigma, alpha).  One helper, ``_covariance``,
turns them into each estimator's asymptotic covariance, V = I^-1 (MLE) or
V = A^-1 with J = V H V (EISE), through one restricted inverse: all three
parameters free, or alpha fixed, where the inverse covers (mu, sigma) only
and its alpha row and column are zero.  The covariance kernels and the
``estimate`` command's standard errors both read it.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy import optimize
from scipy.interpolate import CubicSpline

from ._fourier import (
    _BLOCK_CELLS,
    _DIRECT_MAX,
    _ONE_SIDED,
    _RULE_CELLS,
    _TWO_SIDED,
    _gl_panels,
    _graded_rule,
    _phi,
    _table_sums,
    cos_transforms,
    envelope_cutoff,
    envelope_moment,
)
from .errors import DataError, NonConvergenceError, QuadratureError
from .stable_core import StableParams, pdf_batch, _crossover, _gaussian_f_fp, _tail_series

__all__ = [
    "EiseMatrices",
    "WeightSpec",
    "FitResult",
    "fisher_info",
    "eise_matrices",
    "mle_fit",
    "eise_fit",
    "q_objective",
]


# ----------------------------------------------------------------------
# Fisher information
# ----------------------------------------------------------------------


def _restricted_inverse(m, free):
    """Inverse of block-diagonal ``m``'s leading ``free`` x ``free`` block, zero-padded to 3 x 3.

    ``m`` is diag(m11, [[m22, m23], [m23, m33]]) over (mu, sigma, alpha).
    ``free`` = 3 inverts all of it by the 2 x 2 block's closed form;
    ``free`` = 2 inverts diag(m11, m22), alpha fixed, and reads only that
    block.  Raises ValueError when the block is not positive definite.
    """
    if free == 3:
        det, adj = m[1, 1] * m[2, 2] - m[1, 2] ** 2, [[m[2, 2], -m[1, 2]], [-m[1, 2], m[1, 1]]]
    else:
        det, adj = m[1, 1], [[1.0]]
    if det <= 0 or m[0, 0] <= 0:
        raise ValueError("block-diagonal matrix not positive definite")
    v = np.zeros((3, 3))
    v[0, 0] = 1.0 / m[0, 0]
    v[1:free, 1:free] = np.divide(adj, det)
    return v


# dyadic levels of the Fisher rule: toward x = 0 on [0, xc], toward v = 0 on the tail map
_FISHER_NEAR_LEVELS = 14
_FISHER_TAIL_LEVELS = 40


def _fisher_rule(alpha, xc, halve):
    """Nodes x and weights of :func:`fisher_info`'s rule; ``halve`` splits every panel in two."""
    dyadic = xc * 2.0 ** -np.arange(_FISHER_NEAR_LEVELS, -1, -1.0)
    near = np.concatenate(
        [[0.0]]
        + [np.linspace(a, b, math.ceil(b - a) + 1)[:-1] for a, b in zip(dyadic[:-1], dyadic[1:])]
        + [[xc]]
    )
    v_edges = np.concatenate(([0.0], 2.0 ** -np.arange(_FISHER_TAIL_LEVELS, -1, -1.0)))
    if halve:
        near, v_edges = (
            np.sort(np.concatenate((e, 0.5 * (e[:-1] + e[1:])))) for e in (near, v_edges)
        )
    x, w = _gl_panels(near)
    v, wv = _gl_panels(v_edges)
    xt = xc * v ** (-1.0 / alpha)
    return np.concatenate((x, xt)), np.concatenate((w, wv * xt / (alpha * v)))


@lru_cache(maxsize=128)
def fisher_info(alpha):
    """Fisher information of the standard symmetric stable law, a read-only 3 x 3 array.

    Rows and columns are (mu, sigma, alpha); the matrix is block diagonal
    (I12 = I13 = 0 by symmetry of the density).  Entries are E[h_i h_j]
    with the score functions expressed through the density derivatives,
    integrated over the half line (the integrands are even) by one fixed
    composite Gauss-Legendre rule whose nodes all go through a single
    :func:`~stablegof.stable_core.pdf_batch` call.  The rule splits at the
    tail-series crossover xc: on [0, xc] its panels are graded dyadically
    toward 0 (down to xc 2^-14) and at most 1 wide; on [xc, inf) it
    integrates over v with x = xc v^(-1/alpha), where the integrand is
    bounded with a log^2 v end at v = 0, on panels graded dyadically down
    to 2^-40.

    The same rule at half the panel width is the error check: the finer
    result is returned, and :class:`~stablegof.errors.QuadratureError` is
    raised when the two differ by more than 1e-10 max|I|, or when a node
    gives f <= 0 or a non-finite product.  The result is as accurate as
    ``pdf_batch``, the density the MLE maximizes.  Against adaptive
    quadrature over the per-point ``pdf`` it agrees per entry to 1.5e-11
    relative for alpha in [0.8, 1.99], 2e-13 on [1.0, 1.9] and 3.1e-11 at
    1.999; to 1.7e-9 at alpha = 0.5 and 8.5e-10 at 0.4, where
    ``pdf_batch``'s own near-grid error dominates (the same rule over
    ``pdf`` agrees to 6e-13).  It meets the Cauchy closed form to 2.2e-14
    absolute.  alpha = 2 is rejected: the information for the
    characteristic exponent diverges there.
    """
    alpha = float(alpha)
    if not (0 < alpha < 2):
        raise ValueError(f"fisher_info requires 0 < alpha < 2, got {alpha}")
    xc = _crossover(alpha)
    x0, w0 = _fisher_rule(alpha, xc, halve=False)
    x1, w1 = _fisher_rule(alpha, xc, halve=True)
    x = np.concatenate((x0, x1))
    f, fp, fa = pdf_batch(x, alpha)
    fs = -f - x * fp  # location-scale identity for the sigma derivative
    with np.errstate(all="ignore"):
        g = np.stack([fp * fp, fs * fs, fs * fa, fa * fa]) / f
    if not (np.all(f > 0) and np.all(np.isfinite(g))):
        raise QuadratureError(
            f"fisher_info: density not positive or score product not finite at alpha={alpha}"
        )
    coarse = 2.0 * (g[:, : x0.size] @ w0)
    vals = 2.0 * (g[:, x0.size :] @ w1)
    err = float(np.max(np.abs(vals - coarse)))
    if not err <= 1e-10 * float(np.max(np.abs(vals))):
        raise QuadratureError(
            f"fisher_info: half-width error estimate {err:.3g} too large at alpha={alpha}"
        )
    info = np.array([[vals[0], 0.0, 0.0], [0.0, vals[1], vals[2]], [0.0, vals[2], vals[3]]])
    info.setflags(write=False)
    return info


# ----------------------------------------------------------------------
# EISE weight and asymptotic matrices
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """Even weight function for the EISE criterion.

    kind "exp_abs" is w(t) = exp(-kappa |t|); kind "exp_power" is
    w(t) = exp(-nu |t|^bar_alpha).  The kind is a label: every route
    follows :meth:`terms`, so ``exp_power`` at bar_alpha = 1 is ``exp_abs``.
    """

    kind: str
    kappa_or_nu: float
    bar_alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("exp_abs", "exp_power"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not (0 < self.kappa_or_nu < math.inf):
            raise ValueError(f"weight constant must be finite and positive, got {self.kappa_or_nu}")
        if self.kind == "exp_power":
            if self.bar_alpha is None or not (0 < self.bar_alpha <= 2):
                raise ValueError("exp_power weight needs bar_alpha in (0, 2]")

    def terms(self):
        """Exponent terms (c, p) so that w(t) = exp(-sum c t^p) on t >= 0."""
        return ((self.kappa_or_nu, 1.0 if self.kind == "exp_abs" else self.bar_alpha),)

    def values(self, t):
        return np.exp(-_phi(np.abs(np.asarray(t, dtype=float)), self.terms()))


@dataclass(frozen=True)
class EiseMatrices:
    """A, H and J = A^-1 H A^-1 of the EISE influence functions."""

    A: np.ndarray
    H: np.ndarray
    J: np.ndarray
    Bsigma: float
    Balpha: float


def _inner_values(alpha, weight, s):
    """The EISE inner integrals (M1, M2, M3) at each s >= 0, shape (s.size, 3).

    M1(s) = int exp(-|s-u|^a - |u|^a) u          w(u) du   (odd in s)
    M2(s) = int exp(-|s-u|^a - |u|^a) |u|^a       w(u) du   (even)
    M3(s) = int exp(-|s-u|^a - |u|^a) |u|^a ln|u| w(u) du   (even)

    The integrals run over [-U, U], U the cutoff of exp(-|u|^alpha) w(u),
    split at the cusps u = 0 and u = s, and every interval takes one of the
    two unit rules of ``_fourier`` (formed at import), so no row builds a
    rule:

    - [-U, 0] (every row) and [0, U] (rows with s >= U) have nodes that do
      not depend on s.  Their u-only factors are formed once per call; a
      row forms exp(-|s-u|^a) at 460 nodes and one product with the
      (nodes x 3) matrix of weighted factors.
    - [0, s] (0 < s < U) is u = s v on the two-sided unit rule, so
      |u|^a = s^a v^a, |s-u|^a = s^a (1-v)^a, ln u = ln s + ln v and the
      weight's exponent is sum c s^p v^p: a row costs one exp per node and
      one product with the (nodes x 3) matrix of unit-rule factors.
    - [s, U] (s < U) is u = s + (U-s) v on the one-sided rule, with
      |s-u|^a = (U-s)^a v^a; only this interval forms u-factors per row.

    [-U, 0], [0, U] and [s, U] have a cusp at one end only and are graded
    toward it (460 nodes); [0, s] keeps the two-sided rule (840 nodes).
    Row blocks hold at most ``_RULE_CELLS`` (row, node) cells.  A call
    takes about 20 ms on the 840 nodes of :func:`eise_matrices` and on the
    2048-node kernel grid (2 vCPUs), against 80-140 ms with a rule per row.

    On those nodes, alpha in [0.5, 2] and the weights exp(-|t|),
    exp(-|t|^0.7) and exp(-2.5|t|^1.5), the values agree with a two-sided
    rule per interval and row to 1.8e-15 of each column's largest |M|.
    Against 30-digit mpmath they were within 3e-16 absolute for alpha and
    the weight's exponent >= 0.5 (the tests hold 1e-14).  At alpha =
    bar_alpha = 0.3, U = 2.5e4 makes the innermost panel 2^-41 U = 1.1e-8
    wide, and M3(0) is 4.6e-13 off.  Raises QuadratureError on a
    non-finite value.
    """
    terms = weight.terms()
    U = envelope_cutoff(((1.0, alpha),) + terms)
    v1, w1 = _ONE_SIDED
    v2, c2, w2 = _TWO_SIDED
    # [0, U] graded toward 0; [-U, 0] is its mirror, with M1's factor negated
    u = U * v1
    ua = u**alpha
    we = U * w1 * np.exp(-ua - _phi(u, terms))
    pos = np.stack((we * u, we * ua, we * ua * np.log(u)), axis=1)
    neg = pos * np.array([-1.0, 1.0, 1.0])
    # [0, s]: a row's exponent is (s^a, c s^p, ...) @ g, its sums s^2 or s^(1+a) times @ unit
    v2a = v2**alpha
    g = np.stack([v2a + c2**alpha] + [v2**p for _, p in terms])
    unit = np.stack((w2 * v2, w2 * v2a, w2 * v2a * np.log(v2)), axis=1)
    v1a = v1**alpha
    out = np.zeros((s.size, 3))

    def blocks(idx, nodes):
        step = max(1, _RULE_CELLS // nodes)
        for lo in range(0, idx.size, step):
            blk = idx[lo : lo + step]
            yield blk, s[blk, None]

    # exp(-|s-u|^a) is below the smallest normal float (where numpy's exp
    # takes a slow path) once |s-u| >= reach, so a row that far from an
    # interval skips it; s >= U is the only test, so a NaN s takes [s, U]
    reach = (-math.log(np.finfo(float).tiny)) ** (1.0 / alpha)
    past = s >= U
    for blk, sb in blocks(np.flatnonzero(s < reach), v1.size):
        out[blk] += np.exp(-((sb + u) ** alpha)) @ neg
    for blk, sb in blocks(np.flatnonzero(past & (s < U + reach)), v1.size):
        out[blk] += np.exp(-((sb - u) ** alpha)) @ pos
    for blk, sb in blocks(np.flatnonzero(~past), v1.size):
        length = U - sb
        ub = sb + length * v1
        uba = ub**alpha
        e = length * w1 * np.exp(-(length**alpha) * v1a - uba - _phi(ub, terms))
        out[blk, 0] += np.einsum("ij,ij->i", e, ub)
        e *= uba
        out[blk, 1] += np.sum(e, axis=1)
        out[blk, 2] += np.einsum("ij,ij->i", e, np.log(ub))
    for blk, sb in blocks(np.flatnonzero(~past & (s > 0)), v2.size):
        sa = sb**alpha
        m = np.exp(-(np.hstack([sa] + [c * sb**p for c, p in terms]) @ g)) @ unit
        m[:, 2] += np.log(sb[:, 0]) * m[:, 1]
        out[blk] += sb * np.hstack((sb, sa, sa)) * m
    if not np.all(np.isfinite(out)):
        raise QuadratureError(f"EISE inner integrals not finite at alpha={alpha}, {weight}")
    return out


@lru_cache(maxsize=128)
def eise_matrices(alpha, weight):
    """Compute the EISE A/H/J matrices and B constants at one alpha.

    Everything is a sum over one graded Gauss-Legendre rule in s on [0, T],
    T the cutoff of exp(-s^alpha) w(s), with Phi = exp(-s^alpha) and
    g = 2 Phi w(s) times the rule weight.  A and the B constants are sums of
    g Phi times powers and logs of s.  Each H entry is a double integral over
    (s, t); integrating over t first (Fubini) turns it into a single
    integral of the kernel's inner integrals (:func:`_inner_values`), minus
    Phi(s) times a B moment for the mean term.  The rule's 840 nodes all
    lie below the cutoff U = T of the inner integrals, so each takes the
    [0, s] and [s, U] intervals of :func:`_inner_values`, which is nearly
    all of a call's cost (about 20 ms on 2 vCPUs).  For alpha in [0.5, 2]
    and exp_abs and exp_power weights, A and the B constants agree with the
    adaptive :func:`~stablegof._fourier.envelope_moment` (epsrel 1e-11) to
    4e-13 relative, H with a tensor rule over (s, t) to 3e-15 and J to
    3e-13.  Where the adaptive moment misses its epsrel (A22 by 6.7e-11 at
    alpha = 7/6 with the weight exp(-2|t|^0.7)), the rule is within 1e-14
    of mpmath.  Memoized on (alpha, weight) like :func:`fisher_info`; the
    returned arrays are read-only.
    """
    if not (0 < alpha <= 2):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    s, ws = _graded_rule(0.0, envelope_cutoff(((1.0, alpha),) + weight.terms()))
    sa, ls = s**alpha, np.log(s)
    phi = np.exp(-sa)
    g = 2.0 * ws * phi * weight.values(s)
    e2 = g * phi
    e2a = e2 * sa
    b0, b1 = np.sum(e2a), np.sum(e2a * ls)
    m0, m1, m2 = np.sum(e2a * sa), np.sum(e2a * sa * ls), np.sum(e2a * sa * ls**2)
    A = np.array([[np.sum(e2 * s**2), 0, 0], [0, alpha**2 * m0, alpha * m1], [0, alpha * m1, m2]])
    m = _inner_values(alpha, weight, s)
    gsa = g * sa
    c2, c3 = m[:, 1] - phi * b0, m[:, 2] - phi * b1
    h00, h11, h22 = np.sum(g * s * m[:, 0]), alpha**2 * np.sum(gsa * c2), np.sum(gsa * ls * c3)
    h12 = 0.5 * alpha * (np.sum(gsa * ls * c2) + np.sum(gsa * c3))
    H = np.array([[h00, 0, 0], [0, h11, h12], [0, h12, h22]])
    ainv = _restricted_inverse(A, 3)
    J = ainv @ H @ ainv
    for mat in (A, H, J):
        mat.setflags(write=False)
    return EiseMatrices(A=A, H=H, J=J, Bsigma=alpha * b0, Balpha=b1)


def _covariance(alpha, free, weight=None):
    """(V, J, em) of the estimator over the ``free`` leading parameters of (mu, sigma, alpha).

    J is the asymptotic covariance of sqrt(n) (theta_hat - theta) at the
    standard law (sigma = 1); V is the inverse the covariance kernels read.
    The MLE (``weight`` None) has V = J = I^-1, with I from
    :func:`fisher_info`, or at alpha = 2 with alpha fixed the N(0, 2) closed
    forms I11 = 1/2, I22 = 2; ``em`` is None.  The EISE under ``weight`` has
    V = A^-1 and J = V H V, with ``em`` the :func:`eise_matrices` they come
    from (the EISE kernels read its B constants too).  Both inverses are
    :func:`_restricted_inverse`: ``free`` = 3 covers all three parameters,
    ``free`` = 2 (alpha fixed) only (mu, sigma), with alpha's row and column
    zero.
    """
    if weight is not None:
        em = eise_matrices(alpha, weight)
        V = _restricted_inverse(em.A, free)
        return V, V @ em.H @ V, em
    info = np.diag([0.5, 2.0]) if alpha == 2.0 and free == 2 else fisher_info(alpha)
    V = _restricted_inverse(info, free)
    return V, V, None


# ----------------------------------------------------------------------
# profile-likelihood initialization shared by both fitters
# ----------------------------------------------------------------------

_INIT_ALPHA_GRID = tuple(np.round(np.arange(0.5, 2.0001, 0.05), 10))
_ALPHA_MIN, _ALPHA_MAX = 0.3, 2.0
_SIGMA_MIN = 1e-6
_MAXITER = 300  # the iteration cap of both fits


# knots of the log-density splines, uniform in u = asinh|x| up to |x| = 1e9
_LOGF_KNOTS = np.linspace(0.0, math.asinh(1e9), 480)
# (sigma, x) cells per block of the profile grid search: a block holds about
# eight float arrays of that size, near 4 MB in all
_GRID_CELLS = 2**16


@lru_cache(maxsize=128)
def _log_density_coefficients(alpha):
    """Per-interval coefficients (c3, c2, c1, c0) of the cubic spline of log f in u."""
    f, _, _ = pdf_batch(np.sinh(_LOGF_KNOTS), alpha)
    c = CubicSpline(_LOGF_KNOTS, np.log(np.maximum(f, 1e-300))).c
    return c[3], c[2], c[1], c[0]


def _logf_lookup(alphas, ax):
    """Yield log f(|x|; alpha) at array ``ax`` for each of ``alphas`` in turn.

    Up to |x| = 1e9 the value comes from the cached cubic spline of log f in
    u = asinh|x|.  Every alpha's spline has the same knots, so the interval
    search and the powers of the offset s = u - u_i are formed once for all
    alphas, and each alpha costs ((c3 + c2 s) + c1 s^2) + c0 s^3 with
    s^3 = (s s) s: the order in which scipy's ``PPoly`` evaluates, on its
    intervals closed on the left (the last one on both ends), so the values
    equal ``CubicSpline.__call__``'s bit for bit.

    The series is summed in linear space and underflows once x^(alpha+1)
    nears 1e300, so beyond x_far = 10^(250/(alpha+1)), where f(x_far) is
    about 1e-250 and the series' corrections to x^-(alpha+1) are below
    x_far^-alpha, log f continues from x_far as a straight line in log x.
    """
    u = np.arcsinh(ax)
    end = _LOGF_KNOTS[-1]
    uc = np.minimum(u, end)
    i = np.minimum(np.searchsorted(_LOGF_KNOTS, uc, side="right") - 1, _LOGF_KNOTS.size - 2)
    s = uc - _LOGF_KNOTS[i]
    s2 = s * s
    s3 = s2 * s
    big = u > end
    axb = ax[big]
    for alpha in alphas:
        c3, c2, c1, c0 = _log_density_coefficients(alpha)
        out = c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * s3
        if axb.size:
            if alpha == 2.0:
                out[big] = -0.25 * axb**2 - math.log(2.0 * math.sqrt(math.pi))
            else:
                xb = np.minimum(axb, 10.0 ** (250.0 / (alpha + 1.0)))
                out[big] = np.log(_tail_series(xb, alpha)[0]) - (alpha + 1.0) * np.log(axb / xb)
        yield out


def _grid_init(x, fix_alpha=None):
    """Median location plus profile grid search over (sigma, alpha).

    The log-likelihood at every grid point comes from :func:`_logf_lookup`,
    over blocks of sigma rows of at most ``_GRID_CELLS`` (sigma, x) cells, so
    memory stays bounded for large samples; each row's sum runs over the
    whole sample, so it does not depend on the block.
    """
    mu0 = float(np.median(x))
    q75, q25 = np.percentile(x, [75, 25])
    iqr = max(q75 - q25, 1e-12)
    sigma_grid = 0.5 * iqr * np.logspace(math.log10(0.15), math.log10(8.0), 40)
    ax = np.abs(x - mu0)
    grid = (fix_alpha,) if fix_alpha is not None else _INIT_ALPHA_GRID
    n_log_sigma = len(x) * np.log(sigma_grid)
    ll = np.empty((len(grid), sigma_grid.size))
    rows = max(1, _GRID_CELLS // ax.size)
    for lo in range(0, sigma_grid.size, rows):
        blk = slice(lo, lo + rows)
        for ll_a, lf in zip(ll, _logf_lookup(grid, ax[None, :] / sigma_grid[blk, None])):
            ll_a[blk] = lf.sum(axis=1) - n_log_sigma[blk]
    best = (-np.inf, sigma_grid[0], grid[0])
    for a, ll_a in zip(grid, ll):
        i = int(np.argmax(ll_a))
        if ll_a[i] > best[0]:
            best = (float(ll_a[i]), float(sigma_grid[i]), float(a))
    return mu0, best[1], best[2]


# ----------------------------------------------------------------------
# maximum likelihood
# ----------------------------------------------------------------------


@dataclass
class FitResult:
    """A converged fit: parameters, L-BFGS-B iterations and the final objective.

    A returned fit has converged; a failed fit raises
    :class:`~stablegof.errors.NonConvergenceError` with its best iterate, a
    FitResult, in ``.best``.
    """

    params: StableParams
    n_iter: int
    objective: float
    boundary_alpha: bool = False


def _accepted(res, bounds):
    """Whether an L-BFGS-B result counts as converged.

    A line search can abort at the floating-point floor of the objective
    while the projected gradient (a component at a bound of ``bounds`` that
    points out of the box reads as 0) is already at its achievable minimum,
    every component within 1e-6; such exits are solutions, not failures.
    """
    if res.success:
        return True
    lo, hi = np.array(bounds, dtype=float).T  # None reads as nan: no bound
    out = ((res.x <= lo) & (res.jac > 0)) | ((res.x >= hi) & (res.jac < 0))
    return bool(np.max(np.abs(np.where(out, 0.0, res.jac))) <= 1e-6)


def _scale_exponent(x):
    """The k for which the fits run on x / 2^k: round(log2(IQR/2)).

    k is 0 while IQR/2 lies in [2^-4, 2^4], and where the IQR is 0.
    """
    q75, q25 = np.percentile(x, [75, 25])
    half = 0.5 * float(q75 - q25)
    if half == 0.0 or 2.0**-4 <= half <= 2.0**4:
        return 0
    return round(math.log2(half))


def _lbfgs_fit(x, objective, estimator, report, fix_alpha, tolerances):
    """Bounded L-BFGS fit of (mu, sigma, alpha) shared by both estimators.

    The fit runs on x / 2^k, k from :func:`_scale_exponent`, and its mu and
    sigma are multiplied by 2^k; both steps are exact.  So the absolute
    tolerances and the floor ``_SIGMA_MIN`` act relative to the sample's
    scale, and a sample and its power-of-two multiples give the same alpha.
    ``objective(xs, mu, sigma, alpha)`` returns the value on the scaled
    sample ``xs`` and its 3-gradient.  A fixed alpha is dropped from the
    optimizer's variables (not pinned by equal bounds), so L-BFGS-B sees
    the two-parameter (mu, sigma) problem.  ``tolerances`` holds the
    estimator's gtol and ftol, and the cap is ``_MAXITER`` iterations.
    ``report(value, k)`` maps the final value to
    :attr:`FitResult.objective` on the unscaled sample.  Raises
    :class:`~stablegof.errors.NonConvergenceError` carrying the best iterate
    if the optimizer gives up or ends with sigma at its floor.
    """
    k = _scale_exponent(x)
    x = np.ldexp(x, -k)
    # the fits standardize by a scale of at least _SIGMA_MIN
    _check_spread(x, _SIGMA_MIN)
    if fix_alpha is not None and not (0 < fix_alpha <= 2):
        raise ValueError(f"fix_alpha must be in (0, 2], got {fix_alpha}")
    mu0, s0, a0 = _grid_init(x, fix_alpha=fix_alpha)
    free = fix_alpha is None
    alpha = None if free else float(fix_alpha)
    x0, bounds = [mu0, s0], [(None, None), (_SIGMA_MIN, None)]
    if free:
        x0.append(min(max(a0, _ALPHA_MIN), _ALPHA_MAX))
        bounds.append((_ALPHA_MIN, _ALPHA_MAX))

    def fun(theta):
        val, g = objective(x, theta[0], theta[1], theta[2] if free else alpha)
        return val, g[: theta.size]

    res = optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                            options={"maxiter": _MAXITER, **tolerances})
    a_hat = float(res.x[2]) if free else alpha
    # a scale pinned at its floor is a degenerate fit (a likelihood spike on
    # tied points), however the optimizer ended
    floored = float(res.x[1]) <= _SIGMA_MIN
    result = FitResult(
        params=StableParams(math.ldexp(float(res.x[0]), k), math.ldexp(float(res.x[1]), k), a_hat),
        n_iter=int(res.nit),
        objective=report(float(res.fun), k),
        boundary_alpha=free and a_hat >= _ALPHA_MAX - 1e-8,
    )
    if floored or not _accepted(res, bounds):
        why = f"scale at its lower bound {math.ldexp(_SIGMA_MIN, k):g}" if floored else res.message
        raise NonConvergenceError(f"{estimator.upper()} did not converge: {why}", best=result)
    return result


def _check_spread(x, sigma):
    """Refuse a sample whose differences (x_j - x_k)/sigma overflow, without overflowing."""
    if np.max(x) / 2 - np.min(x) / 2 > np.finfo(float).max / 2 * min(sigma, 1.0):
        raise DataError(f"sample spread too wide: differences over scale {sigma:g} overflow")


def _check_sample(data):
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 5:
        raise DataError(f"need at least 5 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DataError("sample contains non-finite values")
    if np.max(x) == np.min(x):
        raise DataError("degenerate sample: all observations identical")
    return x


def mle_fit(data, fix_alpha=None):
    """Maximum likelihood fit of (mu, sigma, alpha).

    Starts from the sample median and a profile-likelihood grid over
    (sigma, alpha), then runs bounded L-BFGS ascent with analytic scores.
    ``fix_alpha`` freezes the characteristic exponent (the fixed-alpha
    hypothesis), fitting location and scale only.  An estimate pinned at
    the upper alpha bound is flagged as a boundary solution.  Raises
    :class:`~stablegof.errors.NonConvergenceError` (carrying the best
    iterate) if the optimizer gives up, or if sigma ends at its lower bound
    1e-6 (times the power of two the sample is scaled by, see
    :func:`_lbfgs_fit`), where the likelihood of a sample with tied points
    is unbounded.
    """
    x = _check_sample(data)
    n = x.size

    def negll(xs, mu, sigma, alpha):
        y = (xs - mu) / sigma
        f, fp, fa = pdf_batch(y, alpha)
        f = np.maximum(f, 1e-300)
        r = fp / f
        val = -(np.log(f).mean() - math.log(sigma))
        g = np.array([r.mean() / sigma, (1.0 + (y * r).mean()) / sigma, -(fa / f).mean()])
        return val, g

    # the log-likelihood of x is that of x / 2^k less n k log 2
    return _lbfgs_fit(x, negll, "mle", lambda fun, k: -fun * n - n * k * math.log(2.0), fix_alpha,
                      {"gtol": 1e-8, "ftol": 1e-13})


# ----------------------------------------------------------------------
# EISE criterion and fit
# ----------------------------------------------------------------------


def _w0_and_deriv(d, weight, grad):
    """W0(d) = int cos(td) w(t) dt over the real line for the weight
    w(t) = exp(-nu |t|^p), p != 1, and, with ``grad``, dW0/dd (else None).

    W0(d) = 2 pi c f(c d; p) with c = nu^(-1/p).  The density is
    evaluated once per distinct |c d|, in one ``pdf_batch`` call, and
    scattered back with the sign of f' restored: d_kj = -d_jk and the
    diagonal is zero, so a square of pair differences holds about half as
    many distinct values as cells.  At p = 2, f and f' come from the
    closed form of N(0, 2) that ``pdf_batch`` returns there, without the
    grid sums it forms first.  Up to 750 near points ``pdf_batch``
    computes each point from its |x| alone and the batch's max |x|, which
    is kept, and above 750 from the y-table's panels that hold more than
    25 of them.  So the result is bit-identical to one call over every cell
    where both batches are 750 or fewer near points, or table the same
    panels, and within the table's accuracy (about 1e-15 absolute on f and
    f') otherwise, as in a tied sample.
    """
    ((nu, p),) = weight.terms()
    c = nu ** (-1.0 / p)
    cd = c * d
    u, inv = np.unique(np.abs(cd).ravel(), return_inverse=True)
    fu, fpu = _gaussian_f_fp(u) if p == 2.0 else pdf_batch(u, p)[:2]
    w0 = 2.0 * math.pi * c * fu[inv].reshape(d.shape)
    if not grad:
        return w0, None
    fp = fpu[inv].reshape(d.shape)
    return w0, 2.0 * math.pi * c * c * np.where(cd < 0, -fp, fp)


def _cauchy_rows(z, x, sigma, kappa, grad):
    """sum_k W0(d_ik) and, with ``grad``, sum_k W0'(d_ik) d_ik for each i, with
    W0(d) = 2 kappa/(kappa^2 + d^2) and d_ik = (z_i - x_k)/sigma.

    The rows are formed in blocks of at most ``_BLOCK_CELLS`` cells, in
    place in one buffer (two with ``grad``): d, d^2, kappa^2 + d^2, then
    W0.  W0'(d) d is -4 kappa (d/(kappa^2 + d^2))^2, which neither cancels
    near d = 0 nor makes inf/inf where d^2 overflows.  W0 takes the same
    operations with or without ``grad``, so its sums are the same bits.
    Each row is summed along its own cells by numpy's pairwise sum, so a
    row's sums depend on its z_i alone, whatever its block.
    """
    n = x.size
    f0 = np.empty(z.size)
    f1 = np.empty(z.size) if grad else None
    rows = max(1, _BLOCK_CELLS // n)
    a = np.empty((min(rows, z.size), n))
    b = np.empty_like(a) if grad else None
    k2, two_k = kappa * kappa, 2.0 * kappa
    with np.errstate(over="ignore"):  # d^2 = inf only where W0 and W0' d are 0
        for lo in range(0, z.size, rows):
            blk = slice(lo, lo + rows)
            d = a[: z[blk].size]
            np.subtract(z[blk, None], x, out=d)
            np.divide(d, sigma, out=d)
            if grad:
                den = b[: d.shape[0]]
                np.multiply(d, d, out=den)
                np.add(den, k2, out=den)
                np.divide(d, den, out=d)
                np.divide(two_k, den, out=den)
                f0[blk] = den.sum(axis=1)
                np.multiply(d, d, out=d)
                f1[blk] = -4.0 * kappa * d.sum(axis=1)
            else:
                np.multiply(d, d, out=d)
                np.add(d, k2, out=d)
                np.divide(two_k, d, out=d)
                f0[blk] = d.sum(axis=1)
    return f0, f1


def _pair_table(x, sigma, kappa, grad):
    """The exp(-kappa|t|) pair sums of :func:`_pair_sums`: the rows of
    :func:`_cauchy_rows` through ``_fourier._table_sums``, on panels
    h = kappa sigma wide in x.

    F0(z) = sum_k W0((z - x_k)/sigma) has its poles at x_k +- i kappa sigma,
    so on a panel h wide its Chebyshev coefficients fall like
    (2 + sqrt 5)^-k: 25 nodes reach rounding.  So does F1(z) =
    sum_k W0'(d) d, with double poles at the same places.  Above 750 points
    the sample is first measured from its median, so a sample far from 0
    keeps its digits on the panels; up to 750 every row is direct and keeps
    its bits.  The tail check reads F0 alone, so the value and gradient
    routes choose alike and give the same s0; F0 > 25/kappa on a tabled
    panel, so the check is relative to F0 for kappa up to 25.  On n = 5000
    stable samples (alpha 0.5 to 1.95, kappa 1 to 10, locations 0 to 1e12)
    the sums were within 1.2e-16 (s0) and 1.9e-16 (s1) relative of the
    full-matrix sums.
    """
    if x.size > _DIRECT_MAX:
        x = x - np.median(x)
    f0, f1 = _table_sums(x, float(kappa) * float(sigma), lambda z: _cauchy_rows(z, x, sigma, kappa, grad))
    return float(np.sum(f0)), float(np.sum(f1)) if grad else 0.0


def _pair_sums(x, sigma, weight, grad):
    """sum_jk W0(d_jk) and, with ``grad``, sum_jk W0'(d_jk) d_jk, d_jk = (x_j - x_k)/sigma.

    The weight's exponent picks the route, not its kind: at exponent 1 both
    sums come from :func:`_pair_table`.  Otherwise both summands are even
    in d, so each row block [start, stop) of at most ``_BLOCK_CELLS`` pairs
    (as in ``_fourier._grid_sums``) is summed over its own square of columns
    [start, stop) once and over the columns [stop, n) twice: about n^2/2
    density evaluations, in bounded memory.  A block's distinct differences
    go to ``pdf_batch`` in one call, which takes more than 750 near points
    from the density's Chebyshev y-table; at exponent 2 they take the
    closed form of N(0, 2) instead.  Up to n = 512 one block holds
    every row, the square is the whole matrix and nothing is doubled.  The
    sums still run over every cell of the square, in row order: only the
    density evaluations inside :func:`_w0_and_deriv` are shared between
    mirrored cells, so the sums are those of the full square to the last
    bit wherever the distinct differences take the density route of every
    cell (see :func:`_w0_and_deriv`).
    """
    ((c, p),) = weight.terms()
    if p == 1:
        return _pair_table(x, sigma, c, grad)
    n = x.size
    s0 = s1 = 0.0
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = x[start:stop, None]
        for cols, mult in ((slice(start, stop), 1.0), (slice(stop, n), 2.0)):
            if cols.start == cols.stop:
                continue
            # the square and the rectangle are formed one after the other to
            # bound peak memory
            d = (rows - x[None, cols]) / sigma
            w0, w0p = _w0_and_deriv(d, weight, grad)
            s0 += mult * float(np.sum(w0))
            if grad:
                s1 += mult * float(np.sum(w0p * d))
    return s0, s1


def q_objective(data, params, weight, grad=False):
    """EISE criterion Q via the pairwise cosine expansion.

    Q = (1/n^2) sum_jk W0((x_j-x_k)/sigma) - (2/n) sum_j W1(y_j) + W2 with
    W0, W1, W2 the weighted cosine integrals; all three are evaluated
    against the characteristic-function envelope, so heavy outliers are
    exact rather than aliased.  The pair sum over W0 comes from
    :func:`_pair_sums`: at the weight exponent 1, from full rows and, above
    750 points, a Chebyshev table in x, within about 2e-16 relative of the
    full-matrix sum.  With ``grad=True`` also returns dQ/dtheta;
    without it only the value's transform W1 is formed (see
    ``_fourier.cos_transforms``), and Q is the one returned with ``grad`` to
    the last bit.  With the weight exp(-kappa|t|), n*Q is the test
    statistic D.
    """
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    mu, sigma, alpha = params.mu, params.sigma, params.alpha
    w0_sum, w0p_sum = _pair_sums(x, sigma, weight, grad)
    y = (x - mu) / sigma
    terms1 = ((1.0, alpha),) + weight.terms()
    c0, s1, ca = cos_transforms(y, alpha, terms1, grad=grad)
    terms2 = ((2.0, alpha),) + weight.terms()
    w2 = envelope_moment(terms2)
    q = w0_sum / (n * n) - 2.0 * c0.mean() + w2
    if not grad:
        return q
    w1p = -s1  # d/dy of the cosine transform
    dq_mu = 2.0 / sigma * w1p.mean()
    dq_sigma = -(w0p_sum / (n * n)) / sigma + 2.0 / sigma * (y * w1p).mean()
    w2a = -2.0 * envelope_moment(terms2, power=alpha, logpow=1)
    dq_alpha = 2.0 * ca.mean() + w2a
    return q, np.array([dq_mu, dq_sigma, dq_alpha])


def eise_fit(data, weight, fix_alpha=None):
    """Fit (mu, sigma, alpha) by minimizing the EISE criterion Q.

    Initialization reuses the profile-likelihood grid of :func:`mle_fit`;
    the minimization is bounded L-BFGS with the analytic gradient of Q.
    ``fix_alpha`` freezes the characteristic exponent as in :func:`mle_fit`.
    """
    x = _check_sample(data)

    def q(xs, mu, sigma, alpha):
        return q_objective(xs, StableParams(mu, max(sigma, _SIGMA_MIN), alpha), weight, grad=True)

    return _lbfgs_fit(x, q, "eise", lambda fun, k: fun, fix_alpha, {"gtol": 1e-9, "ftol": 1e-15})
