"""Constructive verification of the factorization machinery.

Three layers live here:

* Collocation determinants for the mixed power families
  {t**(2j)} union {t**(+-1) (1 - t**2)**(r-s) t**(2j)} on (0, 1), together
  with the positive integer coefficient tables that certify them. These
  families admit unique interpolation at the matching number of points, so
  the determinants are nonzero; the package checks this numerically over
  desk-scale sweeps.

* The per-latitude vanishing system: a degree 2m - 1 polynomial vanishes at
  every azimuth of a fold grid on a fixed latitude exactly when an explicit
  list of 2m band combinations vanishes at cos(theta).

* The factorization itself: a polynomial of degree s vanishing on the grid
  over 2 lambda symmetric latitudes (lambda = s - m + 1, 2m azimuths each,
  southern grids rotated by a half step) is divisible by
  prod_i (z - cos theta_i). ``factor_step`` performs one such division with
  full residual checking, ``factor_chain`` iterates it down a plan, and
  ``chain_kernel_certificate`` certifies the kernel-triviality consequence
  through the small per-band systems, in one batched pass per group,
  instead of the big collocation determinant; it reports ``passed``,
  ``min_scaled_sigma`` and ``cross_group_separation``. A group's paired
  even/odd systems come as one stack from ``mixed_parity_matrices``, which
  reads every entry off one table of powers per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, InternalInconsistencyError
from .nodes import NodeSet, azimuth_grid, check_mirrored, mirror_alphas, read_count
from .spherical import SphericalPoly, fold_azimuth_modes, zero_spherical

_PI = math.pi
_TINY = float(np.finfo(float).tiny)

SIGMA_TOL = 1e-12  # smallest scaled singular value that certifies a chain step
VANISH_TOL = 1e-10  # |T| on the grid, relative to its reference sup
DIVISION_TOL = 1e-8  # band remainders and leftovers, relative to the coefficient scale


# ---------------------------------------------------------------------------
# Mixed power families on (0, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChebyshevTestCase:
    """One collocation instance of the family p_r(t**2) + t**(+-1) w(t) q(t**2).

    The family spans r + s + 1 + epsilon functions: the even powers
    t**(2j), j = 0..r, plus t**(+-1) (1 - t**2)**(r-s) t**(2j),
    j = 0..s-1+epsilon. ``sample_points`` must supply exactly that many
    distinct points in the open interval (0, 1).
    """

    r: int
    s: int
    epsilon: int
    power_sign: int
    sample_points: tuple[float, ...]

    def __post_init__(self):
        if not read_count(self.r, "r") > read_count(self.s, "s") > 0:
            raise InputError(f"need r > s > 0, got r={self.r}, s={self.s}")
        if read_count(self.epsilon, "epsilon") not in (0, 1):
            raise InputError("epsilon must be 0 or 1")
        if read_count(self.power_sign, "power_sign") not in (-1, 1):
            raise InputError("power_sign must be +1 or -1")
        pts = tuple(float(t) for t in self.sample_points)
        object.__setattr__(self, "sample_points", pts)
        expected = self.r + self.s + 1 + self.epsilon
        if len(pts) != expected:
            raise InputError(f"need {expected} sample points, got {len(pts)}")
        if any(not 0.0 < t < 1.0 for t in pts):
            raise InputError("sample points must lie in the open interval (0, 1)")
        if len(set(pts)) != len(pts):
            raise InputError("sample points must be pairwise distinct")


def collocation_matrix(case: ChebyshevTestCase) -> np.ndarray:
    """Square matrix with the family functions as columns, points as rows."""
    t = np.array(case.sample_points)
    w = t ** float(case.power_sign) * (1.0 - t * t) ** (case.r - case.s)
    cols = [t ** (2 * j) for j in range(case.r + 1)]
    cols += [w * t ** (2 * j) for j in range(case.s + case.epsilon)]
    return np.column_stack(cols)


def chebyshev_collocation_det(case: ChebyshevTestCase) -> float:
    """Determinant of the collocation matrix; nonzero for every valid case."""
    return float(np.linalg.det(collocation_matrix(case)))


@dataclass(frozen=True)
class ReductionFamily:
    """Positive integer coefficient table a[k][j] of the reduced polynomials.

    Row k describes h_k(t) = sum_j a[k][j] t**(j + k), k = 0..s-1,
    j = 0..r-s. These polynomials arise from differentiating
    t**(k + 1/2) (1 - t)**(r - s) a total of r + 1 times and stripping the
    common sign and half-integer power factors; every entry is positive,
    and their collocation determinants at increasing points in (0, 1) are
    strictly positive.
    """

    r: int
    s: int
    table: tuple[tuple[int, ...], ...]

    def poly(self, k: int) -> np.ndarray:
        """Coefficients of h_k, low to high, degree r - s + k."""
        if not 0 <= read_count(k, "k") < self.s:
            raise InputError(f"k must lie in 0..{self.s - 1}")
        coeffs = np.zeros(self.r - self.s + k + 1)
        coeffs[k:] = self.table[k]
        return coeffs


def reduction_coefficients(r: int, s: int) -> ReductionFamily:
    """Build the full table using the convention that empty products are 1.

    a[k][j] = C(r-s, j) * prod_{i=0..j} (2k + 2i + 1)
                        * prod_{i=j..r-s} (2 (r - k - i) - 1).
    """
    r, s = read_count(r, "r"), read_count(s, "s")
    if not r > s > 0:
        raise InputError(f"need r > s > 0, got r={r}, s={s}")
    table = []
    for k in range(s):
        row = []
        for j in range(r - s + 1):
            v = math.comb(r - s, j)
            for i in range(0, j + 1):
                v *= 2 * k + 2 * i + 1
            for i in range(j, r - s + 1):
                v *= 2 * (r - k - i) - 1
            row.append(v)
        table.append(tuple(row))
    return ReductionFamily(r=r, s=s, table=tuple(table))


def reduction_system_det(r: int, points: Sequence[float]) -> float:
    """Determinant of (h_j(points[k]))_{j,k}, s = len(points); positive for sorted points."""
    s = len(points)
    if any(not 0.0 < t < 1.0 for t in points):
        raise InputError("points must lie in the open interval (0, 1)")
    family = reduction_coefficients(r, s)
    polyval = np.polynomial.polynomial.polyval
    mat = np.array([polyval(np.asarray(points, dtype=float), family.poly(j)) for j in range(s)])
    return float(np.linalg.det(mat))


# ---------------------------------------------------------------------------
# Per-latitude vanishing system
# ---------------------------------------------------------------------------


def latitude_vanishing_residuals(
    T: SphericalPoly, theta: float, alpha: float
) -> tuple[float, ...]:
    """The 2m band combinations equivalent to vanishing on one fold grid.

    For odd degree n = 2m - 1 and theta inside (0, pi), T(theta, .) is zero
    at every azimuth of the fold grid with rotation alpha exactly when all
    returned values vanish: a_0(c), then for k = 1..m-1 the pair

        a_k(c) + s**(2m-2k) (a_{2m-k}(c) cos(a pi) + b_{2m-k}(c) sin(a pi)),
        b_k(c) + s**(2m-2k) (a_{2m-k}(c) sin(a pi) - b_{2m-k}(c) cos(a pi)),

    and finally a_m(c) cos(a pi / 2) + b_m(c) sin(a pi / 2), with
    c = cos(theta), s = sin(theta). These are the bands of
    ``fold_azimuth_modes(T, alpha)`` with their sin(theta) weights.
    """
    if not 0.0 < theta < _PI:
        raise InputError(f"theta must lie strictly inside (0, pi), got {theta!r}")
    folded = fold_azimuth_modes(T, alpha)
    m = folded.m
    low, high = folded.band_values(math.cos(theta))
    s = math.sin(theta)
    out = [float(low[0, 0])]
    for k in range(1, m):
        w = s ** (2 * m - 2 * k)
        out += [float(low[k, 0] + w * high[k, 0]), float(low[k, 1] + w * high[k, 1])]
    out.append(float(low[m, 0]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Mixed parity systems at symmetric latitude pairs
# ---------------------------------------------------------------------------


def mixed_parity_matrices(points: Sequence[float]) -> np.ndarray:
    """Square collocation matrices of the paired even/odd systems, k = 1..m.

    For m = len(points) and each k, the unknowns are the 2m - k
    coefficients of p (degree 2m - k - 1) followed by the k coefficients of
    q (degree k - 1); rows are, for each point t,

        p_even(t) + q_odd(t) (1 - t**2)**(m - k) = 0
        p_odd(t)  + q_even(t) (1 - t**2)**(m - k) = 0.

    Returns the (m, 2m, 2m) stack, matrix k - 1 for k; a nonzero smallest
    singular value certifies that only p = q = 0 satisfies both rows at all
    m points. Every entry is a Python-float t**j, times (1 - t**2)**(m - k)
    in the q columns, read from one table per point.
    """
    pts = [float(t) for t in points]
    m = len(pts)
    if any(not 0.0 < t < 1.0 for t in pts):
        raise InputError("points must lie in the open interval (0, 1)")
    if len(set(pts)) != len(pts):
        raise InputError("points must be pairwise distinct")
    powers = np.array([[t**j for j in range(2 * m)] for t in pts])
    weights = np.array([[(1.0 - t * t) ** e for e in range(m)] for t in pts])
    mats = np.zeros((m, 2 * m, 2 * m))
    for k, mat in enumerate(mats, start=1):
        n_p = 2 * m - k
        q = powers[:, :k] * weights[:, m - k, None]
        mat[:m, :n_p:2], mat[m:, 1:n_p:2] = powers[:, :n_p:2], powers[:, 1:n_p:2]  # p_even, p_odd
        mat[m:, n_p::2], mat[:m, n_p + 1 :: 2] = q[:, ::2], q[:, 1::2]  # q_even, q_odd
    return mats


# ---------------------------------------------------------------------------
# Factorization steps
# ---------------------------------------------------------------------------


def _reference_sup(T: SphericalPoly) -> float:
    """Max |T| over a fixed equiangular reference grid (scale for tolerances)."""
    n = max(T.degree, 1)
    q_theta = 2 * (n + 2)
    q_phi = 2 * n + 3
    th = (np.arange(q_theta) + 0.5) * _PI / q_theta
    ph = np.arange(q_phi) * 2.0 * _PI / q_phi
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    return float(np.max(np.abs(T.eval(tt, pp))))


def _divide_band(band: np.ndarray, roots: Sequence[float], scale: float) -> np.ndarray:
    """Divide one band by prod (t - r), root by root, with ``polydiv``.

    A band already within DIVISION_TOL * scale is the zero quotient. Every
    remainder must stay within that bound (NaN fails); quotients keep the
    structural length len(band) - len(roots), at least 1.
    """
    bound = DIVISION_TOL * scale
    work = np.array(band, dtype=float)
    if np.max(np.abs(work)) <= bound:
        return np.zeros(max(len(work) - len(roots), 1))
    for r in roots:
        quot, rem = np.polynomial.polynomial.polydiv(work, (-r, 1.0))
        if not abs(rem[0]) <= bound:
            raise InternalInconsistencyError(
                f"guaranteed band division failed: division by (t - {r!r}) leaves "
                f"remainder {abs(rem[0]):.3e} above tolerance {bound:.3e}"
            )
        work = np.zeros(max(len(work) - 1, 1))
        work[: len(quot)] += quot  # += into +0.0: polydiv's zero quotient of a constant can be -0.0
    return work


def factor_step(T: SphericalPoly, thetas: Sequence[float]) -> SphericalPoly:
    """Split off prod_i (z - cos theta_i) from a polynomial vanishing on the grid.

    The 2 lam mirror-paired latitudes carry 2m azimuths each, with
    m = deg T - lam + 1, so deg T >= 2 lam - 1 is required. The input
    must vanish (within VANISH_TOL relative to its reference sup) at all
    2 lam x 2m grid points. Bands above the quotient degree must
    annihilate and the remaining bands must divide cleanly; failures of
    those guaranteed facts raise InternalInconsistencyError. For
    deg T = 2m - 1 the quotient space is empty and the zero polynomial
    (degree 0) is returned.
    """
    s_deg = T.degree
    ths = check_mirrored(thetas)
    lam = len(ths) // 2
    if s_deg < 2 * lam - 1:
        raise InputError(f"need deg T >= 2 lam - 1 = {2 * lam - 1} for {2 * lam} latitudes, got {s_deg}")
    m = s_deg - lam + 1

    th = np.repeat(ths, 2 * m)
    ph = azimuth_grid(m, mirror_alphas(len(ths))).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing T is bad input, rejected below
        sup = _reference_sup(T)
        vals = np.abs(T.eval(th, ph))
    if not math.isfinite(sup):
        raise InputError(f"input is not finite on the reference grid: max |T| = {sup!r}")
    bound = VANISH_TOL * max(sup, _TINY)
    bad = np.flatnonzero(~(vals <= bound))  # NaN fails
    if bad.size:
        i = bad[0]
        raise InputError(
            f"input does not vanish at grid node theta={float(th[i])!r}, "
            f"phi={float(ph[i])!r}: |T| = {vals[i]:.3e} exceeds {bound:.3e}"
        )

    roots = [math.cos(th) for th in ths]
    new_deg = s_deg - 2 * lam
    scale = max(T.coeff_scale(), _TINY)
    top = max(new_deg + 1, 0)
    band_scales = np.max(np.abs(T.coef[:, top:]), axis=0)  # [k - top, kind]
    bad = np.argwhere(~(band_scales <= DIVISION_TOL * scale))  # NaN fails
    if bad.size:
        k, kind = bad[0]
        raise InternalInconsistencyError(
            f"band {'ab'[kind]}_{k + top} should annihilate but has coefficient "
            f"scale {band_scales[k, kind]:.3e} (tolerance "
            f"{DIVISION_TOL * scale:.3e})"
        )
    if new_deg < 0:
        return zero_spherical(0)
    coef = np.zeros((new_deg + 1, new_deg + 1, 2))
    for k, kind in np.ndindex(new_deg + 1, 2):  # b_0 is zero and stays zero
        coef[: new_deg - k + 1, k, kind] = _divide_band(T.coef[: s_deg - k + 1, k, kind], roots, scale)
    return SphericalPoly(coef)


def factor_chain(T: SphericalPoly, nodes: NodeSet) -> list[SphericalPoly]:
    """Apply ``factor_step`` down the node set's plan, one group at a time.

    Returns the successive quotients, one per group. Each step divides by
    the current group's latitude factors; the vanishing precondition is
    checked per step on the running quotient. Because the plan's degree
    sequence ends at -1, a polynomial vanishing on the whole node set
    chains down to the zero polynomial.
    """
    plan = nodes.plan
    if T.degree != plan.n:
        raise InputError(f"deg T = {T.degree} must equal n = {plan.n}")
    quotients = []
    for rings in plan.ring_slices():
        T = factor_step(T, nodes.theta[rings])
        quotients.append(T)
    return quotients


# ---------------------------------------------------------------------------
# Kernel-triviality certificate through the per-band systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainKernelCertificate:
    passed: bool
    min_scaled_sigma: float
    cross_group_separation: float


def scaled_sigma_min(mats: np.ndarray) -> np.ndarray:
    """sigma_min / sigma_max of each matrix in a stack (..., r, c); 0 for a zero matrix."""
    sv = np.linalg.svd(mats, compute_uv=False)
    return np.divide(sv[..., -1], sv[..., 0], out=np.zeros(sv.shape[:-1]), where=sv[..., 0] != 0.0)


def chain_kernel_certificate(nodes: NodeSet) -> ChainKernelCertificate:
    """Certify kernel triviality via the small systems of each chain step.

    For every group this checks, through scaled smallest singular values,
    that (a) a polynomial of degree below 2 lambda cannot vanish at all
    2 lambda latitude cosines, (b) one of degree below lambda cannot vanish
    at the lambda northern cosines, and (c) each paired even/odd band
    system has only the zero solution, with (a) and (c) in one batched SVD.
    Together with exact divisibility these force any polynomial vanishing
    on the node set down to zero, so the verdict must agree with the
    collocation determinant route.
    """
    cosines = [math.cos(th) for th in nodes.theta.tolist()]
    min_sigma = math.inf
    for rings, lam in zip(nodes.plan.ring_slices(), nodes.plan.lambdas):
        t_all = cosines[rings]
        t_north = [abs(t) for t in t_all[:lam]]
        if len(set(t_north)) < lam:  # theta and pi - theta both in the north: (b) is singular
            min_sigma = 0.0
            continue
        square = np.vander(t_all, increasing=True)[None]
        if lam > 1:  # k = 1..lam - 1; the stack is empty at lam = 1
            square = np.concatenate([square, mixed_parity_matrices(t_north)[:-1]])
        half = np.vander(t_north, increasing=True)
        min_sigma = min(min_sigma, float(scaled_sigma_min(square).min()), float(scaled_sigma_min(half)))
    # smallest |cos theta_i - cos theta_j| over rings i, j of different groups
    t = np.array(cosines)
    group = np.repeat(np.arange(nodes.plan.sigma), 2 * np.array(nodes.plan.lambdas))
    apart = group[:, None] < group[None, :]
    separation = float(np.min(np.abs(t[:, None] - t[None, :]), where=apart, initial=math.inf))
    passed = min_sigma > SIGMA_TOL and separation > 0.0
    return ChainKernelCertificate(passed=passed, min_scaled_sigma=min_sigma, cross_group_separation=separation)
