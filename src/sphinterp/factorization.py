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
  through the small per-band systems instead of the big collocation
  determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivisibilityError, InputError, InternalInconsistencyError
from .nodes import NodeSet, check_mirrored, mirrored_grid
from .polynomials import UnivariatePoly, divide_by_linear_factors, zero
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
        if not self.r > self.s > 0:
            raise InputError(f"need r > s > 0, got r={self.r}, s={self.s}")
        if self.epsilon not in (0, 1):
            raise InputError("epsilon must be 0 or 1")
        if self.power_sign not in (-1, 1):
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

    def poly(self, k: int) -> UnivariatePoly:
        """h_k as a dense polynomial of degree r - s + k."""
        if not 0 <= k < self.s:
            raise InputError(f"k must lie in 0..{self.s - 1}")
        coeffs = [0.0] * (self.r - self.s + k + 1)
        for j, a in enumerate(self.table[k]):
            coeffs[j + k] = float(a)
        return UnivariatePoly(tuple(coeffs))


def reduction_coefficients(r: int, s: int) -> ReductionFamily:
    """Build the full table using the convention that empty products are 1.

    a[k][j] = C(r-s, j) * prod_{i=0..j} (2k + 2i + 1)
                        * prod_{i=j..r-s} (2 (r - k - i) - 1).
    """
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


def reduction_system_det(r: int, s: int, points: Sequence[float]) -> float:
    """Determinant of (h_j(points[k]))_{j,k}; positive for sorted points."""
    if len(points) != s:
        raise InputError(f"need exactly {s} points, got {len(points)}")
    if any(not 0.0 < t < 1.0 for t in points):
        raise InputError("points must lie in the open interval (0, 1)")
    family = reduction_coefficients(r, s)
    mat = np.array([[family.poly(j)(float(t)) for t in points] for j in range(s)])
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
    ``fold_azimuth_modes(T, alpha, m)`` with their sin(theta) weights.
    """
    n = T.degree
    if n % 2 == 0:
        raise InputError(f"degree must be odd, got {n}")
    if not 0.0 < theta < _PI:
        raise InputError(f"theta must lie strictly inside (0, pi), got {theta!r}")
    m = (n + 1) // 2
    folded = fold_azimuth_modes(T, alpha, m)
    c = math.cos(theta)
    s = math.sin(theta)
    out = [float(folded.a0(c))]
    for k in range(1, m):
        w = s ** (2 * m - 2 * k)
        out.append(float(folded.cos_low[k - 1](c)) + w * float(folded.cos_high[k - 1](c)))
        out.append(float(folded.sin_low[k - 1](c)) + w * float(folded.sin_high[k - 1](c)))
    out.append(float(folded.axial(c)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Mixed parity systems at symmetric latitude pairs
# ---------------------------------------------------------------------------


def mixed_parity_matrix(k: int, m: int, points: Sequence[float]) -> np.ndarray:
    """Square collocation matrix of the paired even/odd system.

    Unknowns are the 2m - k coefficients of p (degree 2m - k - 1) followed
    by the k coefficients of q (degree k - 1); rows are, for each point t,

        p_even(t) + q_odd(t) (1 - t**2)**(m - k) = 0
        p_odd(t)  + q_even(t) (1 - t**2)**(m - k) = 0.

    The matrix is 2m square; a nonzero smallest singular value certifies
    that only p = q = 0 satisfies both rows at all m points.
    """
    if not 1 <= k <= m:
        raise InputError(f"need 1 <= k <= m, got k={k}, m={m}")
    if len(points) != m:
        raise InputError(f"need exactly {m} points, got {len(points)}")
    pts = [float(t) for t in points]
    if any(not 0.0 < t < 1.0 for t in pts):
        raise InputError("points must lie in the open interval (0, 1)")
    if len(set(pts)) != len(pts):
        raise InputError("points must be pairwise distinct")
    n_p = 2 * m - k
    mat = np.zeros((2 * m, 2 * m))
    for i, t in enumerate(pts):
        w = (1.0 - t * t) ** (m - k)
        for j in range(n_p):
            mat[i if j % 2 == 0 else m + i, j] = t**j
        for j in range(k):
            mat[m + i if j % 2 == 0 else i, n_p + j] = t**j * w
    return mat


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


def _divide_band(band: UnivariatePoly, roots: Sequence[float], scale: float) -> UnivariatePoly:
    """Divide one band by the root product, tolerating already-tiny bands."""
    target_len = max(len(band.coeffs) - len(roots), 1)
    if band.coeff_scale() <= DIVISION_TOL * scale:
        return UnivariatePoly((0.0,) * target_len)
    # divide_by_linear_factors checks remainders against the band's own
    # coefficient scale; rescale so the bound is DIVISION_TOL * scale of T
    tol_eff = DIVISION_TOL * scale / band.coeff_scale()
    try:
        return divide_by_linear_factors(band, roots, tol_eff)
    except DivisibilityError as exc:
        raise InternalInconsistencyError(
            f"guaranteed band division failed: {exc}"
        ) from exc


def factor_step(T: SphericalPoly, m: int, lam: int, thetas: Sequence[float]) -> SphericalPoly:
    """Split off prod_i (z - cos theta_i) from a polynomial vanishing on the grid.

    Requires m <= deg T <= 2m - 1 and lam = deg T - m + 1, with 2 lam
    distinct mirror-paired latitudes. The input must vanish (within
    VANISH_TOL relative to its reference sup) at all 2 lam x 2m grid
    points. Bands above the quotient degree must annihilate and the
    remaining bands must divide cleanly; failures of those guaranteed
    facts raise InternalInconsistencyError. For deg T = 2m - 1 the
    quotient space is empty and the zero polynomial (degree 0) is returned.
    """
    s_deg = T.degree
    if m < 1:
        raise InputError("m must be a positive integer")
    if not m <= s_deg <= 2 * m - 1:
        raise InputError(f"need m <= deg T <= 2m - 1, got deg T = {s_deg}, m = {m}")
    if lam != s_deg - m + 1:
        raise InputError(f"lam must equal deg T - m + 1 = {s_deg - m + 1}, got {lam}")
    ths = check_mirrored(thetas)
    if len(ths) != 2 * lam:
        raise InputError(f"need {2 * lam} latitudes, got {len(ths)}")

    bound = VANISH_TOL * max(_reference_sup(T), _TINY)
    th, ph = np.array([pt for ring in mirrored_grid(ths, m) for pt in ring.points()]).T
    vals = np.abs(T.eval(th, ph))
    bad = np.flatnonzero(vals > bound)
    if bad.size:
        i = bad[0]
        raise InputError(
            f"input does not vanish at grid node theta={float(th[i])!r}, "
            f"phi={float(ph[i])!r}: |T| = {vals[i]:.3e} exceeds {bound:.3e}"
        )

    roots = [math.cos(th) for th in ths]
    new_deg = s_deg - 2 * lam
    scale = max(T.coeff_scale(), _TINY)
    for k in range(max(new_deg + 1, 0), s_deg + 1):
        for name, band in (("a", T.a[k]), ("b", T.b[k])):
            if band.coeff_scale() > DIVISION_TOL * scale:
                raise InternalInconsistencyError(
                    f"band {name}_{k} should annihilate but has coefficient "
                    f"scale {band.coeff_scale():.3e} (tolerance "
                    f"{DIVISION_TOL * scale:.3e})"
                )
    if new_deg < 0:
        return zero_spherical(0)
    a_new = [_divide_band(T.a[k], roots, scale) for k in range(new_deg + 1)]
    b_new = [zero()] + [_divide_band(T.b[k], roots, scale) for k in range(1, new_deg + 1)]
    return SphericalPoly(degree=new_deg, a=tuple(a_new), b=tuple(b_new))


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
    for group, m, lam in zip(nodes.groups, plan.azimuth_half_counts(), plan.lambdas):
        T = factor_step(T, m=m, lam=lam, thetas=[ring.theta for ring in group.rings])
        quotients.append(T)
    return quotients


# ---------------------------------------------------------------------------
# Kernel-triviality certificate through the per-band systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepCertificate:
    group: int
    vandermonde_full: float
    vandermonde_half: float
    mixed_parity: tuple[float, ...]

    def min_sigma(self) -> float:
        vals = (self.vandermonde_full, self.vandermonde_half) + self.mixed_parity
        return min(vals)


@dataclass(frozen=True)
class ChainKernelCertificate:
    passed: bool
    min_scaled_sigma: float
    cross_group_separation: float
    steps: tuple[StepCertificate, ...]


def _scaled_sigma_min(mat: np.ndarray) -> float:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def chain_kernel_certificate(nodes: NodeSet) -> ChainKernelCertificate:
    """Certify kernel triviality via the small systems of each chain step.

    For every group this checks, through scaled smallest singular values,
    that (a) a polynomial of degree below 2 lambda cannot vanish at all
    2 lambda latitude cosines, (b) one of degree below lambda cannot vanish
    at the lambda northern cosines, and (c) each paired even/odd band
    system has only the zero solution. Together with exact divisibility
    these force any polynomial vanishing on the node set down to zero, so
    the verdict must agree with the collocation determinant route.
    """
    plan = nodes.plan
    steps = []
    group_cos: list[list[float]] = []
    for k, group in enumerate(nodes.groups):
        lam = plan.lambdas[k]
        ths = [ring.theta for ring in group.rings]
        t_all = [math.cos(th) for th in ths]
        group_cos.append(t_all)
        t_north = [abs(math.cos(th)) for th in ths[:lam]]
        if len(set(t_north)) != len(t_north):
            steps.append(
                StepCertificate(group=k + 1, vandermonde_full=0.0, vandermonde_half=0.0, mixed_parity=())
            )
            continue
        v_full = _scaled_sigma_min(np.vander(np.array(t_all), increasing=True))
        v_half = _scaled_sigma_min(np.vander(np.array(t_north), increasing=True))
        mixed = tuple(
            _scaled_sigma_min(mixed_parity_matrix(kp, lam, t_north))
            for kp in range(1, lam)
        )
        steps.append(
            StepCertificate(
                group=k + 1,
                vandermonde_full=v_full,
                vandermonde_half=v_half,
                mixed_parity=mixed,
            )
        )
    separation = math.inf
    for g1 in range(len(group_cos)):
        for g2 in range(g1 + 1, len(group_cos)):
            for c1 in group_cos[g1]:
                for c2 in group_cos[g2]:
                    separation = min(separation, abs(c1 - c2))
    min_sigma = min(step.min_sigma() for step in steps)
    passed = min_sigma > SIGMA_TOL and separation > 0.0
    return ChainKernelCertificate(
        passed=passed,
        min_scaled_sigma=min_sigma,
        cross_group_separation=separation,
        steps=tuple(steps),
    )
