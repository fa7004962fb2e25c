"""Spherical polynomials as one coefficient array.

A degree-n spherical polynomial is

    T(theta, phi) = a_0(cos theta)
        + sum_{k=1..n} sin(theta)**k [ a_k(cos theta) cos(k phi)
                                     + b_k(cos theta) sin(k phi) ]

with deg a_k <= n - k and deg b_k <= n - k. It is stored as one float array
``coef[j, k, kind]`` of shape (n + 1, n + 1, 2): the coefficient of t**j
in a_k (kind 0) or b_k (kind 1). The coordinate convention is
x = sin(theta) cos(phi), y = sin(theta) sin(phi), z = cos(theta), so the
k = 0 band with a_0 = t is exactly the coordinate function z.

``band_mask(n)[k, kind, j]`` marks the slots that may be nonzero: j <= n - k,
and no b_0. Read in C order it is the canonical basis order (k ascending,
cosine before sine, j ascending), so the canonical coefficient vector is
one masked read of ``coef`` and one masked write rebuilds it. The basis is
tabulated here alone, by ``power_tables``, ``azimuth_tables`` and ``band_values``.

On the 2m equidistant azimuths phi_j = (2j + alpha) pi / (2m), harmonics of
frequency 2m - k alias onto frequency k. ``fold_azimuth_modes`` performs
that reduction for a degree 2m - 1 polynomial, producing a compact form
that is only meaningful on the fold grid (``FoldedForm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nodes import read_count

TOL_FOLD_GRID = 1e-9  # largest accepted |sin(m phi - alpha pi / 2)| in FoldedForm.eval


def band_mask(n: int) -> np.ndarray:
    """Boolean mask[k, kind, j] of the degree-n basis: j <= n - k, no b_0."""
    k = np.arange(read_count(n, "n", 0) + 1)
    fits = np.add.outer(k, k) <= n
    mask = np.stack([fits, fits], axis=1)
    mask[0, 1] = False
    return mask


def power_tables(theta, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (L, n + 1) tables cos(theta)**j and sin(theta)**k, j, k = 0..n, at L latitudes."""
    powers = np.arange(read_count(n, "n", 0) + 1)
    theta = np.asarray(theta, dtype=float)[:, None]
    return np.cos(theta) ** powers, np.sin(theta) ** powers


def azimuth_tables(phi, n: int) -> np.ndarray:
    """cos(k phi) and sin(k phi), k = 0..n, as [..., k, kind] for phi of any shape."""
    kphi = np.asarray(phi, dtype=float)[..., None] * np.arange(read_count(n, "n", 0) + 1)
    return np.stack([np.cos(kphi), np.sin(kphi)], axis=-1)


def band_values(t_pow: np.ndarray, s_pow: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """a_k(t) sin(theta)**k and b_k(t) sin(theta)**k, t = cos(theta), as [latitude, k, kind, ...] for
    coef[j, k, kind, ...] (one ``SphericalPoly.coef`` per trailing column), from the latitudes' ``power_tables``."""
    vals = (t_pow @ coef.reshape(len(coef), -1)).reshape(len(t_pow), *coef.shape[1:])
    vals *= s_pow.reshape(s_pow.shape + (1,) * (coef.ndim - 2))
    return vals


def _by_band(coef: np.ndarray) -> np.ndarray:
    """View of coef[j, k, kind] indexed [k, kind, j], the order of ``band_mask``."""
    return coef.transpose(1, 2, 0)


@dataclass(frozen=True, eq=False)
class SphericalPoly:
    """Degree-n spherical polynomial held as a read-only coef[j, k, kind] array.

    The constructor copies its input, checks the shape (n + 1, n + 1, 2) and
    rejects any non-finite entry and any nonzero entry outside ``band_mask(n)``.
    """

    coef: np.ndarray

    def __post_init__(self):
        coef = np.array(self.coef, dtype=float)
        if coef.ndim != 3 or coef.shape[1:] != (len(coef), 2) or not len(coef):
            raise InputError(f"coefficients must have shape (n + 1, n + 1, 2), got {coef.shape}")
        n = coef.shape[0] - 1
        bad = np.argwhere(~np.isfinite(coef))
        if bad.size:
            j, k, kind = bad[0]
            raise InputError(f"coefficient of t**{j} in {'ab'[kind]}_{k} must be finite, got {float(coef[j, k, kind])!r}")
        outside = np.argwhere((_by_band(coef) != 0.0) & ~band_mask(n))
        if outside.size:
            k, kind, j = outside[0]
            raise InputError(
                f"coefficient of t**{j} in {'ab'[kind]}_{k} lies outside the degree-{n} bands"
            )
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    @property
    def degree(self) -> int:
        return self.coef.shape[0] - 1

    def eval(self, theta, phi):
        """Evaluate at raw angles; accepts floats or numpy arrays.

        ``band_values`` at the distinct thetas and ``azimuth_tables`` at the distinct
        phis, then summed at each point one band at a time, gathered from both tables.
        """
        thetas, at_theta = np.unique(theta, return_inverse=True)
        phis, at_phi = np.unique(phi, return_inverse=True)
        at_theta, at_phi = at_theta.reshape(np.shape(theta)), at_phi.reshape(np.shape(phi))
        bands = band_values(*power_tables(thetas, self.degree), self.coef).T  # [kind, k, theta]
        trig = azimuth_tables(phis, self.degree).T  # [kind, k, phi]
        val = 0.0
        for a, b, cos, sin in zip(*bands, *trig):
            val = val + a[at_theta] * cos[at_phi]
            val = val + b[at_theta] * sin[at_phi]
        return val[()]

    def coeff_scale(self) -> float:
        """Max absolute coefficient over all bands."""
        return float(np.max(np.abs(self.coef)))

    def coefficient_vector(self) -> np.ndarray:
        """The coefficients in the canonical basis order."""
        return _by_band(self.coef)[band_mask(self.degree)]


def zero_spherical(n: int) -> SphericalPoly:
    return spherical_from_vector(n, np.zeros((read_count(n, "n", 0) + 1) ** 2))


def basis_index_order(n: int) -> list[tuple[int, str, int]]:
    """Canonical basis ordering: k ascending, cosine before sine, j ascending.

    Yields (n + 1)**2 triples (k, kind, j) where the element has a_k = t**j
    for kind "cos" and b_k = t**j for kind "sin" (sine only for k >= 1).
    """
    return [(int(k), ("cos", "sin")[kind], int(j)) for k, kind, j in np.argwhere(band_mask(n))]


def spherical_from_vector(n: int, vec) -> SphericalPoly:
    """Rebuild a SphericalPoly from its canonical coefficient vector."""
    vec = np.asarray(vec, dtype=float)
    n = read_count(n, "n", 0)
    if vec.shape != ((n + 1) ** 2,):
        raise InputError(f"coefficient vector must have length {(n + 1) ** 2}")
    coef = np.zeros((n + 1, n + 1, 2))
    _by_band(coef)[band_mask(n)] = vec
    return SphericalPoly(coef)


def random_spherical(n: int, rng: np.random.Generator) -> SphericalPoly:
    """Random polynomial with standard-normal coefficients in every band."""
    return spherical_from_vector(n, rng.standard_normal((read_count(n, "n", 0) + 1) ** 2))


def multiply_linear_z(T: SphericalPoly, c: float) -> SphericalPoly:
    """Multiply by (z - c), raising the degree by one.

    Since z = cos(theta) enters each band only through the coefficient
    argument, this maps a_k(t) to (t - c) a_k(t) band by band.
    """
    n = T.degree
    coef = np.zeros((n + 2, n + 2, 2))
    coef[1:, : n + 1] = T.coef
    coef[:-1, : n + 1] -= float(c) * T.coef
    return SphericalPoly(coef)


@dataclass(frozen=True, eq=False)
class FoldedForm:
    """Low-frequency form of a degree 2m - 1 polynomial on a fold grid.

    Valid only at azimuths phi with sin(m phi - alpha pi / 2) = 0, where the
    high bands alias onto the low ones:

        F(theta, phi) = a_0(c) + sum_{k=1..m-1} [
            (a_k(c) s**k + u_k(c) s**(2m-k)) cos(k phi)
          + (b_k(c) s**k + v_k(c) s**(2m-k)) sin(k phi) ]
          + axial(c) s**m cos(m phi - alpha pi / 2)

    with c = cos(theta), s = sin(theta),
    u_k = a_{2m-k} cos(alpha pi) + b_{2m-k} sin(alpha pi),
    v_k = a_{2m-k} sin(alpha pi) - b_{2m-k} cos(alpha pi), and
    axial = a_m cos(alpha pi / 2) + b_m sin(alpha pi / 2). The u_k and v_k
    have degree at most k - 1.

    Both arrays use the [j, k, kind] layout of ``SphericalPoly.coef``:
    ``low`` (2m, m + 1, 2) holds a_k and b_k for k < m and the axial band
    at ``[:, m, 0]``; ``high`` (m, m, 2) holds u_k and v_k.
    """

    m: int
    alpha: float
    low: np.ndarray
    high: np.ndarray

    def band_values(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        """``low`` and ``high`` evaluated at t = c, each indexed [k, kind]."""
        polyval = np.polynomial.polynomial.polyval
        return polyval(c, self.low), polyval(c, self.high)

    def eval(self, theta: float, phi: float) -> float:
        m = self.m
        gate = math.sin(m * phi - self.alpha * math.pi / 2.0)
        if abs(gate) > TOL_FOLD_GRID:
            raise InputError(
                f"phi {phi!r} is not on the fold grid for m={m}, alpha={self.alpha!r}"
            )
        s = math.sin(theta)
        low, high = self.band_values(math.cos(theta))
        val = low[0, 0]
        for k in range(1, m):
            val += (low[k, 0] * s**k + high[k, 0] * s ** (2 * m - k)) * math.cos(k * phi)
            val += (low[k, 1] * s**k + high[k, 1] * s ** (2 * m - k)) * math.sin(k * phi)
        val += low[m, 0] * s**m * math.cos(m * phi - self.alpha * math.pi / 2.0)
        return float(val)


def fold_azimuth_modes(T: SphericalPoly, alpha: float) -> FoldedForm:
    """Fold the bands of a degree 2m - 1 polynomial onto the grid form.

    Rejects polynomials of even degree.
    """
    if not 0.0 <= alpha < 2.0:
        raise InputError(f"alpha must lie in [0, 2), got {alpha!r}")
    if T.degree % 2 == 0:
        raise InputError(f"degree must be odd, got {T.degree}")
    m = (T.degree + 1) // 2
    ca = math.cos(alpha * math.pi)
    sa = math.sin(alpha * math.pi)
    low = np.array(T.coef[:, : m + 1])
    ch, sh = math.cos(alpha * math.pi / 2.0), math.sin(alpha * math.pi / 2.0)
    low[:, m, 0] = ch * T.coef[:, m, 0] + sh * T.coef[:, m, 1]
    low[:, m, 1] = 0.0
    hi_a, hi_b = T.coef[:m, 2 * m - 1 : m : -1].transpose(2, 0, 1)  # bands 2m - k, k = 1..m-1
    high = np.zeros((m, m, 2))
    high[:, 1:, 0] = ca * hi_a + sa * hi_b
    high[:, 1:, 1] = sa * hi_a - ca * hi_b
    return FoldedForm(m=m, alpha=float(alpha), low=low, high=high)
