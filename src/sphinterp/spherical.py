"""Spherical polynomials in latitude-band form.

A degree-n spherical polynomial is stored as a family of univariate
coefficient polynomials, one pair per azimuthal frequency:

    T(theta, phi) = a_0(cos theta)
        + sum_{k=1..n} [ a_k(cos theta) sin(theta)**k cos(k phi)
                       + b_k(cos theta) sin(theta)**k sin(k phi) ]

with deg a_k <= n - k and deg b_k <= n - k. The coordinate convention is
x = sin(theta) cos(phi), y = sin(theta) sin(phi), z = cos(theta), so the
k = 0 band with a_0 = t is exactly the coordinate function z.

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
from .polynomials import UnivariatePoly, zero


@dataclass(frozen=True)
class SphericalPoly:
    """Degree-n spherical polynomial in band form.

    ``a`` and ``b`` both have length n + 1; ``b[0]`` is unused and must be
    the zero polynomial. Structural degree bounds deg a_k <= n - k are
    enforced on construction.
    """

    degree: int
    a: tuple[UnivariatePoly, ...]
    b: tuple[UnivariatePoly, ...]

    def __post_init__(self):
        n = self.degree
        if n < 0:
            raise InputError("degree must be nonnegative")
        if len(self.a) != n + 1 or len(self.b) != n + 1:
            raise InputError(f"band lists must have length {n + 1}")
        for k, p in enumerate(self.a):
            if p.degree > n - k:
                raise InputError(f"deg a_{k} = {p.degree} exceeds bound {n - k}")
        for k, p in enumerate(self.b):
            if k == 0:
                if not p.is_zero():
                    raise InputError("b_0 must be the zero polynomial")
            elif p.degree > n - k:
                raise InputError(f"deg b_{k} = {p.degree} exceeds bound {n - k}")

    def eval(self, theta, phi):
        """Evaluate at raw angles; accepts floats or numpy arrays."""
        c = np.cos(theta)
        s = np.sin(theta)
        val = self.a[0](c)
        sk = 1.0
        for k in range(1, self.degree + 1):
            sk = sk * s
            val = val + self.a[k](c) * sk * np.cos(k * phi)
            val = val + self.b[k](c) * sk * np.sin(k * phi)
        return val

    def coeff_scale(self) -> float:
        """Max absolute coefficient over all bands."""
        return max(
            max(p.coeff_scale() for p in self.a),
            max(p.coeff_scale() for p in self.b),
        )

    def coefficient_vector(self) -> np.ndarray:
        """Flatten bands into the canonical basis order."""
        n = self.degree
        out = []
        for k, kind, j in basis_index_order(n):
            band = self.a[k] if kind == "cos" else self.b[k]
            out.append(band.coeffs[j] if j < len(band.coeffs) else 0.0)
        return np.array(out)


def zero_spherical(n: int) -> SphericalPoly:
    bands = tuple(zero() for _ in range(n + 1))
    return SphericalPoly(degree=n, a=bands, b=bands)


def basis_index_order(n: int) -> list[tuple[int, str, int]]:
    """Canonical basis ordering: k ascending, cosine before sine, j ascending.

    Yields (n + 1)**2 triples (k, kind, j) where the element has a_k = t**j
    for kind "cos" and b_k = t**j for kind "sin" (sine only for k >= 1).
    """
    order = []
    for k in range(n + 1):
        for j in range(n - k + 1):
            order.append((k, "cos", j))
        if k >= 1:
            for j in range(n - k + 1):
                order.append((k, "sin", j))
    return order


def spherical_from_vector(n: int, vec) -> SphericalPoly:
    """Rebuild a SphericalPoly from its canonical coefficient vector."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != ((n + 1) ** 2,):
        raise InputError(f"coefficient vector must have length {(n + 1) ** 2}")
    a = [None] * (n + 1)
    b: list = [zero()] * (n + 1)
    pos = 0
    for k in range(n + 1):
        width = n - k + 1
        a[k] = UnivariatePoly(tuple(vec[pos : pos + width]))
        pos += width
        if k >= 1:
            b[k] = UnivariatePoly(tuple(vec[pos : pos + width]))
            pos += width
    return SphericalPoly(degree=n, a=tuple(a), b=tuple(b))


def random_spherical(n: int, rng: np.random.Generator) -> SphericalPoly:
    """Random polynomial with standard-normal coefficients in every band."""
    return spherical_from_vector(n, rng.standard_normal((n + 1) ** 2))


def multiply_linear_z(T: SphericalPoly, c: float) -> SphericalPoly:
    """Multiply by (z - c), raising the degree by one.

    Since z = cos(theta) enters each band only through the coefficient
    argument, this maps a_k(t) to (t - c) a_k(t) band by band.
    """
    n = T.degree
    lin = UnivariatePoly((-float(c), 1.0))
    a = [T.a[k] * lin for k in range(n + 1)] + [zero()]
    b = [zero()] + [T.b[k] * lin for k in range(1, n + 1)] + [zero()]
    return SphericalPoly(degree=n + 1, a=tuple(a), b=tuple(b))


@dataclass(frozen=True)
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
    """

    m: int
    alpha: float
    a0: UnivariatePoly
    cos_low: tuple[UnivariatePoly, ...]
    cos_high: tuple[UnivariatePoly, ...]
    sin_low: tuple[UnivariatePoly, ...]
    sin_high: tuple[UnivariatePoly, ...]
    axial: UnivariatePoly

    def eval(self, theta: float, phi: float) -> float:
        m = self.m
        gate = math.sin(m * phi - self.alpha * math.pi / 2.0)
        if abs(gate) > 1e-9:
            raise InputError(
                f"phi {phi!r} is not on the fold grid for m={m}, alpha={self.alpha!r}"
            )
        c = math.cos(theta)
        s = math.sin(theta)
        val = float(self.a0(c))
        for idx in range(m - 1):
            k = idx + 1
            val += (self.cos_low[idx](c) * s**k + self.cos_high[idx](c) * s ** (2 * m - k)) * math.cos(k * phi)
            val += (self.sin_low[idx](c) * s**k + self.sin_high[idx](c) * s ** (2 * m - k)) * math.sin(k * phi)
        val += self.axial(c) * s**m * math.cos(m * phi - self.alpha * math.pi / 2.0)
        return val


def fold_azimuth_modes(T: SphericalPoly, alpha: float, m: int) -> FoldedForm:
    """Fold the bands of a degree 2m - 1 polynomial onto the grid form.

    Rejects polynomials whose degree is not exactly 2m - 1.
    """
    if m < 1:
        raise InputError("m must be a positive integer")
    if not 0.0 <= alpha < 2.0:
        raise InputError(f"alpha must lie in [0, 2), got {alpha!r}")
    if T.degree != 2 * m - 1:
        raise InputError(f"degree must be {2 * m - 1} for m={m}, got {T.degree}")
    ca = math.cos(alpha * math.pi)
    sa = math.sin(alpha * math.pi)
    cos_low, cos_high, sin_low, sin_high = [], [], [], []
    for k in range(1, m):
        hi_a, hi_b = T.a[2 * m - k], T.b[2 * m - k]
        cos_low.append(T.a[k])
        sin_low.append(T.b[k])
        cos_high.append(ca * hi_a + sa * hi_b)
        sin_high.append(sa * hi_a + (-ca) * hi_b)
    axial = math.cos(alpha * math.pi / 2.0) * T.a[m] + math.sin(alpha * math.pi / 2.0) * T.b[m]
    return FoldedForm(
        m=m,
        alpha=float(alpha),
        a0=T.a[0],
        cos_low=tuple(cos_low),
        cos_high=tuple(cos_high),
        sin_low=tuple(sin_low),
        sin_high=tuple(sin_high),
        axial=axial,
    )
