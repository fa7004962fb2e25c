"""Dense univariate polynomial arithmetic.

Coefficients are stored low to high: ``coeffs[j]`` multiplies ``t**j``. The
stored length is structural, so the reported degree is ``len(coeffs) - 1``
even when the leading coefficient happens to be zero; arithmetic never
trims trailing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DivisibilityError, InputError


@dataclass(frozen=True)
class UnivariatePoly:
    """Real polynomial in one variable, dense low-to-high coefficients."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise InputError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        """Horner evaluation; accepts floats or numpy arrays."""
        acc = 0.0 * t
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return UnivariatePoly(tuple(out))

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, UnivariatePoly):
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, c in enumerate(self.coeffs):
                if c == 0.0:
                    continue
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
            return UnivariatePoly(tuple(out))
        return UnivariatePoly(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def coeff_scale(self) -> float:
        """Max absolute coefficient; 0 for the zero polynomial."""
        return max(abs(c) for c in self.coeffs)


def poly(coeffs: Iterable[float]) -> UnivariatePoly:
    return UnivariatePoly(tuple(coeffs))


def zero() -> UnivariatePoly:
    return UnivariatePoly((0.0,))


def one() -> UnivariatePoly:
    return UnivariatePoly((1.0,))


def from_roots(roots: Iterable[float]) -> UnivariatePoly:
    """Monic product of (t - r) over the given roots."""
    out = one()
    for r in roots:
        out = out * UnivariatePoly((-float(r), 1.0))
    return out


def integrate_unit_interval(p: UnivariatePoly) -> float:
    """Exact integral over [-1, 1] via term-wise antiderivatives.

    Odd-degree terms cancel; even terms contribute 2 c_j / (j + 1).
    """
    return sum(2.0 * c / (j + 1) for j, c in enumerate(p.coeffs) if j % 2 == 0)


def divide_by_linear_factors(
    p: UnivariatePoly, roots: Sequence[float], tol: float
) -> UnivariatePoly:
    """Divide p by the product of (t - r), root by root, checking remainders.

    Each synthetic-division remainder must satisfy |rem| <= tol * scale(p)
    where scale(p) is the max absolute coefficient of the original p;
    otherwise a DivisibilityError carrying the offending root is raised.
    """
    scale = p.coeff_scale()
    bound = tol * scale
    work = list(p.coeffs)
    for r in roots:
        r = float(r)
        if len(work) == 1:
            # constant dividend: quotient is the zero polynomial
            rem, quot = work[0], [0.0]
        else:
            quot, rem = _synthetic_division(work, r)
        if abs(rem) > bound:
            raise DivisibilityError(root=r, residual=abs(rem), tol=bound)
        work = quot
    return UnivariatePoly(tuple(work))


def _synthetic_division(coeffs: Sequence[float], r: float) -> tuple[list[float], float]:
    """Quotient and remainder of coeffs / (t - r); the remainder is p(r)."""
    n = len(coeffs) - 1
    quot = [0.0] * n
    acc = coeffs[n]
    for j in range(n - 1, -1, -1):
        quot[j] = acc
        acc = coeffs[j] + r * acc
    return quot, acc
