"""Univariate polynomials as numpy coefficient arrays.

Coefficients are stored low to high: ``coeffs[j]`` multiplies ``t**j``. The
helpers here build root products, divide by linear factors with checked
remainders, and integrate over [-1, 1]; evaluation is
``numpy.polynomial.polynomial.polyval``. The length of an array is its
structural degree plus one, even when the leading coefficient is zero.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DivisibilityError


def from_roots(roots: Iterable[float]) -> np.ndarray:
    """Monic product of (t - r) over the given roots."""
    out = np.ones(1)
    for r in roots:
        out = np.convolve(out, (-float(r), 1.0))
    return out


def integrate_unit_interval(p) -> float:
    """Exact integral over [-1, 1] via term-wise antiderivatives.

    Odd-degree terms cancel; even terms contribute 2 c_j / (j + 1).
    """
    coeffs = np.asarray(p, dtype=float).tolist()
    return sum(2.0 * c / (j + 1) for j, c in enumerate(coeffs) if j % 2 == 0)


def divide_by_linear_factors(p, roots: Sequence[float], tol: float) -> np.ndarray:
    """Divide p by the product of (t - r), root by root, checking remainders.

    Each synthetic-division remainder must satisfy |rem| <= tol * scale(p)
    where scale(p) is the max absolute coefficient of the original p;
    otherwise a DivisibilityError carrying the offending root is raised.
    """
    work = np.asarray(p, dtype=float).tolist()
    bound = tol * max(abs(c) for c in work)
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
    return np.array(work)


def _synthetic_division(coeffs: Sequence[float], r: float) -> tuple[list[float], float]:
    """Quotient and remainder of coeffs / (t - r); the remainder is p(r)."""
    n = len(coeffs) - 1
    quot = [0.0] * n
    acc = coeffs[n]
    for j in range(n - 1, -1, -1):
        quot[j] = acc
        acc = coeffs[j] + r * acc
    return quot, acc
