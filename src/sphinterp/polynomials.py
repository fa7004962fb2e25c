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
    """Divide p by the product of (t - r), root by root, with ``polydiv``.

    Each remainder p(r) must satisfy |rem| <= tol * scale(p), with scale(p)
    the max absolute coefficient of p, or a DivisibilityError carrying the
    root is raised. Quotients keep the structural length len - 1 (at least 1).
    """
    work = np.array(p, dtype=float)
    bound = tol * float(np.max(np.abs(work)))
    for r in roots:
        r = float(r)
        quot, rem = np.polynomial.polynomial.polydiv(work, (-r, 1.0))
        if abs(rem[0]) > bound:
            raise DivisibilityError(root=r, residual=float(abs(rem[0])), tol=bound)
        work = np.zeros(max(len(work) - 1, 1))
        work[: len(quot)] += quot  # += into +0.0: polydiv's zero quotient of a constant can be -0.0
    return work
