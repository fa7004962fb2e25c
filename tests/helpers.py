"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own computation paths:
determinants are expanded by cofactors, interpolation solves run dense LU
on the assembled collocation matrix (in float64, or in extended precision
as a reference for the float64 solvers), derivatives come from exact
rational finite differences, cubature weights come from exact rational
Lagrange cardinals, the mixed parity systems are filled entry by entry,
cubature exactness errors come from the node weights applied to a dense
collocation matrix written out here, and points come from a jittered grid
with a guaranteed separation; spherical polynomials are evaluated point by
point, with the band values of all points taken in one product, and
``band_scale`` bounds the rounding of such an evaluation.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import factorial, isqrt

import numpy as np

from sphinterp import analytic_basis_integral, basis_index_order


def det_cofactor(rows) -> float:
    """Cofactor-expansion determinant for small matrices."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense LU solve with one step of iterative refinement."""
    x = np.linalg.solve(matrix, rhs)
    return x + np.linalg.solve(matrix, rhs - matrix @ x)


def extended_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in ``np.longdouble``.

    Where long double is the x87 80-bit format (unit roundoff 5.4e-20) this
    solves the float64 system about 2000 times more accurately than a
    float64 LU, so it can referee between float64 solvers.
    """
    a = np.array(matrix, dtype=np.longdouble)
    b = np.array(rhs, dtype=np.longdouble)
    size = len(b)
    for col in range(size):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, piv]] = a[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
        b[col + 1 :] -= factors * b[col]
    x = np.zeros(size, dtype=np.longdouble)
    for row in range(size - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def eval_per_point(T, theta, phi):
    """``T`` at every point of ``theta`` and ``phi`` (broadcast together),
    with the band values of all points taken in one product and every
    cos/sin k phi taken at each point, in the summation order of
    ``SphericalPoly.eval``: the reference for its evaluation once per
    distinct theta and phi."""
    theta, phi = np.broadcast_arrays(theta, phi)
    n = T.degree
    powers = np.arange(n + 1)
    th, ph = theta.ravel(), phi.ravel()
    bands = (np.cos(th)[:, None] ** powers @ T.coef.reshape(n + 1, -1)).reshape(-1, n + 1, 2)
    bands *= (np.sin(th)[:, None] ** powers)[:, :, None]
    a, b = bands.T
    val = a[0]
    for k in range(1, n + 1):
        val = val + a[k] * np.cos(k * ph)
        val = val + b[k] * np.sin(k * ph)
    return val.reshape(theta.shape)[()]


def band_scale(T, theta) -> float:
    """The largest sum of |coefficient| |cos theta|**j sin(theta)**k over
    the basis at the given thetas: it bounds |T| and every band value there."""
    theta = np.ravel(theta)
    powers = np.arange(T.degree + 1)
    t_abs = np.abs(np.cos(theta))[:, None] ** powers
    s_pow = np.sin(theta)[:, None] ** powers
    return float(np.max(np.einsum("pj,jkc,pk->p", t_abs, np.abs(T.coef), s_pow)))


def traced_peak_bytes(call, *args) -> int:
    """The peak of the memory that Python and numpy allocate during call(*args),
    above what was allocated when it started, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def realified(block: np.ndarray) -> np.ndarray:
    """The real form [[Re, -Im], [Im, Re]] of a complex matrix or stack of them."""
    return np.block([[block.real, -block.imag], [block.imag, block.real]])


def cardinal_integral_weights(grid) -> list[float]:
    """Integrals over [-1, 1] of the Lagrange cardinals, in exact arithmetic.

    The grid values are floats, hence exact rationals; building the cardinal
    numerators and their moments over the field of fractions makes the
    weights exact up to the final float conversion.
    """
    pts = [Fraction(c) for c in grid]
    weights = []
    for i, xi in enumerate(pts):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(pts):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= xj * num[k + 1]
            den *= xi - xj
        integral = sum(2 * c / (k + 1) for k, c in enumerate(num) if k % 2 == 0)
        weights.append(float(integral / den))
    return weights


def dense_exactness_errors(rule) -> np.ndarray:
    """Rule-minus-analytic integrals over the degree 2m - 1 basis, densely.

    Applies the node weights to the full 4m**2 x 4m**2 collocation matrix,
    in ``basis_index_order``, each column written out here as
    cos(theta)**j sin(theta)**k times cos(k phi) or sin(k phi) at every
    node: O(m**4) time and memory, so keep m small.
    """
    n = 2 * rule.m - 1
    theta, phi, node_w = np.array(rule.nodes()).T
    trig = {"cos": np.cos, "sin": np.sin}
    matrix = np.stack(
        [np.cos(theta) ** j * np.sin(theta) ** k * trig[kind](k * phi) for k, kind, j in basis_index_order(n)], axis=1
    )
    rule_vals = node_w @ matrix
    exact = [analytic_basis_integral(k, j) for k, _kind, j in basis_index_order(n)]
    return rule_vals - np.array(exact)


def mixed_parity_matrix(k: int, points) -> np.ndarray:
    """One paired even/odd system, entry by entry: the reference for
    ``mixed_parity_matrices(points)[k - 1]``.

    Unknowns are the 2m - k coefficients of p, then the k of q; for each
    point t the rows are p_even(t) + q_odd(t) (1 - t**2)**(m - k) and
    p_odd(t) + q_even(t) (1 - t**2)**(m - k), with Python-float powers.
    """
    pts = [float(t) for t in points]
    m = len(pts)
    n_p = 2 * m - k
    mat = np.zeros((2 * m, 2 * m))
    for i, t in enumerate(pts):
        w = (1.0 - t * t) ** (m - k)
        for j in range(n_p):
            mat[i if j % 2 == 0 else m + i, j] = t**j
        for j in range(k):
            mat[m + i if j % 2 == 0 else i, n_p + j] = t**j * w
    return mat


def jittered_points(count: int, rng: np.random.Generator) -> list[float]:
    """Distinct points in (0, 1), ascending, separation at least 0.2 slots."""
    jitter = rng.uniform(-0.4, 0.4, size=count)
    return [(q + 1 + jitter[q]) / (count + 1.0) for q in range(count)]


_SQRT_SCALE = 10**60


def sqrt_fraction(x: Fraction) -> Fraction:
    """Rational square root accurate to about 60 digits."""
    num = x.numerator * _SQRT_SCALE**2
    return Fraction(isqrt(num * x.denominator), _SQRT_SCALE * x.denominator)


def fd_weights_exact(n: int, npts: int) -> tuple[list[int], list[Fraction]]:
    """Central finite-difference weights for the n-th derivative, exact.

    Solves the moment system over integer offsets with Fraction arithmetic,
    so the only error left in a finite-difference derivative is truncation.
    """
    p = npts // 2
    offs = list(range(-p, p + 1))
    mat = [[Fraction(o) ** i for o in offs] for i in range(npts)]
    rhs = [Fraction(0)] * npts
    rhs[n] = Fraction(factorial(n))
    for col in range(npts):
        piv = next(r for r in range(col, npts) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        rhs[col] *= inv
        for r in range(npts):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
                rhs[r] -= factor * rhs[col]
    return offs, rhs


def halfpower_derivative_poly_value(r: int, s: int, k: int, t0: Fraction) -> float:
    """Oracle for the reduced polynomial h_k via high-order finite differences.

    Differentiates f(t) = t**(k + 1/2) (1 - t)**(r - s) a total of r + 1
    times with an exact-rational central stencil, multiplies by
    t**(r + 1/2), and rescales by the constant

        (-1)**(r - k) 2**(r + 1)
            / (prod_{i<k} (2i + 1) * prod_{i=1..s-k-1} (2i - 1)),

    which turns the derivative into h_k(t) = sum_j a[k][j] t**(j + k).
    Step 1/1024 keeps truncation below 1e-13 relative through r = 8.
    """
    n = r + 1
    npts = n + 7 if (n + 7) % 2 == 1 else n + 8
    offs, weights = fd_weights_exact(n, npts)
    h = Fraction(1, 1024)

    def f(t: Fraction) -> Fraction:
        return sqrt_fraction(t) * t**k * (1 - t) ** (r - s)

    deriv = sum(w * f(t0 + o * h) for o, w in zip(offs, weights)) / h**n
    const = Fraction((-1) ** (r - k) * 2 ** (r + 1))
    for i in range(k):
        const /= 2 * i + 1
    for i in range(1, s - k):
        const /= 2 * i - 1
    return float(const * sqrt_fraction(t0) * t0**r * deriv)
