"""Collocation assembly, interpolation solves, and poisedness certificates.

The collocation matrix is dense, (n+1)**2 square, over the monomial-band
basis in canonical order. Solves use LU with partial pivoting plus one step
of iterative refinement; the certificate reports log|det| from the LU
factors, the smallest pivot, a 1-norm condition estimate, and residuals
over random right-hand sides. Desk scale is n <= 13 (196 x 196).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from .errors import InputError, PoisednessError
from .nodes import NodeSet
from .spherical import SphericalPoly, spherical_from_vector

RESIDUAL_TOL = 1e-8  # relative residual bound certified by solve/certificate


@dataclass(frozen=True)
class InterpolationProblem:
    nodes: NodeSet
    data: tuple[float, ...]

    def __post_init__(self):
        count = self.nodes.count()
        if len(self.data) != count:
            raise InputError(f"data length {len(self.data)} != node count {count}")
        object.__setattr__(self, "data", tuple(float(v) for v in self.data))
        bad = next((i for i, v in enumerate(self.data) if not math.isfinite(v)), None)
        if bad is not None:
            raise InputError(f"data must be finite, got {self.data[bad]!r} at index {bad}")


@dataclass(frozen=True)
class SolveReport:
    solution: SphericalPoly
    residual_inf: float
    condition_estimate: float
    pivot_min: float


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    log_abs_det: float
    det_sign: int
    pivot_min: float
    condition_estimate: float
    residuals: tuple[float, ...]


def assemble_at_points(n: int, points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Collocation matrix of the degree-n basis at arbitrary (theta, phi) points.

    Column order follows ``basis_index_order``; entry (i, j) is basis_j at
    point i. Columns are built band by band from the structural form
    t**j sin**k cos(k phi), which agrees with evaluating each basis element.
    """
    th = np.array([p[0] for p in points], dtype=float)
    ph = np.array([p[1] for p in points], dtype=float)
    t = np.cos(th)
    s = np.sin(th)
    tp = np.vander(t, N=n + 1, increasing=True)
    cols = []
    for k in range(n + 1):
        sk = s**k
        ck = np.cos(k * ph) * sk
        for j in range(n - k + 1):
            cols.append(tp[:, j] * ck)
        if k >= 1:
            snk = np.sin(k * ph) * sk
            for j in range(n - k + 1):
                cols.append(tp[:, j] * snk)
    return np.column_stack(cols)


def assemble_matrix(nodes: NodeSet) -> np.ndarray:
    return assemble_at_points(nodes.n, nodes.points())


def _factor(matrix: np.ndarray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(matrix)
    diag = np.abs(np.diag(lu))
    pivot_min = float(diag.min())
    anorm = float(np.linalg.norm(matrix, 1))
    rcond, _ = dgecon(lu, anorm, norm="1")
    cond = float(1.0 / rcond) if rcond > 0.0 else math.inf
    return (lu, piv), pivot_min, max(cond, 1.0)


def _solve_refined(matrix, lu_piv, rhs):
    x = lu_solve(lu_piv, rhs)
    x = x + lu_solve(lu_piv, rhs - matrix @ x)
    return x


def solve(problem: InterpolationProblem) -> SolveReport:
    """Interpolate the data, reporting residual and conditioning.

    Raises PoisednessError when the collocation matrix is singular to
    working precision; for node sets built by ``build_nodeset`` this signals
    either invalid input or a conditioning collapse (see ``pivot_min``).
    """
    matrix = assemble_matrix(problem.nodes)
    lu_piv, pivot_min, cond = _factor(matrix)
    dim = matrix.shape[0]
    floor = 10.0 * dim * np.finfo(float).eps * float(np.abs(matrix).max())
    if pivot_min <= floor:
        kind = "exactly singular" if pivot_min == 0.0 else "singular to working precision"
        raise PoisednessError(
            f"collocation matrix is {kind} (pivot {pivot_min:.3e})",
            pivot_min=pivot_min,
            condition_estimate=cond,
        )
    f = np.array(problem.data)
    x = _solve_refined(matrix, lu_piv, f)
    residual = float(np.max(np.abs(matrix @ x - f)))
    return SolveReport(
        solution=spherical_from_vector(problem.nodes.n, x),
        residual_inf=residual,
        condition_estimate=cond,
        pivot_min=pivot_min,
    )


def poisedness_certificate(nodes: NodeSet, trials: int = 8, seed: int = 0) -> CertificateReport:
    """Numerical poisedness check; failure is an outcome, not an exception.

    PASS requires a finite log|det| and relative residuals at most
    ``RESIDUAL_TOL`` over ``trials`` (at least one) random right-hand sides.
    """
    if trials < 1:
        raise InputError(f"trials must be a positive integer, got {trials}")
    matrix = assemble_matrix(nodes)
    (lu, piv), pivot_min, cond = _factor(matrix)
    diag = np.diag(lu)
    swaps = int(np.sum(piv != np.arange(len(piv))))
    if pivot_min == 0.0:
        log_abs_det = -math.inf
        det_sign = 0
    else:
        log_abs_det = float(np.sum(np.log(np.abs(diag))))
        det_sign = int((-1) ** swaps * np.prod(np.sign(diag)))

    residuals = []
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f = rng.uniform(-1.0, 1.0, size=matrix.shape[0])
        if not math.isfinite(log_abs_det):
            residuals.append(math.inf)
            continue
        x = _solve_refined(matrix, (lu, piv), f)
        residuals.append(float(np.max(np.abs(matrix @ x - f)) / max(1.0, np.max(np.abs(f)))))

    passed = math.isfinite(log_abs_det) and all(r <= RESIDUAL_TOL for r in residuals)
    return CertificateReport(
        passed=passed,
        log_abs_det=log_abs_det,
        det_sign=det_sign,
        pivot_min=pivot_min,
        condition_estimate=cond,
        residuals=tuple(residuals),
    )
