"""Positive cubature on the sphere from interpolation at symmetric latitudes.

The rule lives on 2m mirror-paired latitudes, each carrying 2m equidistant
azimuths (southern grids rotated by a half step). The latitude weights are
the integrals over [-1, 1] of the Lagrange cardinals on the cos(theta)
grid, and every node of latitude i gets weight (pi / m) w_i. The rule
integrates every spherical polynomial of degree 2m - 1 exactly, and all
weights are nonnegative when the latitudes sit at the Gauss-Legendre
angles.

Exactness separates ring by ring: on basis element (k, cos/sin, j) the
rule gives (pi / m) sum_i w_i t_i**j s_i**k times the ring's azimuthal
sum of cos(k phi) or sin(k phi), so the certificate needs O(m**3) time
and O(m**2) memory and never builds a node-by-basis matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, WeightSumError
from .nodes import azimuth_grid, check_mirrored, legendre_latitudes, mirror_alphas, read_count, read_number
from .spherical import azimuth_tables, band_mask, power_tables

_PI = math.pi
TOL_WEIGHT_SUM = 1e-12


@dataclass(frozen=True)
class CubatureRule:
    """2m symmetric latitudes x 2m azimuths with per-latitude weights.

    ``weights[i]`` integrates the i-th Lagrange cardinal of the cos(theta)
    grid; they sum to 2. The azimuth tags come from ``mirror_alphas``.
    """

    m: int
    latitudes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", read_count(self.m, "m", 1))
        if len(self.latitudes) != 2 * self.m or len(self.weights) != 2 * self.m:
            raise InputError(f"need {2 * self.m} latitudes and weights")
        check_mirrored(self.latitudes)
        total = sum(self.weights)
        if not abs(total - 2.0) <= TOL_WEIGHT_SUM:
            raise InputError(f"weights must sum to 2, got {total!r}")

    def azimuths(self) -> np.ndarray:
        """(2m, 2m) array: row i holds the azimuths of latitude i."""
        return azimuth_grid(self.m, mirror_alphas(2 * self.m))

    def node_count(self) -> int:
        return 4 * self.m * self.m

    def nodes(self) -> list[tuple[float, float, float]]:
        """Flattened (theta, phi, node_weight) triples."""
        return [
            (th, ph, (_PI / self.m) * w)
            for th, w, phis in zip(self.latitudes, self.weights, self.azimuths().tolist())
            for ph in phis
        ]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "latitudes": list(self.latitudes),
            "weights": list(self.weights),
            "nodes": [[th, ph, w] for th, ph, w in self.nodes()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "CubatureRule":
        """Read ``m`` and the numbers ``latitudes`` and ``weights``; ``nodes``, if
        present, must equal the nodes they define."""
        try:
            m = read_count(data["m"], "m")
            latitudes = tuple(read_number(t, "a latitude") for t in data["latitudes"])
            weights = tuple(read_number(w, "a weight") for w in data["weights"])
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed cubature rule: {type(exc).__name__}: {exc}") from None
        rule = CubatureRule(m=m, latitudes=latitudes, weights=weights)
        if "nodes" in data and data["nodes"] != rule.to_json_dict()["nodes"]:
            raise InputError("nodes differ from the ones the latitudes and weights define")
        return rule


def build_rule(latitudes: Sequence[float]) -> CubatureRule:
    """Interpolatory weights from the even Legendre moment system.

    ``latitudes`` must be 2m angles in (0, pi) with pairwise distinct
    cosines and the mirror symmetry theta_{2m+1-i} = pi - theta_i (see
    ``check_mirrored``). The weights of mirrored latitudes are equal, so
    the odd moments vanish and the m northern weights solve
    sum_i w_i P_2j(cos theta_i) = delta_j0 for j = 0..m-1 (Golub & Welsch,
    Math. Comp. 1969); the southern weights are their mirrored copy.

    Raises ``WeightSumError`` when the moment matrix is singular in
    float64 or the computed weights miss the sum 2 by more than
    ``TOL_WEIGHT_SUM``: the solve lost precision on valid input.
    """
    ths = check_mirrored(latitudes)
    m = len(ths) // 2
    even = np.polynomial.legendre.legvander(np.cos(ths[:m]), 2 * m - 2)[:, ::2]
    try:
        north = np.linalg.solve(even.T, np.eye(m)[0])
    except np.linalg.LinAlgError:
        raise WeightSumError(f"the even Legendre moment matrix is singular in float64 at m = {m}") from None
    weights = tuple(float(w) for w in np.concatenate([north, north[::-1]]))
    total = sum(weights)
    if not abs(total - 2.0) <= TOL_WEIGHT_SUM:
        raise WeightSumError(
            f"computed weights sum to {total!r}, not 2 within {TOL_WEIGHT_SUM:.0e} "
            f"(largest |weight| {max(abs(w) for w in weights):.3e}): the moment "
            f"solve lost precision at m = {m}"
        )
    return CubatureRule(m=m, latitudes=tuple(ths), weights=weights)


def legendre_rule(m: int) -> CubatureRule:
    return build_rule(legendre_latitudes(m))


def apply_rule(rule: CubatureRule, f: Callable[[float, float], float]) -> float:
    """Weighted node sum (pi / m) sum_i w_i sum_j f(theta_i, phi_j).

    Summation order is fixed (latitudes outer, azimuths inner) so repeated
    applications are bitwise reproducible.
    """
    total = 0.0
    for th, w, phis in zip(rule.latitudes, rule.weights, rule.azimuths().tolist()):
        ring_sum = 0.0
        for ph in phis:
            ring_sum += f(th, ph)
        total += w * ring_sum
    return (_PI / rule.m) * total


def trig_quadrature_check(
    p_degree: int, m: int, alpha: int, trials: int, seed: int = 0
) -> float:
    """Worst equal-weight quadrature error over random trig polynomials.

    Compares the true mean (the constant coefficient) against the average
    over the 2m azimuths (2j + alpha) pi / (2m). Exactness is claimed for
    p_degree <= m; larger degrees may be probed to record the observed
    error without any claim.
    """
    m, trials = read_count(m, "m", 1), read_count(trials, "trials", 1)
    p_degree = read_count(p_degree, "p_degree", 0)
    if read_count(alpha, "alpha") not in (0, 1):
        raise InputError("alpha must be 0 or 1")
    rng = np.random.default_rng(read_count(seed, "seed", 0))
    trig = azimuth_tables(azimuth_grid(m, alpha), p_degree)[:, 1:].reshape(2 * m, -1)  # [phi, (d, kind)]
    worst = 0.0
    for _ in range(trials):
        c = rng.standard_normal(2 * p_degree + 1)  # the mean, then the cos and sin coefficients of each d
        worst = max(worst, abs(float(np.mean(c[0] + trig @ c[1:]) - c[0])))
    return worst


def analytic_basis_integral(k: int, j: int) -> float:
    """Surface integral of the basis element (k, j): zero unless k = 0, j even."""
    if k == 0 and j % 2 == 0:
        return 2.0 * _PI * 2.0 / (j + 1)
    return 0.0


@dataclass(frozen=True)
class ExactnessReport:
    max_abs_error: float
    errors: tuple[float, ...]


def exactness_certificate(rule: CubatureRule) -> ExactnessReport:
    """Rule-vs-analytic integrals over the whole degree 2m - 1 basis.

    The analytic side uses the band structure: only the k = 0 band has a
    nonzero surface integral, namely 2 pi times the moment of t**j over
    [-1, 1]; every k >= 1 band integrates to zero over full turns of phi.
    The rule side is computed from the rule's own nodes and weights, ring
    by ring: each ring's azimuthal sums C[i, k, kind] of cos(k phi_il) and
    sin(k phi_il) over its own grid (one ring's ``azimuth_tables`` at a
    time, so the rotated southern rings keep their phase), then one
    contraction, (pi / m) sum_i w_i t_i**j s_i**k C[i, k, kind]. Errors
    come back in ``basis_index_order``.
    """
    n = 2 * rule.m - 1
    sums = np.stack([azimuth_tables(phis, n).sum(axis=0) for phis in rule.azimuths()])  # [i, k, kind]
    powers, sines = power_tables(rule.latitudes, n)  # [i, j] = t_i**j, [i, k] = s_i**k
    band = (_PI / rule.m) * np.array(rule.weights)[:, None, None] * sines[:, :, None] * sums
    rule_vals = np.tensordot(band, powers, axes=(0, 0))  # [k, kind, j]
    exact = np.array([[analytic_basis_integral(k, j) for j in range(n + 1)] for k in range(n + 1)])
    errors = (rule_vals - exact[:, None, :])[band_mask(n)].tolist()  # [k, kind, j]
    max_err = max(abs(e) for e in errors)
    return ExactnessReport(max_abs_error=max_err, errors=tuple(errors))

