"""Collocation assembly, interpolation solves, and poisedness certificates; every power of
cos theta and sin theta and every cos and sin of k phi comes from ``spherical``'s basis tables.

The solver runs the factorization behind the poisedness theorem forward,
one group of the plan at a time, and never assembles the collocation
matrix. Group g sits at degree d_g with 2 lambda_g latitudes of 2 s_g
azimuths each. With Pi_g(t) = prod_i (t - cos theta_i) over its latitudes,
the degree-d_g space splits as V_g + Pi_g * P_(d_g - 2 lambda_g), where V_g
holds the band polynomials of t-degree below 2 lambda_g. The second part
vanishes on group g, so the group's values determine the V_g part alone:

* an orthonormal real FFT along each ring splits that solve by azimuthal
  frequency; the class {p, 2 s_g - p} is one complex 2 lambda_g square
  block, the classes 0 and s_g are real 2 lambda_g squares, each ring
  keeps its own azimuth phase, and one batched solve handles each kind;
* the sweep pulls: with Psi_g = Pi_0 ... Pi_(g-1) and coef the sum of the
  earlier Psi_h r_h, group g reads its data as (f - coef(x)) / Psi_g(x) at
  its own nodes only (``spherical.band_values`` of coef once per ring on the
  chain's power tables, then one batched matmul with the group's cos/sin table);
* its V_g solution r_g is added to coef as Psi_g r_g, one matmul with a
  table of the monomial coefficients of t**j Psi_g.

``solve`` and ``poisedness_certificate`` share one chain per node set,
built once and freed with the node set. It holds every number that
depends only on the node set; each call then solves only its own data,
as columns, and refines them once. Reported numbers:

* ``pivot_min``: the smallest singular value among the diagonal blocks of
  that factorization, the frequency blocks with the rows of each ring
  scaled by the earlier Pi at its latitude;
* ``condition_estimate``: kappa = ||A||_inf * max ||A^-1 f||_inf / ||f||_inf
  over three fixed-seed +-1 probe columns, solved once with the chain, a
  lower bound on the infinity-norm condition number; ||A||_inf comes from
  node-wise row sums;
* ``log_abs_det``: log|det| of the dense collocation matrix, the sum of
  the logs of the same block singular values (one SVD per block gives
  both; a complex block's count twice); the orthonormal ring transforms
  and the row and column orders change no magnitude.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, PoisednessError
from .nodes import NodeSet, azimuth_grid, read_count
from .spherical import SphericalPoly, azimuth_tables, band_mask, band_values, power_tables

RESIDUAL_TOL = 1e-8  # poisedness_certificate's relative residual bound; the CLI's default --residual-tol

_PROBES = 3  # +-1 probe columns behind the condition estimate
_PROBE_SEED = 20040  # fixed, so the estimate is reproducible
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class InterpolationProblem:
    nodes: NodeSet
    data: tuple[float, ...]

    def __post_init__(self):
        count = self.nodes.count()
        if len(self.data) != count:
            raise InputError(f"data length {len(self.data)} != node count {count}")
        values = np.fromiter(self.data, dtype=float, count=count)
        object.__setattr__(self, "data", tuple(values.tolist()))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InputError(f"data must be finite, got {self.data[bad[0]]!r} at index {bad[0]}")


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
    pivot_min: float
    condition_estimate: float
    residuals: tuple[float, ...]


def assemble_at_points(n: int, points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Collocation matrix of the degree-n basis at arbitrary (theta, phi) points.

    Column order is the canonical order of ``band_mask``; entry (i, c) is
    basis element c at point i, built from the structural form
    t**j sin**k (cos, sin)(k phi), which agrees with evaluating it.
    """
    th, ph = np.asarray(points, dtype=float).reshape(-1, 2).T
    t_pow, s_pow = power_tables(th, n)
    trig = azimuth_tables(ph, n) * s_pow[:, :, None]  # [point, k, kind]
    k, kind, j = np.nonzero(band_mask(n))
    return t_pow[:, j] * trig[:, k, kind]


def assemble_matrix(nodes: NodeSet) -> np.ndarray:
    return assemble_at_points(nodes.n, nodes.points())


def _class_blocks(t_pow, s_pow, phase, s: int):
    """Frequency-class blocks of V_g at one group's rings, and their columns.

    The group has 2 lam = len(t_pow) rings of 2s azimuths at degree
    d = s + lam - 1; rows are rings, and t_pow and s_pow hold the powers
    0..d (or more) of cos theta and sin theta at each ring, and phase[ring,
    k] the (cos, sin) of k times the ring's first azimuth, for as many k. A
    middle class p (0 < p < s) has the columns t**j sin**k (cos, sin)(k phi)
    of V_g with k in {p, 2s - p}, given as (j, k, fold), fold = +1 at k = p
    and -1 at k = 2s - p. Its complex block C + i fold S maps the unknowns
    a - i fold b (a, b the cos and sin coefficients) to sqrt(2) times each
    ring's orthonormal rfft value at p: the real form
    [[C, S], [fold S, -fold C]] of (a, b). The classes 0 and s are real
    blocks on the real part of the rfft, over the cos coefficients of band
    0 and over the cos, then the sin, coefficients of band s.
    """
    width = len(t_pow)
    lam = width // 2
    d = s + lam - 1
    m2 = 2 * s
    p = np.arange(1, s)[:, None]
    u = np.arange(width)[None, :]
    w_low = np.minimum(width, d - p + 1)  # band p fills the first w_low slots,
    low = u < w_low  # band 2s - p the rest
    k = np.where(low, p, m2 - p)
    j = np.where(low, u, u - w_low)
    fold = np.where(low, 1.0, -1.0)
    # gathers from the tables equal broadcast powers bit for bit; k <= d
    mag = math.sqrt(m2 / 2.0) * t_pow[:, j].swapaxes(0, 1) * s_pow[:, k].swapaxes(0, 1)
    cos, sin = phase[:, k].transpose(3, 1, 0, 2)  # [class, ring, column] each
    mid = mag * (cos + 1j * fold[:, None, :] * sin)

    root_m = math.sqrt(m2)
    nyquist = root_m * t_pow[:, :lam] * s_pow[:, 1:2] ** s  # a scalar exponent: numpy squares at s = 2
    end = np.stack([root_m * t_pow[:, :width], (phase[:, s, :, None] * nyquist[:, None]).reshape(width, width)])
    return mid, (j, k, fold), end


@dataclass(frozen=True)
class _Group:
    lam: int
    s: int
    rings: slice
    nodes: slice
    trig: np.ndarray  # (2 lam, 2 s, n + 1, 2): cos and sin of k phi at each node of each ring
    mid: np.ndarray  # (s - 1, 2 lam, 2 lam) complex middle-class blocks
    mid_cols: tuple  # (j, k, fold) of each middle column
    end: np.ndarray  # (2, 2 lam, 2 lam): classes 0 and s
    psi: np.ndarray  # Psi_g(cos theta) at each ring
    psi_table: np.ndarray  # (n + 1, 2 lam): column j holds t**j Psi_g, low to high


class _Chain:
    """The chain solver for one node set, and every number that depends
    only on the node set: ``pivot_min``, ``log_abs_det`` and
    ``condition_estimate``, computed once here. A block that is exactly
    singular, or a ring where Psi_g vanishes, sets ``exactly_singular``,
    log|det| -inf and kappa inf. Group g owns its plan rings and the next
    4 lam s nodes; its class blocks read their ring phases from its cos/sin
    k phi table, whose azimuths come from ``azimuth_grid``.

    Coefficients live in arrays coef[j, k, kind, column], one
    ``SphericalPoly.coef`` per column.
    """

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # kappa may overflow to inf; log(0) is -inf
    def __init__(self, nodes: NodeSet):
        plan = nodes.plan
        n = plan.n
        self.t_pow, self.s_pow = t_pow, s_pow = power_tables(nodes.theta, n)
        # row sums of |A|: sum_k s**k (sum_{j <= n - k} |t|**j) (|cos k phi| + |sin k phi|)
        weights = s_pow * np.cumsum(np.abs(t_pow), axis=1)[:, ::-1]
        norm_inf = 0.0

        self.groups: list[_Group] = []
        sigma = []  # singular values of the diagonal blocks; a complex block's count twice
        psi = np.ones(n + 1)  # product of the earlier Pi at each ring
        psi_poly = np.ones(1)  # Psi_g, high to low, one factor at a time as np.poly multiplies
        first = 0  # the group's first node
        for lam, s, rings in zip(plan.lambdas, plan.azimuth_half_counts(), plan.ring_slices()):
            tags, tag_of = np.unique(nodes.alpha[rings], return_inverse=True)
            trig = azimuth_tables(azimuth_grid(s, tags), n)[tag_of]
            row_sums = np.sum(weights[rings, None] * np.sum(np.abs(trig), axis=-1), axis=-1)
            norm_inf = max(norm_inf, float(np.max(row_sums)))
            t = t_pow[rings, 1]
            mid, mid_cols, end = _class_blocks(t_pow[rings], s_pow[rings], trig[:, 0], s)
            mid_sigma, end_sigma = (np.linalg.svd(psi[rings, None] * b, compute_uv=False).ravel() for b in (mid, end))
            sigma += [mid_sigma, mid_sigma, end_sigma]
            psi_table = np.zeros((n + 1, 2 * lam))
            for j in range(2 * lam):
                psi_table[j : j + rings.start + 1, j] = psi_poly[::-1]
            self.groups.append(
                _Group(
                    lam=lam,
                    s=s,
                    rings=rings,
                    nodes=slice(first, first + 4 * lam * s),
                    trig=trig,
                    mid=mid,
                    mid_cols=mid_cols,
                    end=end,
                    psi=psi[rings],
                    psi_table=psi_table,
                )
            )
            first += 4 * lam * s
            psi[rings.stop :] *= np.prod(t_pow[rings.stop :, 1:2] - t[None, :], axis=1)
            for c in t:
                psi_poly = np.convolve(psi_poly, [1.0, -c])

        sigma = np.concatenate(sigma)
        self.pivot_min, self.log_abs_det = float(sigma.min()), float(np.sum(np.log(sigma)))
        probes = np.random.default_rng(_PROBE_SEED).choice((-1.0, 1.0), size=(nodes.count(), _PROBES))
        # Psi_g vanishes where a ring shares a latitude cosine with an earlier group
        self.exactly_singular, cond = not np.all(psi), math.inf
        try:
            if not self.exactly_singular:
                cond = norm_inf * float(np.max(np.abs(self.solve(probes))))
        except np.linalg.LinAlgError:
            self.exactly_singular = True
        if self.exactly_singular:
            self.log_abs_det = -math.inf
        self.condition_estimate = max(cond, 1.0) if math.isfinite(cond) else math.inf

    def values(self, coef: np.ndarray, groups: slice = slice(None)) -> np.ndarray:
        """Values of coefficient columns at the nodes of a run of consecutive
        groups, all of them by default: [node, column]. The bands are evaluated
        once per ring (``band_values`` on the chain's power tables), then each
        group's rings take one batched matmul with its cos/sin table."""
        _, bands, _, cols = coef.shape
        chosen = self.groups[groups]
        r0, r1 = chosen[0].rings.start, chosen[-1].rings.stop
        vals = band_values(self.t_pow[r0:r1], self.s_pow[r0:r1], coef)
        out = []
        for g in chosen:
            ring_vals = vals[g.rings.start - r0 : g.rings.stop - r0].reshape(2 * g.lam, 2 * bands, cols)
            out.append((g.trig.reshape(2 * g.lam, 2 * g.s, -1)[:, :, : 2 * bands] @ ring_vals).reshape(-1, cols))
        return np.concatenate(out)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Coefficients of the interpolants of the columns of rhs (node order).

        One pull sweep: group g solves its frequency blocks for r_g on
        (rhs - coef(x)) / Psi_g(x) at its own nodes, then adds Psi_g r_g to
        coef. Raises ``np.linalg.LinAlgError`` when a block is exactly singular.
        """
        cols = rhs.shape[1]
        width = len(self.t_pow)  # a degree-n plan has n + 1 latitudes
        coef = np.zeros((width, width, 2, cols))
        for i, g in enumerate(self.groups):
            data = rhs[g.nodes].reshape(2 * g.lam, 2 * g.s, cols)
            if i:  # at the first group coef is zero and Psi_0 = 1
                data = (data - self.values(coef, slice(i, i + 1)).reshape(data.shape)) / g.psi[:, None, None]
            spectra = np.fft.rfft(data, axis=1, norm="ortho")
            r = np.zeros((2 * g.lam, g.s + g.lam, 2, cols))
            j, k, fold = g.mid_cols
            z = np.linalg.solve(g.mid, math.sqrt(2.0) * spectra[:, 1 : g.s].transpose(1, 0, 2))
            r[j, k, 0] = z.real
            r[j, k, 1] = -fold[..., None] * z.imag
            r[:, 0, 0], nyquist = np.linalg.solve(g.end, np.stack([spectra[:, 0].real, spectra[:, g.s].real]))
            r[: g.lam, g.s] = nyquist.reshape(2, g.lam, cols).swapaxes(0, 1)
            if i:
                coef[:, : g.s + g.lam] += (g.psi_table @ r.reshape(2 * g.lam, -1)).reshape(width, -1, 2, cols)
            else:
                coef[: 2 * g.lam, : g.s + g.lam] = r
        return coef

    @np.errstate(over="ignore", invalid="ignore")  # non-finite values reach SphericalPoly, which rejects them
    def refine(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of the columns of f after one refinement step,
        and each column's largest residual at the nodes; only for a chain
        that is not exactly singular."""
        coef = self.solve(f)
        coef = coef + self.solve(f - self.values(coef))
        return coef, np.max(np.abs(self.values(coef) - f), axis=0)


# NodeSet -> its chain; NodeSet hashes by identity and the chain holds no
# reference to it, so an entry dies with its node set
_CHAINS = weakref.WeakKeyDictionary()


def _chain(nodes: NodeSet) -> _Chain:
    if nodes not in _CHAINS:
        _CHAINS[nodes] = _Chain(nodes)
    return _CHAINS[nodes]


def solve(problem: InterpolationProblem) -> SolveReport:
    """Interpolate the data, reporting residual and conditioning.

    Raises PoisednessError when a frequency block is exactly singular or
    the condition estimate reaches 1 / (10 N u), the point where float64
    can no longer certify an N-point solve; for node sets built by
    ``build_nodeset`` this signals either invalid input or a conditioning
    collapse (see ``pivot_min``).
    """
    chain = _chain(problem.nodes)
    pivot_min, cond = chain.pivot_min, chain.condition_estimate
    if chain.exactly_singular:
        raise PoisednessError(
            f"collocation matrix is exactly singular (smallest block singular value {pivot_min:.3e})",
            pivot_min=pivot_min,
            condition_estimate=cond,
        )
    bound = 1.0 / (10.0 * problem.nodes.count() * _UNIT_ROUNDOFF)
    if not cond < bound:
        raise PoisednessError(
            f"collocation matrix is singular to working precision (condition "
            f"estimate {cond:.3e} reaches 1/(10 N u) = {bound:.3e})",
            pivot_min=pivot_min,
            condition_estimate=cond,
        )
    coef, residual = chain.refine(np.array(problem.data)[:, None])
    return SolveReport(
        solution=SphericalPoly(coef[..., 0]),
        residual_inf=float(residual[0]),
        condition_estimate=cond,
        pivot_min=pivot_min,
    )


def poisedness_certificate(nodes: NodeSet, trials: int = 8, seed: int = 0) -> CertificateReport:
    """Numerical poisedness check; failure is an outcome, not an exception.

    PASS requires a finite log|det| and relative residuals at most
    ``RESIDUAL_TOL`` over ``trials`` (at least one) random right-hand sides,
    drawn from the nonnegative integer ``seed``.
    """
    trials, seed = read_count(trials, "trials", 1), read_count(seed, "seed", 0)
    chain = _chain(nodes)
    residuals = (math.inf,) * trials
    if not chain.exactly_singular:
        f = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(trials, nodes.count())).T
        res = chain.refine(f)[1] / np.maximum(1.0, np.max(np.abs(f), axis=0))
        residuals = tuple(float(r) if math.isfinite(r) else math.inf for r in res)
    passed = math.isfinite(chain.log_abs_det) and all(r <= RESIDUAL_TOL for r in residuals)
    return CertificateReport(
        passed=passed,
        log_abs_det=chain.log_abs_det,
        pivot_min=chain.pivot_min,
        condition_estimate=chain.condition_estimate,
        residuals=residuals,
    )
