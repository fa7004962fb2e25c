"""Collocation assembly, interpolation solves, and poisedness certificates.

The solver runs the factorization behind the poisedness theorem forward,
one group of the plan at a time, and never assembles the collocation
matrix. Group g sits at degree d_g with 2 lambda_g latitudes of 2 s_g
azimuths each. With Pi_g(t) = prod_i (t - cos theta_i) over its latitudes,
the degree-d_g space splits as V_g + Pi_g * P_(d_g - 2 lambda_g), where V_g
holds the band polynomials of t-degree below 2 lambda_g. The second part
vanishes on group g, so the group's values determine the V_g part alone:

* an orthonormal real FFT along each ring splits that solve by azimuthal
  frequency; the class {p, 2 s_g - p} is one 4 lambda_g square block, the
  classes 0 and s_g are 2 lambda_g square, and each ring keeps its own
  azimuth phase; one batched ``np.linalg.solve`` handles the blocks;
* the V_g part is subtracted at the later rings, their values are divided
  by Pi_g(cos theta), and the chain recurses at degree d_g - 2 lambda_g;
* the monomial bands are rebuilt as a_k = r_k + Pi_g q_k.

``solve`` and ``poisedness_certificate`` read one pass, which solves several
right-hand sides as columns and then refines them once. The chain and its
block SVDs are built once per node set, shared by both calls, and freed
with the node set. Reported numbers:

* ``pivot_min``: the smallest singular value among the diagonal blocks of
  that factorization, the frequency blocks with the rows of each ring
  scaled by the earlier Pi at its latitude;
* ``condition_estimate``: kappa = ||A||_inf * max ||A^-1 f||_inf / ||f||_inf
  over three fixed-seed +-1 probe columns solved in the same pass, a lower
  bound on the infinity-norm condition number; ||A||_inf comes from
  node-wise row sums;
* ``log_abs_det``: log|det| of the dense collocation matrix, the sum of
  the logs of the same block singular values (one SVD per block gives
  both numbers); the orthonormal ring transforms and the row and column
  orders change no magnitude.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, PoisednessError
from .nodes import NodeSet
from .spherical import SphericalPoly, band_mask

RESIDUAL_TOL = 1e-8  # relative residual bound certified by solve/certificate

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
    kphi = np.outer(ph, np.arange(n + 1))
    # one scalar exponent per k: numpy squares for k = 2, an array exponent calls pow
    sin_pow = np.stack([np.sin(th) ** k for k in range(n + 1)], axis=1)[:, :, None]
    trig = np.stack([np.cos(kphi), np.sin(kphi)], axis=2) * sin_pow  # [point, k, kind]
    k, kind, j = np.nonzero(band_mask(n))
    return np.vander(np.cos(th), N=n + 1, increasing=True)[:, j] * trig[:, k, kind]


def assemble_matrix(nodes: NodeSet) -> np.ndarray:
    return assemble_at_points(nodes.n, nodes.points())


def _class_blocks(t, sn, alpha, s: int):
    """Frequency-class blocks of V_g at one group's rings, and their columns.

    The group has 2 lam = len(t) rings of 2s azimuths at degree
    d = s + lam - 1. Rows are the orthonormal real DFT coefficients of the
    rings: for a middle class p (0 < p < s) first sqrt(2) Re, then
    sqrt(2) Im, ring by ring; for the classes 0 and s the real part.
    Columns are the V_g basis elements t**j sin**k (cos, sin)(k phi) whose
    frequency k folds onto the class; each comes with its (j, k, kind)
    index, kind 0 for cos.
    """
    width = len(t)
    lam = width // 2
    d = s + lam - 1
    m2 = 2 * s
    beta = np.asarray(alpha) * math.pi / m2  # ring phase: phi_l = 2 pi l / m2 + beta
    p = np.arange(1, s)[:, None]
    u = np.arange(width)[None, :]
    w_low = np.minimum(width, d - p + 1)  # band p fills the first w_low slots,
    low = u < w_low  # band 2s - p the rest
    k = np.where(low, p, m2 - p)
    j = np.where(low, u, u - w_low)
    fold = np.where(low, 1.0, -1.0)[:, None, :]
    t_pow = t[:, None] ** np.arange(width)  # gathers from these tables equal broadcast powers bit for bit
    s_pow = sn[:, None] ** np.arange(d + 1)  # k <= d: band 2s - p only fills slots when p > s - lam
    mag = math.sqrt(m2 / 2.0) * t_pow[:, j].swapaxes(0, 1) * s_pow[:, k].swapaxes(0, 1)
    phase = k[:, None, :] * beta[None, :, None]
    c = mag * np.cos(phase)
    sp = mag * np.sin(phase)
    mid = np.block([[c, sp], [fold * sp, -fold * c]])
    mid_index = (np.concatenate([j, j], axis=1), np.concatenate([k, k], axis=1), np.repeat([0, 1], width))

    root_m = math.sqrt(m2)
    v = np.arange(lam)
    nyquist = root_m * t_pow[:, :lam] * sn[:, None] ** s  # a scalar exponent: numpy squares at s = 2
    end = np.stack(
        [
            root_m * t_pow,
            np.concatenate(
                [nyquist * np.cos(s * beta)[:, None], nyquist * np.sin(s * beta)[:, None]], axis=1
            ),
        ]
    )
    end_index = (
        np.array([np.arange(width), np.concatenate([v, v])]),
        np.array([[0] * width, [s] * width]),
        np.array([[0] * width, [0] * lam + [1] * lam]),
    )
    return mid, mid_index, end, end_index


@dataclass(frozen=True)
class _Group:
    lam: int
    s: int
    degree: int
    nodes: slice
    later_rings: slice
    later_nodes: slice
    mid: np.ndarray  # (s - 1, 4 lam, 4 lam) middle-class blocks
    mid_index: tuple
    end: np.ndarray  # (2, 2 lam, 2 lam): classes 0 and s
    end_index: tuple
    pi_coeffs: np.ndarray  # Pi_g, low to high
    pi_later: np.ndarray  # Pi_g(cos theta) at every later node
    psi: np.ndarray  # product of the earlier Pi at this group's rings


class _Chain:
    """Tables of the chain solver for one node set, built once per node set.

    Coefficients live in arrays coef[j, k, kind, column], one
    ``SphericalPoly.coef`` per column.
    """

    def __init__(self, nodes: NodeSet):
        plan = nodes.plan
        n = plan.n
        self.size = (n + 1) ** 2
        self.t = np.cos(nodes.theta)
        powers = np.arange(n + 1)
        self.t_pow = self.t[:, None] ** powers
        self.s_pow = np.sin(nodes.theta)[:, None] ** powers
        ring_sizes = np.repeat(2 * np.array(plan.azimuth_half_counts()), 2 * np.array(plan.lambdas))
        self.node_ring = np.repeat(np.arange(n + 1), ring_sizes)
        kphi = np.outer(nodes.points()[:, 1], powers)
        self.cos = np.cos(kphi)
        self.sin = np.sin(kphi)
        # row sums of |A|: sum_k s**k (sum_{j <= n - k} |t|**j) (|cos k phi| + |sin k phi|)
        tails = np.cumsum(np.abs(self.t_pow), axis=1)[:, ::-1]
        weights = (self.s_pow * tails)[self.node_ring]
        self.norm_inf = float(np.max(np.sum(weights * (np.abs(self.cos) + np.abs(self.sin)), axis=1)))

        self.groups: list[_Group] = []
        r0 = o0 = 0
        psi = np.ones(n + 1)
        for lam, s, d in zip(plan.lambdas, plan.azimuth_half_counts(), plan.degrees()):
            r1 = r0 + 2 * lam
            o1 = o0 + 2 * lam * 2 * s
            t = self.t[r0:r1]
            mid, mid_index, end, end_index = _class_blocks(t, self.s_pow[r0:r1, 1], nodes.alpha[r0:r1], s)
            pi_rings = np.prod(self.t[r1:, None] - t[None, :], axis=1)
            self.groups.append(
                _Group(
                    lam=lam,
                    s=s,
                    degree=d,
                    nodes=slice(o0, o1),
                    later_rings=slice(r1, None),
                    later_nodes=slice(o1, None),
                    mid=mid,
                    mid_index=mid_index,
                    end=end,
                    end_index=end_index,
                    pi_coeffs=np.poly(t)[::-1],
                    pi_later=pi_rings[self.node_ring[o1:] - r1],
                    psi=psi[r0:r1],
                )
            )
            psi[r1:] *= pi_rings
            r0, o0 = r1, o1

    def values(self, coef: np.ndarray, rings: slice = slice(0, None), nodes: slice = slice(None)) -> np.ndarray:
        """Values of coefficient columns at the given nodes, which lie on the
        given rings (default: every node): [node, column]."""
        width, bands = coef.shape[:2]
        vals = (self.t_pow[rings, :width] @ coef.reshape(width, -1)).reshape(-1, bands, 2, coef.shape[-1])
        per_node = (vals * self.s_pow[rings, :bands, None, None])[self.node_ring[nodes] - rings.start]
        return np.einsum("nkc,nk->nc", per_node[:, :, 0], self.cos[nodes, :bands]) + np.einsum(
            "nkc,nk->nc", per_node[:, :, 1], self.sin[nodes, :bands]
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Coefficients of the interpolants of the columns of rhs (node order).

        Raises ``np.linalg.LinAlgError`` when a block is exactly singular.
        """
        cols = rhs.shape[1]
        work = np.array(rhs, dtype=float)
        parts = []
        for g in self.groups:
            spectra = np.fft.rfft(work[g.nodes].reshape(2 * g.lam, 2 * g.s, cols), axis=1, norm="ortho")
            r = np.zeros((2 * g.lam, g.degree + 1, 2, cols))
            if g.s > 1:
                mid = spectra[:, 1 : g.s].transpose(1, 0, 2)
                rhs_mid = math.sqrt(2.0) * np.concatenate([mid.real, mid.imag], axis=1)
                r[g.mid_index] = np.linalg.solve(g.mid, rhs_mid)
            r[g.end_index] = np.linalg.solve(g.end, np.stack([spectra[:, 0].real, spectra[:, g.s].real]))
            parts.append(r)
            if g.later_nodes.start < self.size:  # not the last group
                if not np.all(g.pi_later):
                    raise np.linalg.LinAlgError("a later ring shares a latitude cosine with this group")
                done = self.values(r, g.later_rings, g.later_nodes)
                work[g.later_nodes] = (work[g.later_nodes] - done) / g.pi_later[:, None]
        coef = None
        for g, r in zip(reversed(self.groups), reversed(parts)):
            full = np.zeros((g.degree + 1, g.degree + 1, 2, cols))
            full[: 2 * g.lam] = r
            if coef is not None:
                width = coef.shape[0]
                for shift, c in enumerate(g.pi_coeffs):
                    full[shift : shift + width, :width] += c * coef
            coef = full
        return coef

    def _blocks(self):
        """Diagonal blocks of the chain factorization: frequency blocks times
        the product of the earlier Pi at their rings."""
        for g in self.groups:
            if g.s > 1:
                yield np.tile(g.psi, 2)[:, None] * g.mid
            yield g.psi[:, None] * g.end

    def pivots(self) -> tuple[float, float]:
        """The smallest singular value over all blocks, and log|det| as the
        sum of the logs of all of them (-inf when one is exactly 0)."""
        sigma = np.concatenate([np.linalg.svd(b, compute_uv=False).ravel() for b in self._blocks()])
        with np.errstate(divide="ignore"):
            return float(sigma.min()), float(np.sum(np.log(sigma)))

    @np.errstate(over="ignore", invalid="ignore")
    def refine(self, f: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One refinement step for the columns of f: the refined coefficients
        and each column's largest residual at the nodes."""
        coef = coef + self.solve(f - self.values(coef))
        return coef, np.max(np.abs(self.values(coef) - f), axis=0)


# NodeSet -> (chain, pivot_min, log|det|); NodeSet hashes by identity and
# the chain holds no reference to it, so an entry dies with its node set
_CHAINS = weakref.WeakKeyDictionary()


@np.errstate(over="ignore", invalid="ignore")  # non-finite values reach SphericalPoly, which rejects them
def _chain_pass(nodes: NodeSet, f: np.ndarray) -> tuple[_Chain, float, float, np.ndarray | None, float]:
    """Solve the columns of f with the +-1 probe columns on the node set's chain.

    The chain and its block SVDs are built once per node set. Returns the
    chain, pivot_min, log|det|, the unrefined coefficients of f's columns
    and kappa. An exactly singular block gives coefficients None, log|det|
    -inf and kappa inf.
    """
    if nodes not in _CHAINS:
        chain = _Chain(nodes)
        _CHAINS[nodes] = (chain, *chain.pivots())
    chain, pivot_min, log_abs_det = _CHAINS[nodes]
    probes = np.random.default_rng(_PROBE_SEED).choice((-1.0, 1.0), size=(chain.size, _PROBES))
    try:
        coef = chain.solve(np.concatenate([f, probes], axis=1))
    except np.linalg.LinAlgError:
        return chain, pivot_min, -math.inf, None, math.inf
    cond = chain.norm_inf * float(np.max(np.abs(coef[..., f.shape[1] :])))
    return chain, pivot_min, log_abs_det, coef[..., : f.shape[1]], max(cond, 1.0) if math.isfinite(cond) else math.inf


def solve(problem: InterpolationProblem) -> SolveReport:
    """Interpolate the data, reporting residual and conditioning.

    Raises PoisednessError when a frequency block is exactly singular or
    the condition estimate reaches 1 / (10 N u), the point where float64
    can no longer certify an N-point solve; for node sets built by
    ``build_nodeset`` this signals either invalid input or a conditioning
    collapse (see ``pivot_min``).
    """
    f = np.array(problem.data)[:, None]
    chain, pivot_min, _, coef, cond = _chain_pass(problem.nodes, f)
    if coef is None:
        raise PoisednessError(
            f"collocation matrix is exactly singular (smallest block singular value {pivot_min:.3e})",
            pivot_min=pivot_min,
            condition_estimate=cond,
        )
    bound = 1.0 / (10.0 * chain.size * _UNIT_ROUNDOFF)
    if not cond < bound:
        raise PoisednessError(
            f"collocation matrix is singular to working precision (condition "
            f"estimate {cond:.3e} reaches 1/(10 N u) = {bound:.3e})",
            pivot_min=pivot_min,
            condition_estimate=cond,
        )
    coef, residual = chain.refine(f, coef)
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
    for name, value, low, kind in (("trials", trials, 1, "positive"), ("seed", seed, 0, "nonnegative")):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise InputError(f"{name} must be a {kind} integer, got {value!r}")
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(trials, nodes.count())).T
    chain, pivot_min, log_abs_det, coef, cond = _chain_pass(nodes, f)
    residuals = (math.inf,) * trials
    if coef is not None:
        res = chain.refine(f, coef)[1] / np.maximum(1.0, np.max(np.abs(f), axis=0))
        residuals = tuple(float(r) if math.isfinite(r) else math.inf for r in res)
    passed = math.isfinite(log_abs_det) and all(r <= RESIDUAL_TOL for r in residuals)
    return CertificateReport(
        passed=passed,
        log_abs_det=log_abs_det,
        pivot_min=pivot_min,
        condition_estimate=cond,
        residuals=residuals,
    )
