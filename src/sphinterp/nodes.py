"""Interpolation node families on the sphere.

A node set is organized in groups of symmetric latitude pairs. Group k of a
plan (lambda_1, ..., lambda_sigma) carries 2 lambda_k latitudes, each with
an even number of equidistant azimuths; the azimuth count shrinks from group
to group following the degree sequence n_k = n_{k-1} - 2 lambda_k. The
northern latitude of each mirror pair uses the unrotated azimuth grid and
the southern one the half-step rotated grid, so points on mirrored
latitudes differ by a rotation of pi / (2 s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

_PI = math.pi

TOL_MIRROR = 1e-14  # largest accepted |theta_south - (pi - theta_north)|


@dataclass(frozen=True)
class AzimuthGrid:
    """2s equidistant azimuths (2j + alpha) pi / (2s), j = 0..2s-1."""

    s: int
    alpha: float
    angles: tuple[float, ...]

    @property
    def count(self) -> int:
        return 2 * self.s


def azimuth_grid(s: int, alpha: float) -> AzimuthGrid:
    if s < 1:
        raise InputError("s must be a positive integer")
    if not 0.0 <= alpha < 2.0:
        raise InputError(f"alpha must lie in [0, 2), got {alpha!r}")
    angles = tuple((2 * j + alpha) * _PI / (2 * s) for j in range(2 * s))
    return AzimuthGrid(s=s, alpha=float(alpha), angles=angles)


def mirror(north: Sequence[float]) -> list[float]:
    """Append the southern mirrors pi - theta, in reversed order, to ``north``."""
    north = [float(th) for th in north]
    return north + [_PI - th for th in reversed(north)]


def check_mirrored(thetas: Sequence[float]) -> list[float]:
    """Validate 2 lam mirror-paired latitudes and return them as floats.

    The count must be even and positive, every angle strictly inside
    (0, pi), all angles distinct, and theta_{2 lam - 1 - i} = pi - theta_i
    within ``TOL_MIRROR``.
    """
    try:
        ths = [float(th) for th in thetas]
    except (TypeError, ValueError) as exc:
        raise InputError(f"latitudes must be a list of numbers: {exc}") from None
    if len(ths) == 0 or len(ths) % 2 != 0:
        raise InputError("need an even, positive number of latitudes")
    if any(not 0.0 < th < _PI for th in ths):
        raise InputError("latitudes must lie strictly inside (0, pi)")
    if len(set(ths)) != len(ths):
        raise InputError("latitudes must be pairwise distinct")
    for north, south in zip(ths[: len(ths) // 2], reversed(ths)):
        if abs(south - (_PI - north)) > TOL_MIRROR:
            raise InputError(
                f"latitudes must mirror: theta={north!r} pairs with "
                f"{south!r}, expected {_PI - north!r}"
            )
    return ths


@dataclass(frozen=True)
class PartitionPlan:
    """Odd degree n with an ordered composition of (n + 1) / 2.

    The parts lambda_k are positive integers summing to (n + 1) / 2. The
    derived degree sequence is n_0 = n, n_k = n_{k-1} - 2 lambda_k, which
    ends at n_sigma = -1.
    """

    n: int
    lambdas: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise InputError(f"n must be an odd positive integer, got {self.n}")
        if len(self.lambdas) == 0:
            raise InputError("plan needs at least one part")
        if any(int(l) != l or l < 1 for l in self.lambdas):
            raise InputError("plan parts must be positive integers")
        object.__setattr__(self, "lambdas", tuple(int(l) for l in self.lambdas))
        if sum(self.lambdas) != (self.n + 1) // 2:
            raise InputError(
                f"plan parts must sum to (n + 1) / 2 = {(self.n + 1) // 2}, "
                f"got {sum(self.lambdas)}"
            )
        degs = self.degrees()
        if any(d < 0 for d in degs[:-1]) or degs[-1] != -1:
            raise InputError("degree sequence must stay nonnegative until the last step")

    @property
    def sigma(self) -> int:
        return len(self.lambdas)

    def degrees(self) -> tuple[int, ...]:
        """The sequence n_0, n_1, ..., n_sigma."""
        degs = [self.n]
        for lam in self.lambdas:
            degs.append(degs[-1] - 2 * lam)
        return tuple(degs)

    def azimuth_half_counts(self) -> tuple[int, ...]:
        """s_k = n_{k-1} - lambda_k + 1 per group; each latitude has 2 s_k points."""
        degs = self.degrees()
        return tuple(degs[k] - self.lambdas[k] + 1 for k in range(self.sigma))

    def point_count(self) -> int:
        return (self.n + 1) ** 2

    def summary(self) -> str:
        """Human-readable per-group sizes, e.g. '4 latitudes with 4 points'."""
        parts = [
            f"{2 * lam} latitudes with {2 * s} points"
            for lam, s in zip(self.lambdas, self.azimuth_half_counts())
        ]
        if len(parts) == 1:
            return parts[0]
        return ", ".join(parts[:-1]) + " and " + parts[-1]


def enumerate_partitions(n: int) -> list[PartitionPlan]:
    """All ordered compositions of (n + 1) / 2, shortest first, then lexicographic.

    There are 2 ** ((n - 1) / 2) of them; order matters, so (1, 2) and (2, 1)
    are distinct plans.
    """
    if n < 1 or n % 2 == 0:
        raise InputError(f"n must be an odd positive integer, got {n}")
    total = (n + 1) // 2
    comps: list[tuple[int, ...]] = []

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            comps.append(prefix)
            return
        for part in range(1, remaining + 1):
            rec(remaining - part, prefix + (part,))

    rec(total, ())
    comps.sort(key=lambda c: (len(c), c))
    return [PartitionPlan(n=n, lambdas=c) for c in comps]


@dataclass(frozen=True)
class LatitudeRing:
    """One latitude circle: polar angle, grid rotation tag, azimuth grid."""

    theta: float
    alpha: float
    grid: AzimuthGrid

    def points(self) -> list[tuple[float, float]]:
        return [(self.theta, phi) for phi in self.grid.angles]


def mirrored_grid(thetas: Sequence[float], s: int) -> tuple[LatitudeRing, ...]:
    """Rings of 2s azimuths on mirror-paired latitudes.

    The first half of ``thetas`` (the northern rings) gets the unrotated
    grid (alpha = 0), the mirrored half the half-step rotated grid
    (alpha = 1).
    """
    half = len(thetas) // 2
    rings = []
    for i, th in enumerate(thetas):
        grid = azimuth_grid(s, 0.0 if i < half else 1.0)
        rings.append(LatitudeRing(theta=float(th), alpha=grid.alpha, grid=grid))
    return tuple(rings)


@dataclass(frozen=True)
class NodeGroup:
    index: int  # 1-based position in the plan
    s: int
    rings: tuple[LatitudeRing, ...]


@dataclass(frozen=True)
class NodeSet:
    """Full interpolation grid for a plan: (n + 1)**2 points on S^2."""

    plan: PartitionPlan
    groups: tuple[NodeGroup, ...]

    def __post_init__(self):
        plan = self.plan
        if len(self.groups) != plan.sigma:
            raise InputError("group count must match the plan")
        half_counts = plan.azimuth_half_counts()
        thetas: list[float] = []
        for k, group in enumerate(self.groups):
            lam = plan.lambdas[k]
            if group.s != half_counts[k]:
                raise InputError(
                    f"group {k + 1} azimuth half-count {group.s} != {half_counts[k]}"
                )
            if len(group.rings) != 2 * lam:
                raise InputError(f"group {k + 1} must have {2 * lam} latitudes")
            for ring in group.rings:
                if ring.grid.s != group.s:
                    raise InputError("ring grid size must match its group")
                if ring.grid.alpha != ring.alpha:
                    raise InputError(
                        f"ring alpha {ring.alpha!r} differs from its grid's {ring.grid.alpha!r}"
                    )
            thetas += check_mirrored([ring.theta for ring in group.rings])
        if len(set(thetas)) != len(thetas):
            raise InputError("latitudes must be pairwise distinct across all groups")
        if self.count() != plan.point_count():
            raise InputError("total point count must equal (n + 1)**2")

    @property
    def n(self) -> int:
        return self.plan.n

    def count(self) -> int:
        return sum(len(g.rings) * g.rings[0].grid.count for g in self.groups)

    def points(self) -> list[tuple[float, float]]:
        """Flattened (theta, phi) pairs: groups, then rings, then azimuths."""
        return [pt for group in self.groups for ring in group.rings for pt in ring.points()]

    def to_json_dict(self) -> dict:
        return {
            "n": self.plan.n,
            "lambdas": list(self.plan.lambdas),
            "groups": [
                {
                    "k": g.index,
                    "s": g.s,
                    "latitudes": [
                        {"theta": ring.theta, "alpha": ring.alpha, "index": i + 1}
                        for i, ring in enumerate(g.rings)
                    ],
                }
                for g in self.groups
            ],
            "points": [[th, ph] for th, ph in self.points()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "NodeSet":
        try:
            plan = PartitionPlan(n=int(data["n"]), lambdas=tuple(data["lambdas"]))
            groups = []
            for g in data["groups"]:
                s = int(g["s"])
                rings = tuple(
                    LatitudeRing(
                        theta=float(lat["theta"]),
                        alpha=float(lat["alpha"]),
                        grid=azimuth_grid(s, float(lat["alpha"])),
                    )
                    for lat in g["latitudes"]
                )
                groups.append(NodeGroup(index=int(g["k"]), s=s, rings=rings))
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed node set: {type(exc).__name__}: {exc}") from None
        return NodeSet(plan=plan, groups=tuple(groups))


def build_nodeset(
    plan: PartitionPlan, latitudes: Sequence[Sequence[float]]
) -> NodeSet:
    """Assemble the full grid from the supplied northern latitudes.

    ``latitudes[k]`` holds the lambda_k angles of group k + 1, all strictly
    inside (0, pi / 2). Mirrors pi - theta are appended automatically in
    reversed order, the northern rings get the unrotated grid (alpha = 0)
    and the mirrored rings the rotated grid (alpha = 1). The equator is
    rejected because it would mirror onto itself.
    """
    try:
        latitudes = [[float(th) for th in group_lats] for group_lats in latitudes]
    except (TypeError, ValueError) as exc:
        raise InputError(f"latitudes must be per-group lists of numbers: {exc}") from None
    if len(latitudes) != plan.sigma:
        raise InputError(f"expected {plan.sigma} latitude groups, got {len(latitudes)}")
    for k, group_lats in enumerate(latitudes):
        if len(group_lats) != plan.lambdas[k]:
            raise InputError(
                f"group {k + 1} needs {plan.lambdas[k]} latitudes, got {len(group_lats)}"
            )
        for th in group_lats:
            if not 0.0 < th < _PI / 2.0:
                raise InputError(
                    f"latitude {th!r} must lie strictly inside (0, pi/2); "
                    "the equator mirrors onto itself"
                )
    groups = tuple(
        NodeGroup(index=k + 1, s=s, rings=mirrored_grid(mirror(group_lats), s))
        for k, (group_lats, s) in enumerate(zip(latitudes, plan.azimuth_half_counts()))
    )
    return NodeSet(plan=plan, groups=groups)


def _cosine_latitudes(plan: PartitionPlan, jitter: Sequence[float]) -> list[list[float]]:
    """Latitudes at cos(theta) = (M - q + jitter[q]) / (M + 1), dealt to the groups.

    M is the total latitude count; the q-th value goes to the group holding
    position q in plan order.
    """
    total = sum(plan.lambdas)
    cosines = [(total - q + jitter[q]) / (total + 1.0) for q in range(total)]
    out = []
    pos = 0
    for lam in plan.lambdas:
        out.append([math.acos(c) for c in cosines[pos : pos + lam]])
        pos += lam
    return out


def default_latitudes(plan: PartitionPlan) -> list[list[float]]:
    """Reproducible latitude choice: equally spaced cosines in (0, 1).

    The global sequence cos(theta) = M/(M+1), ..., 1/(M+1) (M latitudes in
    total) is dealt out to the groups in plan order, so each group gets a
    strictly decreasing run and all values are distinct.
    """
    return _cosine_latitudes(plan, [0.0] * sum(plan.lambdas))


def seeded_latitudes(plan: PartitionPlan, seed: int) -> list[list[float]]:
    """Jitter the default cosines; separation stays at least 0.2 slots."""
    rng = np.random.default_rng(seed)
    return _cosine_latitudes(plan, rng.uniform(-0.4, 0.4, size=sum(plan.lambdas)))


def equispaced_latitudes(m: int) -> list[float]:
    """2m mirror-paired latitudes, the northern ones at cos(theta) = q / (m + 1)."""
    if m < 1:
        raise InputError("m must be a positive integer")
    return mirror(default_latitudes(PartitionPlan(n=2 * m - 1, lambdas=(m,)))[0])


def legendre_latitudes(m: int) -> list[float]:
    """Polar angles of the 2m Gauss-Legendre nodes, mirror-paired exactly.

    The m positive zeros of the degree-2m Legendre polynomial come from
    ``numpy.polynomial.legendre.leggauss``; the southern angles are
    generated as pi - theta so that the mirror symmetry holds exactly in
    floating point.
    """
    if m < 1:
        raise InputError("m must be a positive integer")
    zeros, _ = np.polynomial.legendre.leggauss(2 * m)
    return mirror(sorted(math.acos(x) for x in zeros[m:]))


def dimension_identity_check(s: int, lam: int) -> bool:
    """Check (s+1)**2 == dim(s - 2 lam) + 2 lam (2s - 2 lam + 2).

    dim(d) is (d+1)**2 for d >= 0 and 0 for d = -1; requires s - 2 lam >= -1.
    """
    if s < 0 or lam < 1:
        raise InputError("need s >= 0 and lam >= 1")
    d = s - 2 * lam
    if d < -1:
        raise InputError(f"s - 2 lam = {d} must be at least -1")
    lower = 0 if d == -1 else (d + 1) ** 2
    return (s + 1) ** 2 == lower + 2 * lam * (2 * s - 2 * lam + 2)
