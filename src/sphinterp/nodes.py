"""Interpolation node families on the sphere.

A node set is organized in groups of symmetric latitude pairs. Group k of a
plan (lambda_1, ..., lambda_sigma) carries 2 lambda_k latitudes, each with
the 2 s_k equidistant azimuths (2j + alpha) pi / (2 s_k); the azimuth count
shrinks from group to group following the degree sequence
n_k = n_{k-1} - 2 lambda_k. The northern latitude of each mirror pair uses
the unrotated grid (alpha = 0) and the southern one the half-step rotated
grid (alpha = 1), so points on mirrored latitudes differ by a rotation of
pi / (2 s). A ``NodeSet`` is therefore its plan plus two numbers per ring,
the polar angle and the azimuth tag; every point is derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np

from .errors import InputError

_PI = math.pi

TOL_MIRROR = 1e-14  # largest accepted |theta_south - (pi - theta_north)|


def azimuth_grid(s: int, alpha) -> np.ndarray:
    """The 2s equidistant azimuths (2j + alpha) pi / (2s), j = 0..2s-1.

    ``alpha`` is one tag in [0, 2) or an array of them; the result has
    shape ``np.shape(alpha) + (2s,)``.
    """
    s = read_count(s, "s", 1)
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((alpha >= 0.0) & (alpha < 2.0)):
        raise InputError(f"alpha must lie in [0, 2), got {alpha.tolist()!r}")
    return (2 * np.arange(2 * s) + alpha[..., None]) * _PI / (2 * s)


def mirror_alphas(count: int) -> np.ndarray:
    """Azimuth tags of ``count`` mirror-paired rings in ``mirror`` order.

    The northern half gets the unrotated grid (alpha = 0), the mirrored
    half the half-step rotated grid (alpha = 1).
    """
    count = read_count(count, "count", 0)
    return (np.arange(count) >= count // 2).astype(float)


def read_count(value, name: str, low: int | None = None) -> int:
    """``value`` as an int if it is an integer (``True`` is not) of at least ``low`` (0 or 1), else ``InputError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (low is not None and value < low):
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[low]
        raise InputError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _odd_degree(n) -> int:
    """``n`` as an int if it is an odd positive integer (``True`` is not), else ``InputError``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1 or n % 2 == 0:
        raise InputError(f"n must be an odd positive integer, got {n}")
    return int(n)


def read_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (``true`` is not), else ``InputError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, got {value!r}")
    return float(value)


def mirror(north: Sequence[float]) -> list[float]:
    """Append the southern mirrors pi - theta, in reversed order, to ``north``."""
    north = [float(th) for th in north]
    return north + [_PI - th for th in reversed(north)]


def check_mirrored(thetas: Sequence[float]) -> list[float]:
    """Validate 2 lam mirror-paired latitudes and return them as floats.

    The count must be even and positive, every angle strictly inside
    (0, pi), all cosines pairwise distinct in float64, and
    theta_{2 lam - 1 - i} = pi - theta_i within ``TOL_MIRROR``.
    """
    try:
        ths = [float(th) for th in thetas]
    except (TypeError, ValueError) as exc:
        raise InputError(f"latitudes must be a list of numbers: {exc}") from None
    if len(ths) == 0 or len(ths) % 2 != 0:
        raise InputError("need an even, positive number of latitudes")
    if any(not 0.0 < th < _PI for th in ths):
        raise InputError("latitudes must lie strictly inside (0, pi)")
    if not np.all(np.diff(np.sort(np.cos(ths))) > 0.0):
        raise InputError("latitudes must have pairwise distinct cosines")
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
        object.__setattr__(self, "n", _odd_degree(self.n))
        if len(self.lambdas) == 0:
            raise InputError("plan needs at least one part")
        object.__setattr__(self, "lambdas", tuple(read_count(lam, "a plan part", 1) for lam in self.lambdas))
        if sum(self.lambdas) != (self.n + 1) // 2:
            raise InputError(
                f"plan parts must sum to (n + 1) / 2 = {(self.n + 1) // 2}, "
                f"got {sum(self.lambdas)}"
            )

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

    def ring_slices(self) -> tuple[slice, ...]:
        """The 2 lambda_k rings of each group in a node set's ring order."""
        ends = list(accumulate((2 * lam for lam in self.lambdas), initial=0))
        return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))

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
    are distinct plans. Each is read off its cut points in 1..(n - 1) / 2,
    and ``combinations`` of a growing number of cuts yields that order.
    """
    n = _odd_degree(n)
    total = (n + 1) // 2
    return [
        PartitionPlan(n=n, lambdas=tuple(b - a for a, b in zip((0, *cuts), (*cuts, total))))
        for count in range(total)
        for cuts in combinations(range(1, total), count)
    ]


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Full interpolation grid for a plan: (n + 1)**2 points on S^2.

    ``theta[i]`` and ``alpha[i]`` are the polar angle and azimuth tag of
    ring i, group by group (``plan.ring_slices()``); a ring of group k
    carries the 2 s_k azimuths ``azimuth_grid(s_k, alpha[i])``. Both are
    stored as read-only float copies.
    """

    plan: PartitionPlan
    theta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        rings = self.plan.n + 1
        for name in ("theta", "alpha"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (rings,):
                raise InputError(f"{name} must hold one value per ring, shape ({rings},), got {values.shape}")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not np.all((self.alpha >= 0.0) & (self.alpha < 2.0)):
            raise InputError(f"azimuth tags must lie in [0, 2), got {self.alpha.tolist()!r}")
        for ring in self.plan.ring_slices():
            check_mirrored(self.theta[ring])
        if not np.all(np.diff(np.sort(np.cos(self.theta))) > 0.0):
            raise InputError("latitudes must have pairwise distinct cosines across all groups")

    @property
    def n(self) -> int:
        return self.plan.n

    def count(self) -> int:
        return (self.n + 1) ** 2

    def points(self) -> np.ndarray:
        """(theta, phi) rows: groups, then rings, then azimuths."""
        return np.concatenate(
            [
                np.column_stack([np.repeat(self.theta[ring], 2 * s), azimuth_grid(s, self.alpha[ring]).ravel()])
                for ring, s in zip(self.plan.ring_slices(), self.plan.azimuth_half_counts())
            ]
        )

    def to_json_dict(self) -> dict:
        plan = self.plan
        return {
            "n": plan.n,
            "lambdas": list(plan.lambdas),
            "groups": [
                {
                    "k": k,
                    "s": s,
                    "latitudes": [
                        {"theta": th, "alpha": a, "index": i}
                        for i, (th, a) in enumerate(zip(self.theta[ring].tolist(), self.alpha[ring].tolist()), start=1)
                    ],
                }
                for k, (ring, s) in enumerate(zip(plan.ring_slices(), plan.azimuth_half_counts()), start=1)
            ],
            "points": self.points().tolist(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "NodeSet":
        """Read ``n``, ``lambdas``, ``groups[].s`` and every latitude's ``theta`` and ``alpha``.

        The group tag ``k``, the latitude ``index`` and the ``points`` are
        derived; a file that disagrees with them is rejected, and
        ``points`` may be left out.
        """
        try:
            lambdas = tuple(read_count(lam, "a plan part") for lam in data["lambdas"])
            plan = PartitionPlan(n=read_count(data["n"], "n"), lambdas=lambdas)
            if len(data["groups"]) != plan.sigma:
                raise InputError(f"group count must match the plan's {plan.sigma}")
            rings = []
            for k, (g, s, lam) in enumerate(zip(data["groups"], plan.azimuth_half_counts(), lambdas), start=1):
                if read_count(g["k"], "k") != k or read_count(g["s"], "s") != s:
                    raise InputError(f"group {k} must have k = {k} and s = {s}, got {g['k']} and {g['s']}")
                if len(g["latitudes"]) != 2 * lam:
                    raise InputError(f"group {k} must have {2 * lam} latitudes")
                for i, lat in enumerate(g["latitudes"], start=1):
                    if read_count(lat["index"], "index") != i:
                        raise InputError(f"latitude {i} of group {k} has index {lat['index']}")
                    rings.append((read_number(lat["theta"], "theta"), read_number(lat["alpha"], "alpha")))
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed node set: {type(exc).__name__}: {exc}") from None
        nodes = NodeSet(plan, *zip(*rings))
        if "points" in data and data["points"] != nodes.points().tolist():
            raise InputError("points differ from the ones the latitudes define")
        return nodes


def build_nodeset(plan: PartitionPlan, latitudes: Sequence[Sequence[float]]) -> NodeSet:
    """Assemble the full grid from the supplied northern latitudes.

    ``latitudes[k]`` holds the lambda_k angles of group k + 1, all strictly
    inside (0, pi / 2). Mirrors pi - theta are appended automatically in
    reversed order, and the rings get their tags from ``mirror_alphas``.
    The equator is rejected because it would mirror onto itself.
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
    theta = [th for group_lats in latitudes for th in mirror(group_lats)]
    alpha = np.concatenate([mirror_alphas(2 * lam) for lam in plan.lambdas])
    return NodeSet(plan=plan, theta=theta, alpha=alpha)


def _cosine_latitudes(plan: PartitionPlan, jitter: Sequence[float]) -> list[list[float]]:
    """Latitudes at cos(theta) = (M - q + jitter[q]) / (M + 1), dealt to the groups.

    M is the total latitude count; the q-th value goes to the group holding
    position q in plan order.
    """
    total = sum(plan.lambdas)
    cosines = [(total - q + jitter[q]) / (total + 1.0) for q in range(total)]
    ends = list(accumulate(plan.lambdas, initial=0))
    return [[math.acos(c) for c in cosines[a:b]] for a, b in zip(ends, ends[1:])]


def default_latitudes(plan: PartitionPlan) -> list[list[float]]:
    """Reproducible latitude choice: equally spaced cosines in (0, 1).

    The global sequence cos(theta) = M/(M+1), ..., 1/(M+1) (M latitudes in
    total) is dealt out to the groups in plan order, so each group gets a
    strictly decreasing run and all values are distinct.
    """
    return _cosine_latitudes(plan, [0.0] * sum(plan.lambdas))


def seeded_latitudes(plan: PartitionPlan, seed: int) -> list[list[float]]:
    """Jitter the default cosines; separation stays at least 0.2 slots."""
    rng = np.random.default_rng(read_count(seed, "seed", 0))
    return _cosine_latitudes(plan, rng.uniform(-0.4, 0.4, size=sum(plan.lambdas)))


def equispaced_latitudes(m: int) -> list[float]:
    """2m mirror-paired latitudes, the northern ones at cos(theta) = q / (m + 1)."""
    m = read_count(m, "m", 1)
    return mirror(default_latitudes(PartitionPlan(n=2 * m - 1, lambdas=(m,)))[0])


def legendre_latitudes(m: int) -> list[float]:
    """Polar angles of the 2m Gauss-Legendre nodes, mirror-paired exactly.

    The m positive zeros of the degree-2m Legendre polynomial come from
    ``numpy.polynomial.legendre.leggauss``; the southern angles are
    generated as pi - theta so that the mirror symmetry holds exactly in
    floating point.
    """
    m = read_count(m, "m", 1)
    zeros, _ = np.polynomial.legendre.leggauss(2 * m)
    return mirror(sorted(math.acos(x) for x in zeros[m:]))


def dimension_identity_check(s: int, lam: int) -> bool:
    """Check (s+1)**2 == dim(s - 2 lam) + 2 lam (2s - 2 lam + 2).

    dim(d) is (d+1)**2 for d >= 0 and 0 for d = -1; requires s - 2 lam >= -1.
    """
    s, lam = read_count(s, "s", 0), read_count(lam, "lam", 1)
    d = s - 2 * lam
    if d < -1:
        raise InputError(f"s - 2 lam = {d} must be at least -1")
    lower = 0 if d == -1 else (d + 1) ** 2
    return (s + 1) ** 2 == lower + 2 * lam * (2 * s - 2 * lam + 2)
