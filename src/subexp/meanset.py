"""Mean sets via support functions on finite direction nets.

For a finite ambiguity set the attainable long-run mean vectors form the
convex hull of the member means, so the support function in direction p is
simply the max of <p, member mean>. The set is represented purely by support
values on a direction net; distance queries follow from support-function
duality, with a documented O(delta) net error for points outside the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AmbiguitySet
from .errors import DimensionTooLarge

__all__ = [
    "DirectionNet",
    "MeanSet",
    "build_direction_net",
    "build_mean_set",
    "distance_to_mean_set",
    "support_function",
]

_NET_CAP = 100_000
_MAX_DIM = 4


@dataclass(frozen=True)
class DirectionNet:
    """Finite set of unit directions with mesh parameter delta."""

    dimension: int
    delta: float
    directions: np.ndarray  # shape (K, dimension), unit rows

    def __len__(self) -> int:
        return len(self.directions)


def build_direction_net(dimension: int, delta: float) -> DirectionNet:
    """Unit-sphere net: exact {+1,-1} in 1-d, uniform angles in 2-d, a
    Fibonacci spiral in 3-d and the Hopf image of Halton points in 4-d.
    Dimension capped at 4 and size at 100 000 directions, so below delta
    about 0.07 the 4-d mesh exceeds delta (4 000 random probes found 0.067
    at delta 0.05) and a containment block is one 800 KB row.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if dimension > _MAX_DIM:
        raise DimensionTooLarge(f"direction nets capped at dimension {_MAX_DIM}, got {dimension}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")

    if dimension == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif dimension == 2:
        count = int(math.ceil(2.0 * math.pi / delta))
        angles = 2.0 * math.pi * np.arange(count) / count
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        count = min(int(math.ceil((4.0 / delta) ** (dimension - 1))), _NET_CAP)
        dirs = _sphere_points(dimension, count)
    return DirectionNet(dimension=dimension, delta=delta, directions=dirs)


def _sphere_points(dimension: int, count: int) -> np.ndarray:
    if dimension == 3:
        # Fibonacci spiral: near-uniform covering of the 2-sphere.
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        theta = 2.0 * math.pi * i / golden
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
    # d = 4: the Hopf map (Shoemake 1992) carries the uniform law on the cube
    # to the uniform law on the 3-sphere; covering verified by probing in tests.
    u1, u2, u3 = _halton(count).T
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    t2, t3 = 2.0 * math.pi * u2, 2.0 * math.pi * u3
    return np.column_stack([a * np.cos(t2), a * np.sin(t2), b * np.cos(t3), b * np.sin(t3)])


def _halton(count: int) -> np.ndarray:
    """Points 1..count of the unscrambled 3-d Halton sequence (the origin dropped).

    Radical inverses in bases 2, 3 and 5, each summed digit by digit from the
    lowest, so the points equal the reference generator's in tests bit for bit.
    """
    index = np.arange(1, count + 1)
    u = np.zeros((count, 3))
    for j, base in enumerate((2, 3, 5)):
        q, f = index.copy(), 1.0 / base
        while q.any():
            u[:, j] += (q % base) * f
            f /= base
            q //= base
    return u


@dataclass(frozen=True)
class MeanSet:
    """Support-value representation of the attainable-mean set."""

    net: DirectionNet
    support_values: np.ndarray  # g(p) per net direction


def support_function(amb: AmbiguitySet, p) -> float:
    """g(p): the limiting upper mean of <p, X>, exact for finite sets.

    Positively homogeneous in p (p need not be a unit vector). For Pareto
    members the projected mean is the closed-form signed mean; NotConvergent
    propagates when the tail exponent is <= 1.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (amb.dim,):
        raise ValueError(f"direction has shape {p.shape}, expected ({amb.dim},)")
    return max(float(p @ np.atleast_1d(m.mean())) for m in amb.members)


def build_mean_set(amb: AmbiguitySet, delta: float = 0.05) -> MeanSet:
    """Support values of the mean set on a fresh direction net."""
    net = build_direction_net(amb.dim, delta)
    means = np.atleast_2d(amb.member_means().reshape(len(amb.members), -1))
    values = (net.directions @ means.T).max(axis=1)
    return MeanSet(net=net, support_values=values)


def distance_to_mean_set(mean_set: MeanSet, y) -> float:
    """max(0, max over net directions of <p, y> - g(p)).

    Equals dist(y, M) up to a one-sided net error of order
    delta * (|y| + max|g|): the net value never exceeds the true distance.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (mean_set.net.dimension,):
        raise ValueError(f"point has shape {y.shape}, expected ({mean_set.net.dimension},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("point must be finite")
    gaps = mean_set.net.directions @ y - mean_set.support_values
    return max(0.0, float(gaps.max()))
