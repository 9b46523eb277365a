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
    """Unit-sphere net: exact {+1,-1} in 1-d, uniform angles in 2-d,
    spiral/low-discrepancy points in 3-d and 4-d. Dimension capped at 4.
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
    # d = 4: deterministic low-discrepancy points pushed through the
    # Gaussian map and normalized; covering verified by probing in tests.
    from scipy.special import ndtri

    u = _halton(count)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def _halton(count: int) -> np.ndarray:
    """Points 1..count of the unscrambled 4-d Halton sequence (the origin dropped).

    Radical inverses in bases 2, 3, 5 and 7, summed digit by digit from the
    lowest in the order scipy.stats.qmc.Halton uses, so the points are its
    bit for bit without importing scipy.stats.
    """
    index = np.arange(1, count + 1)
    u = np.zeros((count, 4))
    for j, base in enumerate((2, 3, 5, 7)):
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
    best = -math.inf
    for m in amb.members:
        mu = m.mean()
        val = float(p[0]) * mu if amb.dim == 1 else float(p @ mu)
        best = max(best, val)
    return best


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
