"""Mean sets via support functions on finite direction nets.

For a finite ambiguity set the attainable long-run mean vectors form the
convex hull of the member means, so the support function in direction p is
simply the max of <p, member mean>. The set is represented purely by support
values on a direction net; distance queries follow from support-function
duality, with a documented O(delta) net error for points outside the set.
No other module reads the net: every distance, `distance_to_mean_set`'s and
the window engine's containment scan, goes through the one kernel
`fold_distances`, whose memory depends on neither the points nor the net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AmbiguitySet
from .errors import DimensionTooLarge

_NET_CAP = 100_000
_MAX_DIM = 4
# Bytes of one gap block, a quarter of a 2 MB L2: 520 rows against the 126
# directions of the 2-d net, 10 against the 6400 of the 3-d net. So a block
# stays in cache whatever the net, and each block is one GEMM small enough
# for OpenBLAS to run on one thread. A block holds two rows at least (1.6 MB
# against the 100 000 directions of the largest 4-d net).
_BLOCK_BYTES = 512 * 1024


def build_direction_net(dimension: int, delta: float) -> np.ndarray:
    """Unit directions as the rows of a (K, dimension) array: exact {+1,-1}
    in 1-d, uniform angles in 2-d, a Fibonacci spiral in 3-d and the Hopf
    image of Halton points in 4-d. Dimension capped at 4 and size at
    100 000 directions, so below delta about 0.07 the 4-d mesh exceeds
    delta (4 000 random probes found 0.067 at delta 0.05) and a gap block
    is two rows, 1.6 MB.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if dimension > _MAX_DIM:
        raise DimensionTooLarge(f"direction nets capped at dimension {_MAX_DIM}, got {dimension}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")

    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    if dimension == 2:
        count = int(math.ceil(2.0 * math.pi / delta))
        angles = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    count = min(int(math.ceil((4.0 / delta) ** (dimension - 1))), _NET_CAP)
    return _sphere_points(dimension, count)


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

    directions: np.ndarray  # (K, d) unit rows of the direction net
    support_values: np.ndarray  # g(p) per direction


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
    directions = build_direction_net(amb.dim, delta)
    means = np.atleast_2d(amb.member_means().reshape(len(amb.members), -1))
    return MeanSet(directions, (directions @ means.T).max(axis=1))


def distance_to_mean_set(mean_set: MeanSet, y):
    """max(0, max over net directions of <p, y> - g(p)).

    y is one point of shape (d,), a float for d = 1, or a block of points of
    shape (m, d), which gives an array of m distances. Equals dist(y, M) up
    to a one-sided net error of order delta * (|y| + max|g|): the net value
    never exceeds the true distance. A point's distance does not depend on
    the block it comes in.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = mean_set.directions.shape[1]
    if y.ndim > 2 or y.shape[-1] != d:
        raise ValueError(f"point has shape {y.shape}, expected ({d},) or (m, {d})")
    if not np.all(np.isfinite(y)):
        raise ValueError("point must be finite")
    points = y.reshape(-1) if d == 1 else y.reshape(-1, d)
    blocks = fold_distances(mean_set, points, np.ones(len(points)), lambda b, x, _: [*b, x], [])
    return float(blocks[0][0]) if y.ndim == 1 else np.concatenate([np.empty(0), *blocks])


def fold_distances(mean_set: MeanSet, sums: np.ndarray, ns: np.ndarray, fold, acc):
    """acc = fold(acc, dist, ns[rows]) for each row block of y = sums / ns in
    turn; returns the last acc. Unvalidated: sums is (m,) against a 1-d net,
    else (m, d). dist, the fold's to overwrite, holds max(0, max over
    directions p of <p, y> - g(p)). A 1-d block is all m rows; in d >= 2, as
    many as keep the gap matrix within _BLOCK_BYTES, in one buffer, and two
    at least.
    """
    support = mean_set.support_values
    if sums.ndim == 1:
        # The 1-d net is exactly {+1, -1}, so max(y - s0, -y - s1, 0), in
        # place on two buffers, gives the bits of the matrix product.
        y = np.divide(sums, ns)
        t = np.negative(y)
        t -= support[1]
        y -= support[0]
        np.maximum(y, t, out=y)
        del t  # freed before fold runs: two window-length arrays at most
        np.maximum(y, 0.0, out=y)
        return fold(acc, y, ns)
    directions = mean_set.directions.T  # the (d, K) view each GEMM reads
    rows = max(2, _BLOCK_BYTES // (8 * len(support)))  # float64 gaps
    gaps = np.empty((max(2, min(rows, len(ns))), len(support)))
    for i in range(0, len(ns), rows):
        block = slice(i, i + rows)
        y = sums[block] / ns[block, None]
        # A one-row product can round its last bit otherwise than the same
        # row inside a block, so a lone last row is multiplied as two.
        g = gaps[: max(2, len(y))]
        np.matmul(y if len(y) > 1 else np.vstack([y, y]), directions, out=g)
        g -= support
        acc = fold(acc, np.maximum(g[: len(y)].max(axis=1), 0.0), ns[block])
    return acc
