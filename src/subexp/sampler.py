"""Adversarial path sampling: strategies pick a member mixture per step or
per block, then increments are drawn by inverse CDF.

Randomness is counter-based: the two uniforms consumed by step t are pure
64-bit hashes of (seed, 2t) and (seed, 2t+1), so any slice of a path can be
regenerated independently of iteration order and across processes, and every
strategy run under one seed reads the same uniforms. `hash_window` fills one
window's uniforms in place; `sample_path(..., start=s, uniforms=...)` draws
the steps s+1..n from them, which lets a driver hash a window once, draw
every strategy of a seed from it, and walk a long path without ever holding
all of it. No global or sequential RNG state exists anywhere in this module.
"""

from __future__ import annotations

import bisect
import collections.abc
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import AmbiguitySet, _distinct_rows
from .errors import TargetOutOfRange, TargetOutsideM
from .meanset import MeanSet, distance_to_mean_set

__all__ = [
    "BlockSchedule",
    "Path",
    "Stationary",
    "alternating_schedule",
    "extreme_members",
    "hash_window",
    "mixture_for_target",
    "oscillation_schedule",
    "pure_weights",
    "sample_path",
    "stationary_for_target",
    "target_chasing_schedule",
]

_WEIGHT_TOL = 1e-12
_RESIDUAL_TOL = 1e-9

# splitmix64 finalizer constants.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Hash (seed, counter) pairs to uniforms in [0, 1); 53-bit resolution.

    The reference form of the stream; `hash_window` computes the same bits.
    """
    z = (np.uint64(seed & _MASK64) + (counters.astype(np.uint64) + np.uint64(1)) * _GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def hash_window(
    seed: int,
    start: int,
    u_member: np.ndarray,
    u_value: np.ndarray,
    scratch: np.ndarray | None = None,
) -> None:
    """Fill the uniforms of steps start..start+len-1 (0-based) in place.

    u_member[i] and u_value[i] become the uniforms of counters 2(start+i) and
    2(start+i)+1, bit for bit those of `_uniforms`: uint64 arithmetic wraps
    mod 2^64, so the order of the additions does not matter. Each float array
    holds its own splitmix64 state while it is mixed, and the uint64 `scratch`
    of the same length takes the shifted copies, so a caller that passes one
    allocates nothing per window.
    """
    n = len(u_member)
    if len(u_value) != n or (scratch is not None and len(scratch) != n):
        raise ValueError("uniform and scratch arrays need one length")
    tmp = np.empty(n, dtype=np.uint64) if scratch is None else scratch
    # Counter 2(start+i)+j hashes seed + (2(start+i)+j+1) * golden, that is
    # base_j + i * 2 golden; the ramp i is built in place by a cumsum.
    tmp.fill(1)
    tmp[:1] = 0
    np.cumsum(tmp, out=tmp)
    np.multiply(tmp, np.uint64((2 * int(_GOLDEN)) & _MASK64), out=tmp)
    states = (u_member.view(np.uint64), u_value.view(np.uint64))
    for j, z in enumerate(states):
        np.add(tmp, np.uint64((seed + (2 * start + j + 1) * int(_GOLDEN)) & _MASK64), out=z)
    for z, out in zip(states, (u_member, u_value)):
        for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(z, shift, out=tmp)
            np.bitwise_xor(z, tmp, out=z)
            if mix is not None:
                np.multiply(z, mix, out=z)
        np.right_shift(z, 11, out=tmp)
        np.multiply(tmp, 2.0 ** -53, out=out)


def _check_weights(weights, k: int) -> tuple:
    w = tuple(float(x) for x in weights)
    if len(w) != k:
        raise ValueError(f"mixture needs one weight per member ({k}), got {len(w)}")
    if any(x < 0 for x in w):
        raise ValueError("mixture weights must be nonnegative")
    if abs(math.fsum(w) - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"mixture weights must sum to 1 within {_WEIGHT_TOL}")
    return w


@dataclass(frozen=True)
class Stationary:
    """One member mixture applied at every step."""

    weights: tuple
    label: str = "stationary"

    def blocks_for(self, n: int, start: int = 0) -> list[tuple[int, tuple]]:
        return [(n, self.weights)]


@dataclass(frozen=True)
class BlockSchedule:
    """Piecewise-stationary mixture: weights_per_block[j] applies on steps
    (ends[j-1], ends[j]]. Steps beyond the last end reuse the final mixture.
    ends may be a range, which holds evenly spaced ends in constant space,
    and weights_per_block any sequence of mixtures.
    """

    ends: tuple
    weights_per_block: tuple
    label: str = "blocks"

    def __post_init__(self) -> None:
        if not self.ends:
            raise ValueError("a block schedule needs at least one block")
        if len(self.ends) != len(self.weights_per_block):
            raise ValueError("one mixture per block required")
        if any(b <= a for a, b in zip(itertools.chain((0,), self.ends), self.ends)):
            raise ValueError(f"block ends must be strictly increasing, got {self.ends}")

    def blocks_for(self, n: int, start: int = 0) -> list[tuple[int, tuple]]:
        """(end, mixture) of the blocks of steps 1..n that end after step
        `start`, each end clipped to n; earlier blocks are skipped by bisection."""
        out = []
        for j in range(bisect.bisect_right(self.ends, start), len(self.ends)):
            end = self.ends[j]
            out.append((min(end, n), self.weights_per_block[j]))
            if end >= n:
                break
        if not out or out[-1][0] < n:
            out.append((n, self.weights_per_block[-1]))
        return [(e, w) for e, w in out if e > start]


Strategy = Stationary | BlockSchedule


@dataclass
class Path:
    """Sampled increments and the member that drew each.

    A path drawn from step `start` holds n = (its horizon - start) steps.
    """

    n: int
    increments: np.ndarray  # (n,) or (n, d)
    member_indices: np.ndarray  # (n,) int16


def extreme_members(amb: AmbiguitySet) -> tuple[int, int]:
    """(argmax, argmin) of member means; 1-d models, first index on ties."""
    means = amb.member_means()
    return int(np.argmax(means)), int(np.argmin(means))


def pure_weights(k: int, idx: int) -> tuple:
    """Mixture of k members that puts all weight on member idx."""
    w = [0.0] * k
    w[idx] = 1.0
    return tuple(w)


def stationary_for_target(amb: AmbiguitySet, b: float) -> Stationary:
    """Mixture of the extreme-mean members whose long-run mean is b.

    alpha = (b - lower)/(upper - lower) weights the max-mean member against
    the min-mean member; a degenerate interval returns the single maximizer.
    Raises TargetOutOfRange when b lies outside [lower, upper].
    """
    if amb.dim != 1:
        raise ValueError("stationary_for_target is defined for dimension 1")
    hi, lo = extreme_members(amb)
    means = amb.member_means()
    upper, lower = float(means[hi]), float(means[lo])
    if not (lower - _WEIGHT_TOL <= b <= upper + _WEIGHT_TOL):
        raise TargetOutOfRange(f"target {b} outside mean interval [{lower}, {upper}]")
    k = len(amb.members)
    if upper == lower:
        return Stationary(pure_weights(k, hi), label=f"target={b:g}")
    alpha = min(1.0, max(0.0, (b - lower) / (upper - lower)))
    w = [0.0] * k
    w[hi] += alpha
    w[lo] += 1.0 - alpha
    return Stationary(tuple(w), label=f"target={b:g}")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The basic least-squares solution of a x = b, by Householder QR with
    column pivoting (Lawson & Hanson 1995, ch. 14).

    Step k moves the column of largest remaining norm to position k and
    reflects it onto e_k. Once every remaining norm is at most 1e-12 of a's
    largest column norm, the remaining columns get weight 0: a member whose
    mean is a combination of others' (V2mix's midpoint) drops out.
    """
    r, y = a.astype(float), b.astype(float)
    order = np.arange(r.shape[1])
    cutoff = 1e-12 * np.linalg.norm(r, axis=0).max()
    rank = 0
    while rank < min(r.shape):
        rest = np.linalg.norm(r[rank:, rank:], axis=0)
        p = int(np.argmax(rest))
        if rest[p] <= cutoff:
            break
        r[:, [rank, rank + p]] = r[:, [rank + p, rank]]
        order[[rank, rank + p]] = order[[rank + p, rank]]
        v = r[rank:, rank].copy()
        v[0] += math.copysign(rest[p], v[0])
        v /= np.linalg.norm(v)
        r[rank:, rank:] -= 2.0 * np.outer(v, v @ r[rank:, rank:])
        y[rank:] -= 2.0 * (v @ y[rank:]) * v
        rank += 1
    z = np.zeros(r.shape[1])
    for i in reversed(range(rank)):
        z[i] = (y[i] - r[i, i + 1:rank] @ z[i + 1:rank]) / r[i, i]
    x = np.empty_like(z)
    x[order] = z
    return x


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0 by Lawson and Hanson's active-set method.

    The column with the largest gradient joins the passive set P and x_P is
    solved by least squares (`_lstsq`, its basic solution). While that
    solution s has a negative entry, x moves towards s only until its first
    entry reaches 0, that entry leaves P, and P is solved again. At most 3n
    outer iterations (Lawson & Hanson 1995, ch. 23); the caller checks the
    residual, so a solve cut short cannot pass unnoticed.
    """
    n = a.shape[1]
    tol = 10.0 * max(a.shape) * np.finfo(float).eps
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        grad = a.T @ (b - a @ x)
        grad[passive] = -np.inf
        if grad.max() <= tol:
            break
        passive[np.argmax(grad)] = True
        while True:
            s = np.zeros(n)
            s[passive] = _lstsq(a[:, passive], b)
            neg = passive & (s < 0)
            if not neg.any():
                break
            step = np.full(n, np.inf)
            step[neg] = x[neg] / (x[neg] - s[neg])
            j = int(np.argmin(step))
            x += step[j] * (s - x)
            x[j] = 0.0
            passive &= x > tol
        x = s
    return x


def mixture_for_target(amb: AmbiguitySet, b) -> tuple:
    """Member weights whose mean vector equals b.

    Solved as a nonnegative least-squares problem (`_nnls`) over member means
    with an appended sum-to-one row; a residual above 1e-9 means b is not in
    the convex hull of member means and raises TargetOutsideM.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    means = np.atleast_2d(amb.member_means().reshape(len(amb.members), -1))
    if b.shape != (means.shape[1],):
        raise ValueError(f"target has shape {b.shape}, expected ({means.shape[1]},)")

    penalty = 100.0 * max(1.0, float(np.abs(means).max()))
    a_mat = np.vstack([means.T, penalty * np.ones((1, len(amb.members)))])
    rhs = np.concatenate([b, [penalty]])
    w = _nnls(a_mat, rhs)
    total = w.sum()
    if total <= 0:
        raise TargetOutsideM(f"target {b.tolist()} not attainable")
    w = w / total
    residual = float(np.linalg.norm(means.T @ w - b))
    if residual > _RESIDUAL_TOL:
        raise TargetOutsideM(
            f"target {b.tolist()} outside the mean set (residual {residual:.2e})"
        )
    return tuple(float(x) for x in w)


class _Cycle(collections.abc.Sequence):
    """The read-only sequence of `length` entries whose entry i is
    items[i % len(items)], held in the space of the items alone."""

    def __init__(self, items: tuple, length: int) -> None:
        self._items, self._length = items, length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(self._length)[i])
        i = range(self._length)[i]  # raises IndexError past either end
        return self._items[i % len(self._items)]


def alternating_schedule(amb: AmbiguitySet, ends: Sequence[int], label: str) -> BlockSchedule:
    """Pure max-mean and min-mean blocks in turn over the given block ends,
    the max-mean member first. A range of ends is kept as it is, and the
    two mixtures are cycled, so a schedule holds nothing per block."""
    k = len(amb.members)
    weights = _Cycle(tuple(pure_weights(k, j) for j in extreme_members(amb)), len(ends))
    return BlockSchedule(ends if isinstance(ends, range) else tuple(ends), weights, label=label)


def oscillation_schedule(amb: AmbiguitySet, K: int, factor: float = 16.0) -> BlockSchedule:
    """Alternating pure max-mean / min-mean blocks with geometric ends.

    Block k covers (end_{k-1}, end_k] with end_k = 16 * factor^(k-1); the
    first block plays the max-mean member. The ratio end_{k-1}/end_k = 1/factor
    controls how close the running mean gets to the extreme means: the
    oscillation reaches within roughly (upper-lower)/factor of each endpoint,
    so a large factor is needed for endpoint attainment at finite n.
    """
    if K < 2:
        raise ValueError("need at least 2 blocks")
    if factor <= 1.0:
        raise ValueError("factor must exceed 1")
    ends = []
    for j in range(K):
        end = int(round(16 * factor ** j))
        ends.append(max(end, (ends[-1] + 1) if ends else 1))
    return alternating_schedule(amb, ends, "oscillation")


def default_targets(amb: AmbiguitySet, m: int, mean_set: MeanSet) -> np.ndarray:
    """m target means inside the mean set.

    1-d: uniform grid on [lower, upper]. Higher d: simplex-lattice convex
    combinations of member means, thinned to m spread-out points by farthest
    point sampling, then stably ordered by their projection on q - p, where
    (p, q) is the lexicographically first pair at the largest distance, so
    consecutive targets are near each other (which is what the chasing
    schedule wants) and the order depends on the model alone.
    """
    if m < 1:
        raise ValueError("need at least one target")
    means = np.atleast_2d(amb.member_means().reshape(len(amb.members), -1))
    if amb.dim == 1:
        lo, hi = float(means.min()), float(means.max())
        return np.linspace(lo, hi, m)

    grid = _simplex_lattice(len(amb.members), resolution=max(8, m))
    candidates = _distinct_rows(np.round(grid @ means, 12))
    chosen = _farthest_point_subset(candidates, m)
    gaps = np.square(chosen[:, None, :] - chosen[None, :, :]).sum(axis=2)
    i, j = divmod(int(np.argmax(gaps)), len(chosen))
    order = np.argsort((chosen - chosen.mean(axis=0)) @ (chosen[j] - chosen[i]), kind="stable")
    chosen = chosen[order]
    tol = 10.0 * mean_set.net.delta
    for t in chosen:
        if distance_to_mean_set(mean_set, t) > tol:
            raise TargetOutsideM(f"generated target {t.tolist()} fails the membership check")
    return chosen


def _simplex_lattice(k: int, resolution: int) -> np.ndarray:
    """All weight vectors with entries i/resolution summing to 1."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], resolution, k)
    return np.asarray(out, dtype=float) / resolution


def _farthest_point_subset(points: np.ndarray, m: int) -> np.ndarray:
    if len(points) <= m:
        return points
    # Start from the lexicographically smallest point for determinism.
    start = int(np.lexsort(points.T[::-1])[0])
    chosen = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    while len(chosen) < m:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return points[sorted(chosen)]


def target_chasing_schedule(
    amb: AmbiguitySet, targets, horizon: int, start: int = 1000
) -> BlockSchedule:
    """Block schedule that visits the mean targets in order, one per block.

    Block ends grow geometrically from `start` to `horizon`, so each visit's
    error contracts to about (adjacent target spacing)/(growth factor - 1)
    plus CLT noise; the block ends are where the running mean should sit
    near each block's target. In the infinite extension the cycle continues
    with the same factor, so every target recurs infinitely often.
    """
    if horizon <= 2 * start:
        raise ValueError(f"horizon {horizon} too small for start {start}")
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if targets.ndim == 1 and amb.dim > 1:
        raise ValueError("vector model needs vector targets")
    m = len(targets)

    ends = []
    if m == 1:
        ends = [horizon]
    else:
        ratio = (horizon / start) ** (1.0 / (m - 1))
        for j in range(m):
            end = int(round(start * ratio ** j))
            ends.append(max(end, (ends[-1] + 1) if ends else 1))
        ends[-1] = horizon

    if amb.dim == 1:
        weights = [stationary_for_target(amb, float(b)).weights for b in targets]
    else:
        weights = [mixture_for_target(amb, b) for b in targets]
    return BlockSchedule(tuple(ends), tuple(weights), label="target_chasing")


def sample_path(
    amb: AmbiguitySet,
    strategy: Strategy,
    n: int,
    seed: int,
    start: int = 0,
    uniforms: tuple[np.ndarray, np.ndarray] | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> Path:
    """Draw steps start+1..n under the strategy's per-block mixtures.

    Step t consumes exactly the uniforms hashed from counters (2t, 2t+1):
    one to select the member, one for the member's inverse CDF. The result is
    a pure function of (set, strategy, n, seed, start), and a path drawn from
    `start` equals the slice [start:n] of the whole path. Its n is the number
    of steps drawn, n - start, and its partial sums begin at 0, so a caller
    that walks a path in windows carries the running sum itself.

    `uniforms` are the (u_member, u_value) arrays that `hash_window` filled
    for (seed, start), n - start each; a caller that draws several strategies
    of one seed hashes them once. Without them this function hashes them
    itself. A block whose mixture is one-hot skips the member uniform; any
    other block draws its finite members' rows by one gather from the
    model's `icdf_table`.
    `out` are (increments, member_indices) arrays of n - start rows for the
    path to be drawn into, so a caller that walks windows allocates none.
    """
    if not 0 <= start < n:
        raise ValueError(f"need 0 <= start < n, got start={start}, n={n}")
    if uniforms is None:
        uniforms = (np.empty(n - start), np.empty(n - start))
        hash_window(seed, start, *uniforms)
    u_member, u_value = uniforms
    if len(u_member) != n - start or len(u_value) != n - start:
        raise ValueError(f"uniforms must cover the {n - start} steps drawn")
    members = amb.members
    k = len(members)
    if out is None:
        shape = (n - start,) if amb.dim == 1 else (n - start, amb.dim)
        out = np.empty(shape), np.empty(n - start, dtype=np.int16)
    increments, member_idx = out
    if len(increments) != n - start or len(member_idx) != n - start:
        raise ValueError(f"output arrays must hold the {n - start} steps drawn")

    lo = start
    for end, weights in strategy.blocks_for(n, start):
        weights = _check_weights(weights, k)
        rows = slice(lo - start, end - start)
        lo = end
        if weights.count(1.0) == 1 and weights.count(0.0) == k - 1:
            # Every uniform selects this member, as the search below would.
            j = weights.index(1.0)
            member_idx[rows] = j
            members[j].icdf(u_value[rows], out=increments[rows])
            continue
        cumw = np.cumsum(weights)
        cumw[-1] = 1.0
        idx, values, block = member_idx[rows], u_value[rows], increments[rows]
        np.minimum(np.searchsorted(cumw, u_member[rows], side="right"), k - 1,
                   out=idx, casting="unsafe")
        # Each row's atom is its member's offset plus the count of that
        # member's thresholds at or below the value uniform: one gather
        # takes the float that the member's own icdf would.
        thresholds, offsets, atoms = amb.icdf_table
        pos = offsets[idx]
        for column in thresholds:
            pos += column[idx] <= values
        np.take(atoms, pos, axis=0, out=block)
        for j, member in enumerate(members):
            if member.kind == "pareto":
                mask = idx == j
                if mask.any():
                    block[mask] = member.icdf(values[mask])

    return Path(
        n=n - start,
        increments=increments,
        member_indices=member_idx,
    )
