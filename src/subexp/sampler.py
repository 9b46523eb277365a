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
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import _WEIGHT_TOL, AmbiguitySet
from .errors import TargetOutOfRange

__all__ = [
    "BlockSchedule",
    "Path",
    "Stationary",
    "alternating_schedule",
    "extreme_members",
    "hash_window",
    "oscillation_schedule",
    "pure_weights",
    "sample_path",
    "stationary_for_target",
    "target_chasing_schedule",
]

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


def _mixture(weights) -> tuple:
    """weights as a tuple of floats, checked to be a probability vector."""
    w = tuple(float(x) for x in weights)
    if not all(x >= 0 for x in w):
        raise ValueError(f"mixture weights must be nonnegative, got {w}")
    if not abs(math.fsum(w) - 1.0) <= _WEIGHT_TOL:
        raise ValueError(f"mixture weights must sum to 1 within {_WEIGHT_TOL}, got {w}")
    return w


@dataclass(frozen=True)
class Stationary:
    """One member mixture applied at every step, checked when it is built."""

    weights: tuple
    label: str = "stationary"

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _mixture(self.weights))

    def blocks_for(self, n: int, start: int = 0) -> list[tuple[int, tuple]]:
        return [(n, self.weights)]


@dataclass(frozen=True)
class BlockSchedule:
    """Piecewise-stationary play: block j covers steps (ends[j-1], ends[j]]
    and plays mixtures[j % len(mixtures)], and steps past the last end keep
    the last block's mixture. ends may be a range, which holds evenly spaced
    ends in constant space; the mixtures are checked when it is built.
    """

    ends: Sequence[int]
    mixtures: tuple
    label: str = "blocks"

    def __post_init__(self) -> None:
        if not self.ends or not self.mixtures:
            raise ValueError("a block schedule needs at least one block and one mixture")
        for a, b in zip(itertools.chain((0,), self.ends), self.ends):
            if b <= a:
                raise ValueError(f"block ends must be strictly increasing, got {b} after {a}")
        object.__setattr__(self, "mixtures", tuple(_mixture(w) for w in self.mixtures))

    def blocks_for(self, n: int, start: int = 0) -> list[tuple[int, tuple]]:
        """(end, mixture) of the blocks of steps 1..n that end after step
        `start` < n, each end clipped to n; earlier blocks are skipped by
        bisection."""
        ends, mixtures = self.ends, self.mixtures
        out = []
        for j in range(bisect.bisect_right(ends, start), len(ends)):
            out.append((min(ends[j], n), mixtures[j % len(mixtures)]))
            if ends[j] >= n:
                return out
        return out + [(n, mixtures[(len(ends) - 1) % len(mixtures)])]


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


def _pure_extremes(amb: AmbiguitySet) -> tuple[Stationary, Stationary]:
    hi, lo = extreme_members(amb)
    k = len(amb.members)
    return (
        Stationary(pure_weights(k, hi), label="pure_max"),
        Stationary(pure_weights(k, lo), label="pure_min"),
    )


def _pure_members(amb: AmbiguitySet) -> list[Stationary]:
    k = len(amb.members)
    return [Stationary(pure_weights(k, j), label=f"pure_{j}") for j in range(k)]


def _uniform_mix(amb: AmbiguitySet) -> Stationary:
    k = len(amb.members)
    return Stationary(tuple(1.0 / k for _ in range(k)), label="uniform_mix")


def _block_ends(candidates: Iterable[int], horizon: float = math.inf) -> tuple[int, ...]:
    """Strictly increasing block ends from candidate ends, up to the horizon.

    Each end is its candidate or one past the previous end (1 for the
    first), whichever is larger. The first end to reach the horizon is
    clipped to it and is the last; the candidates are read lazily, so none
    after it is computed.
    """
    ends = []
    for candidate in candidates:
        ends.append(min(max(candidate, ends[-1] + 1 if ends else 1), horizon))
        if ends[-1] == horizon:
            break
    return tuple(ends)


def alternating_schedule(amb: AmbiguitySet, ends: Sequence[int], label: str) -> BlockSchedule:
    """Pure max-mean and min-mean blocks in turn over the given block ends,
    the max-mean member first. A range of ends is kept as it is, so a
    schedule holds nothing per block."""
    k = len(amb.members)
    mixtures = tuple(pure_weights(k, j) for j in extreme_members(amb))
    return BlockSchedule(ends if isinstance(ends, range) else tuple(ends), mixtures, label=label)


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
    ends = _block_ends(int(round(16 * factor ** j)) for j in range(K))
    return alternating_schedule(amb, ends, "oscillation")


def default_targets(amb: AmbiguitySet, m: int) -> tuple[np.ndarray, list[tuple]]:
    """m target means in the mean set, each with the member mixture it is the mean of.

    1-d: uniform grid on [lower, upper], with `stationary_for_target`'s
    mixtures. Higher d: means of simplex-lattice mixtures, each kept with the
    lexicographically largest lattice row that attains it, thinned to m
    spread-out points by farthest point sampling, then stably ordered by their
    projection on q - p, where (p, q) is the lexicographically first pair at
    the largest distance, so consecutive targets are near each other (which
    is what the chasing schedule wants) and the order depends on the model
    alone.
    """
    if m < 1:
        raise ValueError("need at least one target")
    means = np.atleast_2d(amb.member_means().reshape(len(amb.members), -1))
    if amb.dim == 1:
        lo, hi = float(means.min()), float(means.max())
        targets = np.linspace(lo, hi, m)
        return targets, [stationary_for_target(amb, float(b)).weights for b in targets]

    grid = _simplex_lattice(len(amb.members), resolution=max(8, m))
    # Lattice rows come in increasing lexicographic order, so the last row
    # that rounds to a point is its largest; a dict keeps the first key
    # object it sees, so -0.0 and 0.0 keep the representative met first.
    mixture_of = {tuple(point): tuple(row)
                  for point, row in zip(np.round(grid @ means, 12).tolist(), grid.tolist())}
    chosen = _farthest_point_subset(np.array(sorted(mixture_of)), m)
    gaps = np.square(chosen[:, None, :] - chosen[None, :, :]).sum(axis=2)
    i, j = divmod(int(np.argmax(gaps)), len(chosen))
    order = np.argsort((chosen - chosen.mean(axis=0)) @ (chosen[j] - chosen[i]), kind="stable")
    chosen = chosen[order]
    return chosen, [mixture_of[tuple(t)] for t in chosen.tolist()]


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


def target_chasing_schedule(mixtures, horizon: int, start: int = 1000) -> BlockSchedule:
    """Block schedule that plays the targets' mixtures (from `default_targets`)
    in order, one per block.

    Block ends grow geometrically from `start` to `horizon`, so each visit's
    error contracts to about (adjacent target spacing)/(growth factor - 1)
    plus CLT noise; the block ends are where the running mean should sit
    near each block's target. In the infinite extension the cycle continues
    with the same factor, so every target recurs infinitely often. Each
    block ends at its own step in start..horizon.
    """
    if horizon <= 2 * start:
        raise ValueError(f"horizon {horizon} too small for start {start}")
    m = len(mixtures)
    if m > horizon - start + 1:
        raise ValueError(
            f"{m} targets need {m} block ends, but steps {start}..{horizon} hold at most "
            f"{horizon - start + 1}"
        )

    ratio = (horizon / start) ** (1.0 / max(m - 1, 1))
    candidates = itertools.chain((int(round(start * ratio ** j)) for j in range(m - 1)), (horizon,))
    return BlockSchedule(_block_ends(candidates, horizon), tuple(mixtures), label="target_chasing")


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
        if len(weights) != k:
            raise ValueError(f"mixture needs one weight per member ({k}), got {len(weights)}")
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
