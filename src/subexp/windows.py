"""The window engine that every sampled driver walks its paths through.

`_windows` takes one seed and all the driver's strategies, hashes each
window of _WINDOW steps once, draws every strategy from those uniforms, and
yields each strategy's window for the driver to fold into its statistics
before the next one is drawn. The windows chain the running sums exactly
(`_chain`), so no statistic depends on the window size, and peak memory is
bounded by jobs windows and containment blocks, whatever the horizon and
the number of paths. `_Containment` folds the windows of one path, through
`meanset.fold_distances`, into its containment row.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .distributions import AmbiguitySet
from .meanset import MeanSet, build_mean_set, fold_distances
from .parallel import parallel_map
from .runner import Row, _raise_worst
from .sampler import hash_window, sample_path

_BURN_IN_FRACTION = 100  # tail = n >= N / this
# Steps per sampled window. A task's window workspace (two uniforms, their
# uint64 scratch, the step counts, one strategy's increments and member
# indices) takes 336 KiB at d=1, so it stays in a 2 MB L2.
_WINDOW = 8_192


def _tail_slice(n: int) -> int:
    return max(1, n // _BURN_IN_FRACTION)


def _windows(amb: AmbiguitySet, strategies: Sequence, N: int, seed: int):
    """Walk the N-step paths that the strategies draw under one seed, in windows.

    One workspace, allocated per call, holds a window's uniforms, step
    counts, increments and member indices. Each window of _WINDOW steps is
    hashed once, and every strategy draws its window from those uniforms.
    Yields (j, ns, x, tail) for each window and each strategy j in turn: x is
    strategies[j]'s increments on the steps ns (start+1..end, as floats,
    shared by the strategies of the window), and rows from tail on lie past
    the burn-in. ns and x are views into the workspace, valid until the next
    yield, which the caller may overwrite; `_chain` turns x into running sums.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    burn = _tail_slice(N)
    size = min(_WINDOW, N)
    # Float64 rows of one window: ns, two uniforms and their uint64 scratch,
    # then dim rows of increments, then the int16 member indices.
    work = np.empty((4 + amb.dim) * size + size // 4 + 1)
    ns, u_member, u_value, scratch = work[:4 * size].reshape(4, size)
    scratch = scratch.view(np.uint64)
    increments = work[4 * size:(4 + amb.dim) * size]
    if amb.dim > 1:
        increments = increments.reshape(size, amb.dim)
    member_idx = work[(4 + amb.dim) * size:].view(np.int16)[:size]
    ns.fill(1.0)
    np.cumsum(ns, out=ns)  # 1..size, exact in float64
    for start in range(0, N, _WINDOW):
        if start:
            ns += _WINDOW  # every earlier window was full
        w = slice(0, min(start + _WINDOW, N) - start)
        uniforms = u_member[w], u_value[w]
        hash_window(seed, start, *uniforms, scratch[w])
        tail = max(burn - 1 - start, 0)
        for j, strategy in enumerate(strategies):
            path = sample_path(amb, strategy, start + w.stop, seed, start=start,
                               uniforms=uniforms, out=(increments[w], member_idx[w]))
            yield j, ns[w], path.increments, tail


def _chain(x: np.ndarray, carry):
    """Turn one window's increments x into running sums in place; return the next carry.

    carry is the sum before the window (None for the first). It is added
    into the first increment before the cumsum, which is the same addition
    S_start + x_{start+1} that a whole-path cumsum makes, so the sums equal
    it bit for bit.
    """
    if carry is not None:
        x[0] += carry
    np.cumsum(x, axis=0, out=x)
    return x[-1].copy()  # a view would keep this window alive


def _keep_at_steps(found: list, sums: np.ndarray, ns: np.ndarray, steps: np.ndarray) -> None:
    """Append to found the rows of one window's sums (on the steps ns) at
    those of steps it holds, unless it holds none, as most windows do."""
    held = steps[(steps >= ns[0]) & (steps <= ns[-1])]
    if len(held):
        found.append(sums[held - int(ns[0])])


def _per_seed(fold, seeds: Sequence[int], jobs: int) -> list[tuple]:
    """Run fold(seed) as one task per seed, whatever jobs is.

    fold walks the seed's windows once for every strategy of the driver and
    returns one output per strategy. Returns out[i][s], the output of
    strategy i under seeds[s]. On a 2-core host, slln at jobs=2 and 3 seeds
    ran faster this way than with two tasks per seed (1.08 against 1.17 s
    wall, 1.6 against 1.9 s CPU): the third task runs alone, where split
    tasks hash every window twice and contend for the interpreter.
    """
    if not seeds:
        raise ValueError("a sampled experiment needs at least one seed")
    return list(zip(*parallel_map(fold, seeds, jobs)))


class _Containment:
    """Per-path reducer: worst tail excess of dist(S_n/n, M) over the CLT
    slack 4 sqrt(E|X|^2 / n), as one containment row.

    `fold` takes one window and `_excess` one row block of its tail at a
    time; the max over them is exact, so the value depends neither on the
    window nor on the block height. A NaN anywhere in the tail makes the
    value NaN, so the row raises NonFiniteVerdict. The net-based distance
    never exceeds the true one, so it errs towards a pass: a path that
    leaves M by less than the net resolves reads as contained.
    """

    def __init__(self, amb: AmbiguitySet, mean_set: MeanSet, tol_outer: float):
        self.s2 = max(m.second_moment() for m in amb.members)
        self.mean_set = mean_set
        self.tol_outer = tol_outer

    def fold(self, worst: float, ns: np.ndarray, sums: np.ndarray, tail: int) -> float:
        """worst, raised to the excess over this window's tail rows."""
        return fold_distances(self.mean_set, sums[tail:], ns[tail:], self._excess, worst)

    def _excess(self, worst: float, dist: np.ndarray, ns: np.ndarray) -> float:
        """worst, raised to max(dist - 4 sqrt(s2 / n)) over one block's rows."""
        t = np.divide(self.s2, ns)
        np.sqrt(t, out=t)
        t *= 4.0
        dist -= t
        return _raise_worst(worst, dist.max(initial=-math.inf))

    def row(self, worst: float, strategy: str, seed: int, n: int) -> Row:
        return Row(
            statistic="containment_worst_excess",
            value=worst,
            tolerance=self.tol_outer,
            passed=worst <= self.tol_outer,
            strategy=strategy,
            seed=seed,
            n=n,
        )


def _containment(amb: AmbiguitySet, tol_outer: float, delta: float = 0.05) -> _Containment | None:
    """A run's containment reducer, or None for a model with a Pareto member,
    whose s2 is inf at alpha <= 2: every excess would read -inf and raise.
    The mean set is built either way, so a bad delta is rejected either way."""
    mean_set = build_mean_set(amb, delta=delta)
    return _Containment(amb, mean_set, tol_outer) if amb.is_finite_support else None
