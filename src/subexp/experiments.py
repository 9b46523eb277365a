"""Experiment drivers for the limit theorems at desk scale.

Each driver samples adversarial paths (or runs the exact DP, or checks the
axioms on random exact instances), reduces them to named scalar statistics
with tolerances, and returns an ExperimentResult whose rows are reproducible
from (model, strategy, seed) alone. Every sampled driver walks its paths
through one window engine, `_windows`: a task takes one seed and all the
driver's strategies, hashes each window of _WINDOW steps once, draws every
strategy from those uniforms, and folds each strategy's window into its
statistics before the next one is drawn.
The windows chain the running sums exactly (`_chain`), so no statistic
depends on the window size, and peak memory is bounded by jobs windows
and containment blocks, whatever the horizon and the number of paths.
Numeric policy: running extrema over n >= N/100 stand in for
limsup/liminf (burn-in discard, bias toward the finite-N side), and every
series or moment convergence verdict is read in closed form from the
members (their Pareto tail exponents and means), never from finitely many
terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .axioms import _property_gaps
from .distributions import AmbiguitySet, Event
from .errors import NonFiniteVerdict
from .expectation import _survival_curve, _survival_integral, choquet_integral, mean_interval
from .inequalities import _levy_checks, check_inequality
from .lattice_dp import TerminalSum, dp_value
from .meanset import MeanSet, build_mean_set, distance_to_mean_set
from .parallel import parallel_map
from .sampler import (
    Stationary,
    alternating_schedule,
    default_targets,
    extreme_members,
    hash_window,
    oscillation_schedule,
    pure_weights,
    sample_path,
    stationary_for_target,
    target_chasing_schedule,
)

__all__ = [
    "ExperimentResult",
    "Row",
    "run_axioms",
    "run_choquet_series",
    "run_cluster_set",
    "run_inequality_grid",
    "run_marcinkiewicz",
    "run_slln",
    "run_three_series",
    "run_weak_lln",
]

_BURN_IN_FRACTION = 100  # tail = n >= N / this
# Bytes of one containment gap block, a quarter of a 2 MB L2. Each
# _Containment takes as many rows as fit: 520 against the 126 directions of
# the 2-d net, 10 against the 6400 of the 3-d net. So a block stays in cache
# whatever the net, and each block is one GEMM small enough for OpenBLAS to
# run on one thread.
_CONTAINMENT_BYTES = 512 * 1024
# Steps per sampled window. A task's window workspace (two uniforms, their
# uint64 scratch, the step counts, one strategy's increments and member
# indices) takes 336 KiB at d=1, so it stays in a 2 MB L2.
_WINDOW = 8_192


@dataclass(frozen=True)
class Row:
    """One scalar statistic; passed=None marks informational rows.

    Only an informational row may hold an infinite or NaN value: a verdict
    on one raises NonFiniteVerdict, which names the row.
    """

    statistic: str
    value: float
    tolerance: float
    passed: bool | None
    strategy: str = ""
    seed: int = 0
    n: int = 0

    def __post_init__(self):
        # Drivers hand in numpy scalars; keep rows JSON-clean.
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n", int(self.n))
        if self.passed is not None and not math.isfinite(self.value):
            raise NonFiniteVerdict(
                f"row {self.statistic!r} (strategy {self.strategy!r}, seed {self.seed}, "
                f"n {self.n}) has a verdict on the non-finite value {self.value}"
            )


@dataclass(frozen=True)
class ExperimentResult:
    """Rows of one run; the experiment name and model label live in its config."""

    strategy_labels: tuple
    n_grid: tuple
    seeds: tuple
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)


def _tail_slice(n: int) -> int:
    return max(1, n // _BURN_IN_FRACTION)


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


def _raise_worst(worst: float, x) -> float:
    """max(worst, x) as a float, except that a NaN x is kept: Python's max
    would drop it whenever worst came first."""
    x = float(x)
    return x if math.isnan(x) else max(worst, x)


class _Containment:
    """Per-path reducer: worst tail excess of dist(S_n/n, M) over the CLT
    slack 4 sqrt(E|X|^2 / n), as one containment row.

    The directions, support values, s2 and the block height are built once
    per run. A 2-d or higher window is scanned in blocks of `rows` tail rows:
    each block's (rows x K) gap matrix against the K net directions takes at
    most _CONTAINMENT_BYTES. `fold` takes one window at a time, and the max
    over windows and row blocks is exact, so the value depends neither on
    the window nor on the block height. A NaN anywhere in the tail makes the
    value NaN, so the row raises NonFiniteVerdict. The net-based distance
    never exceeds the true one, so it errs towards a pass: a path that
    leaves M by less than the net resolves reads as contained.
    """

    def __init__(self, amb: AmbiguitySet, mean_set: MeanSet, tol_outer: float):
        self.s2 = max(m.second_moment() for m in amb.members)
        self.directions = np.asarray(mean_set.net.directions).T
        self.support = np.asarray(mean_set.support_values)
        self.rows = max(1, _CONTAINMENT_BYTES // (8 * len(self.support)))  # float64 gaps
        self.tol_outer = tol_outer

    def fold(self, worst: float, ns: np.ndarray, sums: np.ndarray, tail: int) -> float:
        """worst, raised to the excess over this window's tail rows."""
        if sums.ndim == 1:
            # The 1-d net is exactly {+1, -1}: the products by +-1.0 are exact,
            # so this closed form gives the bits of the matrix product.
            # In place on two buffers, each operation the one of
            # max(y - s0, -y - s1, 0) - 4 sqrt(s2 / n).
            y = np.divide(sums[tail:], ns[tail:])
            t = np.negative(y)
            t -= self.support[1]
            y -= self.support[0]
            np.maximum(y, t, out=y)
            np.maximum(y, 0.0, out=y)
            np.divide(self.s2, ns[tail:], out=t)
            np.sqrt(t, out=t)
            t *= 4.0
            y -= t
            return _raise_worst(worst, y.max(initial=-math.inf))
        # One gap buffer per window, refilled in place for every row block.
        gaps = np.empty((min(self.rows, len(ns)), len(self.support)))
        for i in range(tail, len(ns), self.rows):
            rows = slice(i, i + self.rows)
            block = gaps[: len(ns[rows])]
            np.matmul(sums[rows] / ns[rows, None], self.directions, out=block)
            block -= self.support
            dist = np.maximum(block.max(axis=1), 0.0)
            worst = _raise_worst(worst, (dist - 4.0 * np.sqrt(self.s2 / ns[rows])).max())
        return worst

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


def run_slln(
    amb: AmbiguitySet,
    N: int = 1_000_000,
    seeds: Sequence[int] = (1, 2, 3),
    tol: float = 0.01,
    m_targets: int = 5,
    tol_outer: float = 0.05,
    jobs: int = 1,
) -> ExperimentResult:
    """Endpoint attainment, oscillation between endpoints, and target grid.

    Pure extreme strategies must land within tol of the breve means; the
    oscillation schedule's running extrema over the tail must approach both
    endpoints; each grid target must be attained by its stationary mixture.
    """
    if amb.dim != 1:
        raise ValueError("the slln experiment is one-dimensional")
    report = mean_interval(amb)  # raises NotConvergent for heavy-tailed models
    upper, lower = report.upper_mean, report.lower_mean
    s_max, s_min = _pure_extremes(amb)
    K = max(2, math.ceil(math.log(max(N / 16, 2)) / math.log(16.0)) + 1)
    osc = oscillation_schedule(amb, K)
    targets = np.linspace(lower, upper, m_targets)
    strategies = [s_max, s_min, osc] + [stationary_for_target(amb, float(b)) for b in targets]

    containment = (
        _Containment(amb, build_mean_set(amb, delta=0.05), tol_outer)
        if amb.is_finite_support
        else None
    )

    def fold(seed):
        """Per strategy: last partial sum, oscillation tail extremes, containment row."""
        carry = [None] * len(strategies)
        worst = [-math.inf] * len(strategies)
        run_max, run_min = -math.inf, math.inf
        for j, ns, sums, tail in _windows(amb, strategies, N, seed):
            carry[j] = _chain(sums, carry[j])
            if strategies[j] is osc:
                means = sums[tail:] / ns[tail:]
                run_max = np.maximum(run_max, means.max(initial=-math.inf))
                run_min = np.minimum(run_min, means.min(initial=math.inf))
            if containment is not None:
                worst[j] = containment.fold(worst[j], ns, sums, tail)
        return [
            (
                carry[j],
                (run_max, run_min) if strategy is osc else None,
                None if containment is None else containment.row(worst[j], strategy.label, seed, N),
            )
            for j, strategy in enumerate(strategies)
        ]

    reduced = _per_seed(fold, seeds, jobs)
    by_label = {s.label: outs for s, outs in zip(strategies, reduced)}

    rows = []

    for seed, (last, _, _) in zip(seeds, by_label["pure_max"]):
        v = abs(last / N - upper)
        rows.append(Row("endpoint_upper_gap", float(v), tol, v <= tol, "pure_max", seed, N))
    for seed, (last, _, _) in zip(seeds, by_label["pure_min"]):
        v = abs(last / N - lower)
        rows.append(Row("endpoint_lower_gap", float(v), tol, v <= tol, "pure_min", seed, N))

    # Dichotomy witness: distinct stationary extremes separate the limits.
    if upper > lower:
        for seed, pmax, pmin in zip(seeds, by_label["pure_max"], by_label["pure_min"]):
            gap = float(pmax[0] / N - pmin[0] / N)
            need = 0.5 * (upper - lower)
            rows.append(Row("endpoint_separation", gap, need, gap >= need, "pure", seed, N))

    max_tol = upper - 0.05 if upper > lower else upper  # attainment bands
    min_tol = lower + 0.05 if upper > lower else lower
    for seed, (_, (run_max, run_min), _) in zip(seeds, by_label["oscillation"]):
        rows.append(
            Row("osc_running_max", run_max, max_tol, run_max >= max_tol, "oscillation", seed, N)
        )
        rows.append(
            Row("osc_running_min", run_min, min_tol, run_min <= min_tol, "oscillation", seed, N)
        )

    for b in targets:
        label = f"target={float(b):g}"
        for seed, (last, _, _) in zip(seeds, by_label[label]):
            v = abs(last / N - float(b))
            rows.append(Row(f"target_gap_b={float(b):g}", float(v), tol, v <= tol, label, seed, N))

    if containment is not None:
        rows.extend(row for outs in reduced for _, _, row in outs)

    return ExperimentResult(
        strategy_labels=tuple(s.label for s in strategies),
        n_grid=(N,),
        seeds=tuple(seeds),
        rows=tuple(rows),
    )


def run_marcinkiewicz(
    amb: AmbiguitySet,
    p: float = 1.5,
    N: int = 1_000_000,
    seeds: Sequence[int] = (1, 2, 3),
    envelope: float = 0.5,
    jobs: int = 1,
) -> ExperimentResult:
    """Tail envelope for (S_n - n Ê̆[X]) / n^{1/p} under the max strategy.

    When the p-th Choquet moment is finite the scaled deviation must stay in
    [-envelope, envelope] for all n past burn-in (the CLT-scale width is
    sqrt(E[X^2]) n^{1/2 - 1/p}, documented so the envelope can be judged).
    Heavy-tailed models with C_V(|X|^p) = infinity run as controls: the
    envelope breach is logged as divergence evidence, never asserted passed.
    """
    if not (1.0 < p < 2.0):
        raise ValueError("p must lie in (1, 2)")
    if amb.dim != 1:
        raise ValueError("the marcinkiewicz experiment is one-dimensional")
    # The p-th Choquet moment of |X| is finite iff every Pareto tail exponent
    # exceeds p (finite-support members have every moment).
    moment_ok = amb.heaviest_alpha() > p

    # Centering target. A member without a mean raises NotConvergent here, as
    # it would when the pure strategies are picked by their means.
    upper = mean_interval(amb).upper_mean

    s_max, _ = _pure_extremes(amb)
    burn = _tail_slice(N)

    def scaled_sup(strategy, seed, fold=np.abs) -> float:
        """Tail sup of fold(S_n - n Ê̆[X]) / n^{1/p} along one path."""
        worst, carry = -math.inf, None
        for _, ns, sums, tail in _windows(amb, [strategy], N, seed):
            carry = _chain(sums, carry)
            scaled = fold(sums - ns * upper) / ns ** (1.0 / p)
            worst = _raise_worst(worst, scaled[tail:].max(initial=-math.inf))
        return worst

    (worsts,) = _per_seed(lambda seed: [scaled_sup(s_max, seed)], seeds, jobs)
    rows = []
    for seed, worst in zip(seeds, worsts):
        if moment_ok:
            rows.append(Row("envelope_sup", worst, envelope, worst <= envelope, "pure_max", seed, N))
        else:
            rows.append(Row("envelope_sup", worst, envelope, None, "pure_max", seed, N))
            rows.append(
                Row(
                    "envelope_breached",
                    1.0 if worst > envelope else 0.0,
                    0.0,
                    None,
                    "pure_max",
                    seed,
                    N,
                )
            )
    rows.append(
        Row(
            "clt_band_at_burn_in",
            4.0
            * math.sqrt(max(m.second_moment() for m in amb.members))
            * burn ** (0.5 - 1.0 / p)
            * math.log(max(burn, 2)),
            0.0,
            None,
            "pure_max",
            0,
            burn,
        )
        if moment_ok
        else Row("series_verdict_divergent", 1.0, 0.0, None, "pure_max", 0, N)
    )

    # Oscillation variant on the p-tuned block schedule k^{2p/(2-p)}: the
    # scaled running sup approaches 0 from below, reported for inspection.
    if moment_ok and amb.is_finite_support:
        exponent = 2.0 * p / (2.0 - p)
        ends = [1]  # block k ends at ceil(k^exponent), past block k-1
        while ends[-1] < N:
            ends.append(max(int(math.ceil((len(ends) + 1) ** exponent)), ends[-1] + 1))
        sched = alternating_schedule(amb, ends, "p_oscillation")
        rows.append(
            Row(
                "osc_scaled_sup",
                scaled_sup(sched, seeds[0], fold=np.positive),
                0.0,
                None,
                "p_oscillation",
                seeds[0],
                N,
            )
        )

    return ExperimentResult(
        strategy_labels=("pure_max",),
        n_grid=(N,),
        seeds=tuple(seeds),
        rows=tuple(rows),
    )


_PHI_BANK_THRESHOLD = 0.05


def _phi_bank(lower: float, upper: float):
    """Three Lipschitz test maps with known suprema over M = [lower, upper]."""
    mid = 0.5 * (lower + upper)

    def dist_m(x):
        return np.maximum(np.maximum(lower - x, x - upper), 0.0)

    return [
        ("phi_dist", lambda x: np.minimum(1.0, dist_m(x)), 0.0),
        ("phi_clip", lambda x: np.clip(x, lower, upper), upper),
        ("phi_peak", lambda x: 1.0 - np.minimum(1.0, np.abs(x - mid)), 1.0),
    ]


def run_weak_lln(
    amb: AmbiguitySet,
    ns: Sequence[int] = (32, 64, 128, 256),
    epsilon: float = 0.1,
    mode: str = "exact",
    threshold: float = 0.05,
    interior_b: float | None = None,
    interior_threshold: float = 0.9,
    seeds: Sequence[int] = tuple(range(1, 201)),
    jobs: int = 1,
) -> ExperimentResult:
    """Escape capacities for dist(S_n/n, M) >= epsilon along an n grid.

    Exact mode (d=1 lattice models) computes 𝕍 by DP: the capacities must
    be nonincreasing along the requested grid (not along every n: on E1
    with epsilon=0.1, n=33 gives 0.3247 and n=34 gives 0.3526) and at most
    threshold at the largest n. The weak law only says 𝕍 -> 0, so the
    threshold is the caller's choice, not a rate the law promises. The
    capacity of landing within epsilon of an interior target must be large,
    and the upper expectation of each bank function of S_n/n must approach
    its supremum over M. MC mode (d >= 2) estimates the escape frequency
    per strategy and per n with a binomial confidence interval, from one
    walk to the largest n per seed; only the largest n carries a verdict.
    """
    ns = tuple(sorted(ns))
    if ns[0] < 1:
        raise ValueError(f"ns: every n must be at least 1, got {ns[0]}")
    n_top = ns[-1]
    rows = []

    if mode == "exact":
        if amb.dim != 1:
            raise ValueError("exact mode requires d=1")
        rep = mean_interval(amb)
        lower, upper = rep.lower_mean, rep.upper_mean
        caps = []
        for n in ns:
            event = Event("outside_closed", n * (lower - epsilon), n * (upper + epsilon))
            caps.append(dp_value(amb, TerminalSum(event.holds), n, side="upper"))
        for n, cap in zip(ns, caps):
            is_top = n == n_top
            rows.append(
                Row(
                    "escape_capacity",
                    float(cap),
                    threshold,
                    (cap <= threshold) if is_top else None,
                    "exact_dp",
                    0,
                    n,
                )
            )
        worst_increase = max(
            (caps[i + 1] - caps[i] for i in range(len(caps) - 1)), default=0.0
        )
        rows.append(
            Row(
                "escape_monotone_max_increase",
                float(worst_increase),
                1e-12,
                worst_increase <= 1e-12,
                "exact_dp",
                0,
                n_top,
            )
        )

        b = 0.5 * (lower + upper) if interior_b is None else float(interior_b)
        event_in = Event("between_open", n_top * (b - epsilon), n_top * (b + epsilon))
        cap_in = dp_value(amb, TerminalSum(event_in.holds), n_top, side="upper")
        rows.append(
            Row(
                f"interior_capacity_b={b:g}",
                float(cap_in),
                interior_threshold,
                cap_in >= interior_threshold,
                "exact_dp",
                0,
                n_top,
            )
        )

        for name, phi, sup_m in _phi_bank(lower, upper):
            val = dp_value(
                amb, TerminalSum(lambda s, f=phi, n=n_top: f(s / n)), n_top, side="upper"
            )
            gap = abs(val - sup_m)
            rows.append(
                Row(name + "_gap", float(gap), _PHI_BANK_THRESHOLD,
                    gap <= _PHI_BANK_THRESHOLD, "exact_dp", 0, n_top)
            )

    elif mode == "mc":
        mean_set = build_mean_set(amb, delta=0.05)
        strategies = [*_pure_members(amb), _uniform_mix(amb)]

        grid = np.asarray(ns)

        def hit(seed) -> list[list[float]]:
            """Per strategy and per n of the grid: 1.0 when S_n/n escapes, else 0.0."""
            carry = [None] * len(strategies)
            sums = [[] for _ in strategies]
            for j, steps, x, _ in _windows(amb, strategies, n_top, seed):
                carry[j] = _chain(x, carry[j])
                _keep_at_steps(sums[j], x, steps, grid)
            return [
                [1.0 if distance_to_mean_set(mean_set, s / n) >= epsilon else 0.0
                 for s, n in zip(np.concatenate(per), ns)]
                for per in sums
            ]

        for strategy, hits in zip(strategies, _per_seed(hit, seeds, jobs)):
            for i, n in enumerate(ns):
                freq = float(np.mean([h[i] for h in hits]))
                ci = 1.96 * math.sqrt(max(freq * (1 - freq), 1e-12) / len(hits))
                verdict = (freq <= threshold + ci) if n == n_top else None
                rows.append(Row("escape_frequency", freq, threshold + ci, verdict,
                                strategy.label, 0, n))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return ExperimentResult(
        strategy_labels=("exact_dp",) if mode == "exact" else tuple(s.label for s in strategies),
        n_grid=ns,
        seeds=(0,) if mode == "exact" else tuple(seeds),
        rows=tuple(rows),
    )


def _series_exponents(amb: AmbiguitySet, q: float) -> dict[str, float]:
    """Decay exponent beta of each three-series term for X_n = n^{-q} X, inf
    when the terms vanish from some n on; a series converges iff beta > 1.

    The levels t_n = c n^q pass every finite atom, so only Pareto tails stay
    (alpha > 1, or member_means raises NotConvergent): V(|X| > t_n) falls
    like t_n^{-alpha}, each truncated mean tends to its member's mean (and
    is exactly 0 for a zero mean), and E[X^2 /\\ t_n^2] grows like
    t_n^{2-alpha} below alpha = 2, like log t_n at alpha = 2.
    """
    means = amb.member_means()
    alpha = amb.heaviest_alpha()
    point_mass = amb.is_finite_support and len(
        {v for m in amb.members for v in m.values.tolist()}) == 1
    return {
        "S1": q * alpha,
        "S2_upper": math.inf if means.max() == 0.0 else q,
        "S2_lower": math.inf if means.min() == 0.0 else q,
        "S3": math.inf if point_mass else q * min(alpha, 2.0),
    }


def run_three_series(
    amb: AmbiguitySet,
    scale_exponent: float = 2.0,
    c: float = 1.0,
    N: int = 10_000,
    N0: int = 1_000,
    fluct_tol: float = 0.01,
    seeds: Sequence[int] = (1,),
    jobs: int = 1,
) -> ExperimentResult:
    """Three-series conditions for X_n = n^{-q} X and the Cauchy consequence.

    S1: sum of V(|X_n| > c); S2: both series of truncated upper and lower
    means; S3: sum of upper variances of the truncation. Each verdict comes
    from the closed-form decay exponent of its terms (`_series_exponents`):
    convergent iff the exponent exceeds 1, whatever N is. N sizes only the
    sampled check: when every condition is convergent, sampled partial sums
    under four strategies must be Cauchy past N0; when S1 fails, the
    recurrence of increments larger than c is reported instead.
    """
    if amb.dim != 1:
        raise ValueError("three-series models are one-dimensional")
    if not 1 <= N0 <= N:
        raise ValueError(f"need 1 <= N0 <= N, got N0={N0}, N={N}")
    if not c > 0:
        raise ValueError(f"c: the truncation level must be positive, got {c}")
    q = float(scale_exponent)
    if not q > 0:
        raise ValueError(f"scale_exponent: the level exponent must be positive, got {q}")
    convergent = {name: beta > 1.0 for name, beta in _series_exponents(amb, q).items()}
    all_ok = all(convergent.values())

    rows = [
        Row(f"series_{name}_convergent", 1.0 if ok else 0.0, 0.0, None, "", 0, N)
        for name, ok in convergent.items()
    ]

    strategies = [
        *_pure_extremes(amb),
        _uniform_mix(amb),
        alternating_schedule(amb, range(100, N + 100, 100), "alternating_100"),
    ]

    count_big = not convergent["S1"]  # implies not all_ok

    def fluctuation(seed):
        """Per strategy: tail fluctuation of the weighted sums n^{-q} X_n and, when
        S1 failed, the count of large weighted increments."""
        carry = [None] * len(strategies)
        hi, lo = [-math.inf] * len(strategies), [math.inf] * len(strategies)
        big = [0] * len(strategies)
        for j, ns, x, _ in _windows(amb, strategies, N, seed):
            start = int(ns[0]) - 1
            if j == 0:  # the window's first strategy: its weights serve them all
                a_n = ns ** (-q)
            x *= a_n
            tail = max(N0 - 1 - start, 0)
            if count_big:
                big[j] += int(np.sum(np.abs(x[tail:]) > c))
            carry[j] = _chain(x, carry[j])
            # np.maximum keeps a NaN, as a max over the whole tail would
            hi[j] = np.maximum(hi[j], x[tail:].max(initial=-math.inf))
            lo[j] = np.minimum(lo[j], x[tail:].min(initial=math.inf))
        return [(hi[j] - lo[j], big[j] if count_big else None) for j in range(len(strategies))]

    reduced = _per_seed(fluctuation, seeds, jobs)
    for strategy, outs in zip(strategies, reduced):
        for seed, (fluct, big) in zip(seeds, outs):
            if all_ok:
                rows.append(
                    Row("cauchy_fluctuation", fluct, fluct_tol, fluct <= fluct_tol,
                        strategy.label, seed, N)
                )
            else:
                # No Cauchy claim without the three conditions; report how far the
                # tail still wanders, plus the S1 witness when that series failed.
                rows.append(
                    Row("tail_fluctuation", fluct, fluct_tol, None, strategy.label, seed, N)
                )
                if count_big:
                    rows.append(
                        Row("large_increments_after_N0", float(big), 0.0, None,
                            strategy.label, seed, N)
                    )

    return ExperimentResult(
        strategy_labels=tuple(s.label for s in strategies),
        n_grid=(N,),
        seeds=tuple(seeds),
        rows=tuple(rows),
    )


def run_cluster_set(
    amb: AmbiguitySet,
    m_targets: int = 5,
    N: int = 1_000_000,
    seeds: Sequence[int] = (1, 2, 3),
    tol_outer: float = 0.05,
    tol_hausdorff: float = 0.15,
    delta: float = 0.05,
    jobs: int = 1,
) -> ExperimentResult:
    """Vector cluster-set experiment: visits fill the mean set and never leave it.

    The target-chasing schedule visits m targets; the visit points S_{n_k}/n_k
    at its block ends n_k must be within tol_hausdorff of the target grid
    (two-sided Hausdorff, filling) while every tail point of every sampled
    strategy stays within tol_outer + CLT slack of the mean set (containment).
    """
    mean_set = build_mean_set(amb, delta=delta)
    targets, mixtures = default_targets(amb, m_targets)
    chasing = target_chasing_schedule(mixtures, N)
    if targets.ndim == 1:
        targets = targets[:, None]

    strategies = list(_pure_extremes(amb)) if amb.dim == 1 else _pure_members(amb)
    strategies.append(chasing)

    containment = _Containment(amb, mean_set, tol_outer)
    ends = np.asarray(chasing.ends)  # visit ends: the last is N

    def fold(seed):
        """Per strategy: containment row and, for the chasing strategy, the sums at the visit ends."""
        carry = [None] * len(strategies)
        worst, visits = [-math.inf] * len(strategies), []
        for j, ns, sums, tail in _windows(amb, strategies, N, seed):
            carry[j] = _chain(sums, carry[j])
            worst[j] = containment.fold(worst[j], ns, sums, tail)
            if strategies[j] is chasing:
                _keep_at_steps(visits, sums, ns, ends)
        return [
            (containment.row(worst[j], strategy.label, seed, N),
             np.concatenate(visits) if strategy is chasing else None)
            for j, strategy in enumerate(strategies)
        ]

    reduced = _per_seed(fold, seeds, jobs)
    rows = [row for outs in reduced for row, _ in outs]

    for seed, (_, sums) in zip(seeds, reduced[strategies.index(chasing)]):
        if sums.ndim == 1:
            sums = sums[:, None]
        visits = sums / ends[:, None]
        d_tv = np.linalg.norm(targets[:, None, :] - visits[None, :, :], axis=2)
        hausdorff = max(float(d_tv.min(axis=1).max()), float(d_tv.min(axis=0).max()))
        rows.append(
            Row("visit_hausdorff", hausdorff, tol_hausdorff, hausdorff <= tol_hausdorff,
                chasing.label, seed, N)
        )

    return ExperimentResult(
        strategy_labels=tuple(s.label for s in strategies),
        n_grid=(N,),
        seeds=tuple(seeds),
        rows=tuple(rows),
    )


def run_inequality_grid(
    amb: AmbiguitySet,
    whichs: Sequence[str] = ("kolmogorov_upper", "kolmogorov_lower", "exponential"),
    ns: Sequence[int] = (4, 8, 16),
    xs: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0),
    levy_alphas: Sequence[float] = (0.3, 0.5),
    jobs: int = 1,
) -> ExperimentResult:
    """Exact DP capacities against their closed-form bounds, then Lévy's.

    One row per (which, n, x) in sorted order, with the bound capped at 1,
    followed by one row per (n, x, alpha) of the Lévy maximal check.
    """
    grid = sorted((w, n, x) for w in whichs for n in ns for x in xs)
    rows = [
        Row(rep.context, rep.lhs, rep.displayed_rhs, rep.satisfied, "exact_dp", 0, rep.n)
        for rep in parallel_map(lambda c: check_inequality(amb, *c), grid, jobs)
    ]
    # One threshold sweep per (n, alpha) serves every x.
    levy_xs = sorted(set(xs))
    sweeps = sorted({(n, a) for n in ns for a in levy_alphas}) if xs else []
    levy = {}
    for (n, a), reps in zip(sweeps, parallel_map(
            lambda c: _levy_checks(amb, c[0], levy_xs, c[1]), sweeps, jobs)):
        levy.update(((n, x, a), rep) for x, rep in zip(levy_xs, reps))
    rows.extend(
        Row(rep.context, rep.lhs, rep.rhs, rep.satisfied, "exact_dp", 0, rep.n)
        for rep in (levy[c] for c in sorted((n, x, a) for n in ns for x in xs for a in levy_alphas))
    )
    return ExperimentResult(
        strategy_labels=("exact_dp",),
        n_grid=tuple(ns),
        seeds=(0,),
        rows=tuple(rows),
    )


def _series_terms(amb: AmbiguitySet, p: float, M: float, n: int):
    """V(|X| >= M i^{1/p}) for i = 1..n, one window of i at a time."""
    for a in range(0, n, _WINDOW):
        i = np.arange(a + 1, min(a + _WINDOW, n) + 1, dtype=float)
        yield from _survival_curve(amb, M * i ** (1.0 / p)).tolist()


def run_choquet_series(
    amb: AmbiguitySet, p: float = 1.0, M: float = 1.0, K: int = 100_000
) -> ExperimentResult:
    """Capacity-series verdict for sum_i V(|X| >= M i^{1/p}) and its moment twin.

    The series converges iff the p-th upper Choquet moment is finite, and
    both hold iff the heaviest Pareto tail exponent exceeds p (finite
    support always converges), so the verdict is read from the members.
    S_K is the partial sum of the K terms. The observed increment
    S_K - S_{K/10} is compared with the integral of V(|X| >= M t^{1/p})
    over [K/10, K]; a match within 10% validates the numerics. The verdict,
    S_K and the Choquet moment are informational; the window ratio must
    match when the series converges, and the verdict must agree with
    finiteness of the Choquet moment.

    The terms are computed _WINDOW at a time and fed into one math.fsum per
    sum, which rounds the exact sum of all its terms once, so memory does not
    grow with K and no sum depends on the window size. S_{K/10} regenerates
    its K/10 terms rather than keep them.
    """
    if not (1.0 <= p < 2.0):
        raise ValueError("p must lie in [1, 2)")
    if M <= 0:
        raise ValueError("M must be positive")
    if K < 1000:
        raise ValueError("K must be at least 1000")
    if amb.dim != 1:
        raise ValueError("the series test is one-dimensional")

    partial_sum = math.fsum(_series_terms(amb, p, M, K))
    k10 = K // 10
    increment = partial_sum - math.fsum(_series_terms(amb, p, M, k10))
    # The window integral over [K/10, K], substituting u = M^p t.
    mp = M ** p
    window = _survival_integral(amb, p, mp * k10, mp * K) / mp
    if window > 1e-12:
        ratio_matched = abs(increment - window) <= 0.1 * window
    else:
        ratio_matched = increment <= 1e-9

    convergent = amb.heaviest_alpha() > p  # inf > p for finite support
    choquet_value = choquet_integral(amb, p)
    consistent = convergent == math.isfinite(choquet_value)
    rows = [
        Row("series_convergent", 1.0 if convergent else 0.0, 0.0, None, "series", 0, K),
        Row("series_partial_sum", partial_sum, 0.0, None, "series", 0, K),
        Row("choquet_value", choquet_value, 0.0, None, "series", 0, K),
        Row("series_ratio_matched", 1.0 if ratio_matched else 0.0, 0.1,
            ratio_matched if convergent else None, "series", 0, K),
        Row("equivalence_consistent", 1.0 if consistent else 0.0, 0.0, consistent,
            "series", 0, K),
    ]
    return ExperimentResult(
        strategy_labels=("series",),
        n_grid=(K,),
        seeds=(0,),
        rows=tuple(rows),
    )


def run_axioms(
    amb: AmbiguitySet, trials: int = 1_000, axiom_seed: int = 20240
) -> ExperimentResult:
    """Randomized axiom suite; the model only labels the result.

    One row per property of `axioms._property_gaps` holds its worst gap over
    `trials` random instances and passes at most 1e-12. A NaN gap is kept,
    so its row raises NonFiniteVerdict.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if axiom_seed < 0:
        raise ValueError(f"seed must be at least 0, got {axiom_seed}")
    rng = np.random.default_rng(axiom_seed)
    worst = {}
    for _ in range(trials):
        for name, gap in _property_gaps(rng):
            worst[name] = _raise_worst(worst.get(name, 0.0), gap)
    rows = [
        Row(name, gap, 1e-12, gap <= 1e-12, "random_instances", axiom_seed, trials)
        for name, gap in worst.items()
    ]
    return ExperimentResult(
        strategy_labels=("random_instances",),
        n_grid=(trials,),
        seeds=(axiom_seed,),
        rows=tuple(rows),
    )
