"""Drivers for the strong and weak laws of large numbers at desk scale.

run_slln, run_marcinkiewicz and run_cluster_set sample adversarial paths
through the window engine (`windows._windows`); run_weak_lln computes exact
escape capacities by the lattice DP, or estimates them from sampled paths in
any dimension. Each reduces its output to named scalar statistics with
tolerances, and returns an ExperimentResult whose rows are reproducible from
(model, strategy, seed) alone.
Numeric policy: running extrema over n >= N/100 stand in for
limsup/liminf (burn-in discard, bias toward the finite-N side).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .distributions import AmbiguitySet, Event
from .expectation import mean_interval
from .lattice_dp import dp_value
from .meanset import build_mean_set, distance_to_mean_set
from .runner import ExperimentResult, Row, _raise_worst
from .sampler import (
    _block_ends,
    _pure_extremes,
    _pure_members,
    _uniform_mix,
    alternating_schedule,
    default_targets,
    oscillation_schedule,
    stationary_for_target,
    target_chasing_schedule,
)
from .windows import _chain, _containment, _keep_at_steps, _per_seed, _tail_slice, _windows


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
    lower, upper = mean_interval(amb)  # raises NotConvergent for heavy-tailed models
    K = max(2, math.ceil(math.log(max(N / 16, 2)) / math.log(16.0)) + 1)
    targets = np.linspace(lower, upper, m_targets)
    # Outputs are found by position: the labels of nearby targets can collide.
    strategies = [*_pure_extremes(amb), oscillation_schedule(amb, K)]
    strategies += [stationary_for_target(amb, float(b)) for b in targets]
    osc = 2  # the oscillation schedule's index

    containment = _containment(amb, tol_outer)

    def fold(seed):
        """Per strategy: last partial sum, oscillation tail extremes, containment row."""
        carry = [None] * len(strategies)
        worst = [-math.inf] * len(strategies)
        run_max, run_min = -math.inf, math.inf
        for j, ns, sums, tail in _windows(amb, strategies, N, seed):
            carry[j] = _chain(sums, carry[j])
            if j == osc:
                means = sums[tail:] / ns[tail:]
                run_max = np.maximum(run_max, means.max(initial=-math.inf))
                run_min = np.minimum(run_min, means.min(initial=math.inf))
            if containment is not None:
                worst[j] = containment.fold(worst[j], ns, sums, tail)
        return [
            (
                carry[j],
                (run_max, run_min) if j == osc else None,
                None if containment is None else containment.row(worst[j], strategy.label, seed, N),
            )
            for j, strategy in enumerate(strategies)
        ]

    reduced = _per_seed(fold, seeds, jobs)
    pure_max, pure_min, oscillation, *per_target = reduced

    rows = []

    for seed, (last, _, _) in zip(seeds, pure_max):
        v = abs(last / N - upper)
        rows.append(Row("endpoint_upper_gap", float(v), tol, v <= tol, "pure_max", seed, N))
    for seed, (last, _, _) in zip(seeds, pure_min):
        v = abs(last / N - lower)
        rows.append(Row("endpoint_lower_gap", float(v), tol, v <= tol, "pure_min", seed, N))

    # Dichotomy witness: distinct stationary extremes separate the limits.
    if upper > lower:
        for seed, pmax, pmin in zip(seeds, pure_max, pure_min):
            gap = float(pmax[0] / N - pmin[0] / N)
            need = 0.5 * (upper - lower)
            rows.append(Row("endpoint_separation", gap, need, gap >= need, "pure", seed, N))

    max_tol = upper - 0.05 if upper > lower else upper  # attainment bands
    min_tol = lower + 0.05 if upper > lower else lower
    for seed, (_, (run_max, run_min), _) in zip(seeds, oscillation):
        rows.append(
            Row("osc_running_max", run_max, max_tol, run_max >= max_tol, "oscillation", seed, N)
        )
        rows.append(
            Row("osc_running_min", run_min, min_tol, run_min <= min_tol, "oscillation", seed, N)
        )

    for b, outs in zip(targets, per_target):
        label = f"target={float(b):g}"
        for seed, (last, _, _) in zip(seeds, outs):
            v = abs(last / N - float(b))
            rows.append(Row(f"target_gap_b={float(b):g}", float(v), tol, v <= tol, label, seed, N))

    rows.extend(row for outs in reduced for _, _, row in outs if row is not None)

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

    The `osc_scaled_sup` row rides alternating blocks that end at
    ceil(k^(2p/(2-p))), which grow so fast that the schedule stops
    oscillating as p rises: at N = 10^6, p = 1.5 gives 10 blocks, 1.7 gives
    4, 1.75 and 1.8 give 3, and from about 1.82 on the two ends are (1, N),
    one max-mean step and then the min-mean member for the rest of the path.
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
    _, upper = mean_interval(amb)

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
        # Block k ends at ceil(k^exponent), past block k-1. A k above
        # N^(1/exponent) puts that end past N, so it is clipped to N
        # without being computed: k^exponent can overflow a float.
        root = N ** (1.0 / exponent)
        ends = _block_ends((math.ceil(k ** exponent) if k <= root else N
                            for k in itertools.count(1)), N)
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
    mc_replicas: int = 200,
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
    its supremum over M. MC mode (any dimension) estimates the escape
    frequency per strategy and per n with a binomial confidence interval,
    from one walk to the largest n per seed 1..mc_replicas (at least 1); only
    the largest n carries a verdict.
    """
    ns = tuple(sorted(ns))
    if ns[0] < 1:
        raise ValueError(f"ns: every n must be at least 1, got {ns[0]}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n_top = ns[-1]
    rows = []

    if mode == "exact":
        if amb.dim != 1:
            raise ValueError("exact mode requires d=1")
        lower, upper = mean_interval(amb)
        caps = []
        for n in ns:
            event = Event("outside_closed", n * (lower - epsilon), n * (upper + epsilon))
            caps.append(dp_value(amb, event.holds, n, side="upper"))
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
        cap_in = dp_value(amb, event_in.holds, n_top, side="upper")
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
            val = dp_value(amb, lambda s, f=phi, n=n_top: f(s / n), n_top, side="upper")
            gap = abs(val - sup_m)
            rows.append(
                Row(name + "_gap", float(gap), _PHI_BANK_THRESHOLD,
                    gap <= _PHI_BANK_THRESHOLD, "exact_dp", 0, n_top)
            )

    elif mode == "mc":
        if mc_replicas < 1:
            raise ValueError(f"mc_replicas: need at least 1 replica, got {mc_replicas}")
        mean_set = build_mean_set(amb, delta=0.05)
        strategies = [*_pure_members(amb), _uniform_mix(amb)]
        seeds = tuple(range(1, mc_replicas + 1))
        grid = np.asarray(ns)

        def hit(seed) -> list[list[float]]:
            """Per strategy and per n of the grid: 1.0 when S_n/n escapes, else 0.0."""
            carry = [None] * len(strategies)
            sums = [[] for _ in strategies]
            for j, steps, x, _ in _windows(amb, strategies, n_top, seed):
                carry[j] = _chain(x, carry[j])
                _keep_at_steps(sums[j], x, steps, grid)
            return [
                [1.0 if d >= epsilon else 0.0 for d in distance_to_mean_set(
                    mean_set, np.concatenate(per).reshape(len(grid), -1) / grid[:, None])]
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
        seeds=(0,) if mode == "exact" else seeds,
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
    A model with a Pareto member has no containment rows, as in run_slln.
    """
    containment = _containment(amb, tol_outer, delta)
    targets, mixtures = default_targets(amb, m_targets)
    chasing = target_chasing_schedule(mixtures, N)
    if targets.ndim == 1:
        targets = targets[:, None]

    strategies = list(_pure_extremes(amb)) if amb.dim == 1 else _pure_members(amb)
    strategies.append(chasing)
    chase = len(strategies) - 1  # outputs are found by position, not label
    ends = np.asarray(chasing.ends)  # visit ends: the last is N

    def fold(seed):
        """Per strategy: containment row and, for the chasing strategy, the sums at the visit ends."""
        carry = [None] * len(strategies)
        worst, visits = [-math.inf] * len(strategies), []
        for j, ns, sums, tail in _windows(amb, strategies, N, seed):
            carry[j] = _chain(sums, carry[j])
            if containment is not None:
                worst[j] = containment.fold(worst[j], ns, sums, tail)
            if j == chase:
                _keep_at_steps(visits, sums, ns, ends)
        return [
            (None if containment is None else containment.row(worst[j], strategy.label, seed, N),
             np.concatenate(visits) if j == chase else None)
            for j, strategy in enumerate(strategies)
        ]

    reduced = _per_seed(fold, seeds, jobs)
    rows = [row for outs in reduced for row, _ in outs if row is not None]

    for seed, (_, sums) in zip(seeds, reduced[chase]):
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
