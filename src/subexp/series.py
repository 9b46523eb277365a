"""The three-series theorem and the capacity-series twin of the Choquet moment.

run_three_series reads each series condition for X_n = n^{-q} X from the
closed-form decay exponent of its terms and samples the Cauchy consequence;
run_choquet_series sums V(|X| >= M i^{1/p}) one window of terms at a time
and checks the verdict against finiteness of the p-th Choquet moment.
Every series or moment convergence verdict is read in closed form from the
members (their Pareto tail exponents and means), never from finitely many
terms.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .distributions import AmbiguitySet
from .expectation import _survival_curve, _survival_integral, choquet_integral
from .runner import ExperimentResult, Row
from .sampler import _pure_extremes, _uniform_mix, alternating_schedule
from .windows import _WINDOW, _chain, _per_seed, _windows

__all__ = ["run_choquet_series", "run_three_series"]


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
