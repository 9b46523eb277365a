"""Maximal-inequality bound evaluators and exact-value checkers.

Each closed-form bound is a theorem for the exact optimal-value capacities
computed by the lattice DP, so a checker that reports satisfied=False on an
exact comparison indicates an implementation bug, not a near-miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import AmbiguitySet, Event, TwoSidedPareto
from .errors import MuNotAttainable
from .expectation import _survival_integral, choquet_integral
from .lattice_dp import RunningMax, TerminalEvent, dp_value, lattice_model
from .parallel import parallel_map

__all__ = [
    "BoundReport",
    "SeriesReport",
    "check_inequality",
    "choquet_series_test",
    "exponential_bound",
    "inequality_grid",
    "kolmogorov_lower_capacity_bound",
    "kolmogorov_upper_bound",
    "levy_bound_check",
]

_EXACT_SLACK = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Exact capacity vs closed-form bound.

    rhs stores the raw bound even when it exceeds 1; displayed_rhs caps it at
    1 since capacities live in [0, 1]. n is the number of steps the capacity
    is taken over.
    """

    lhs: float
    rhs: float
    context: str
    n: int = 0
    satisfied: bool = field(init=False)

    def __post_init__(self) -> None:
        ok = self.lhs <= self.rhs + _EXACT_SLACK
        object.__setattr__(self, "satisfied", bool(ok))

    @property
    def displayed_rhs(self) -> float:
        return min(1.0, self.rhs)


def kolmogorov_upper_bound(B2: float, x: float) -> float:
    """(e+1) * B2 / x^2, the y=x specialization of the exponential bound."""
    if x <= 0:
        raise ValueError("x must be positive")
    if B2 < 0:
        raise ValueError("B2 must be nonnegative")
    return (math.e + 1.0) * B2 / (x * x)


def exponential_bound(B2: float, x: float, y: float) -> float:
    """exp{x/y - (x/y)(B2/(xy) + 1) ln(1 + xy/B2)}.

    This is only the exponential term; the full bound adds the capacity of a
    single increment reaching y. B2 = 0 forces the sums nonpositive, so the
    deviation term is 0.
    """
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    if B2 < 0:
        raise ValueError("B2 must be nonnegative")
    if B2 == 0.0:
        return 0.0
    r = x / y
    exponent = r - r * (B2 / (x * y) + 1.0) * math.log1p(x * y / B2)
    return math.exp(exponent)


def kolmogorov_lower_capacity_bound(
    second_moments: Sequence[float],
    mus: Sequence[float],
    x: float,
    amb: AmbiguitySet | None = None,
) -> float:
    """2 x^{-2} sum_k (upper second moment_k - mu_k^2), in dimension 1.

    mus must be attainable means; when the generating set is supplied each
    mu is checked against its member-mean interval and an unattainable one
    raises MuNotAttainable.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if len(second_moments) != len(mus):
        raise ValueError("one mu per summand required")
    if amb is not None:
        if amb.dim != 1:
            raise ValueError("kolmogorov_lower_capacity_bound is defined for dimension 1")
        means = amb.member_means()
        lo, hi = float(means.min()), float(means.max())
        for mu in mus:
            if not (lo - 1e-12 <= float(mu) <= hi + 1e-12):
                raise MuNotAttainable(f"mu={mu} outside [{lo}, {hi}]")
    total = math.fsum(float(s2) - float(mu) * float(mu) for s2, mu in zip(second_moments, mus))
    if total < -1e-9:
        raise ValueError("second moments below mu^2; inputs inconsistent")
    return 2.0 * max(total, 0.0) / (x * x)


def _centered(amb: AmbiguitySet) -> tuple[AmbiguitySet, float, float]:
    """Shift members by the upper mean; returns (set, upper mean, B2 per step)."""
    m_up = float(np.max(amb.member_means()))
    shifted = AmbiguitySet(
        tuple(m.shifted(-m_up) for m in amb.members), label=f"{amb.label}-centered"
    )
    b2_step = max(m.second_moment() for m in shifted.members)
    return shifted, m_up, b2_step


def _max_increment_term(amb: AmbiguitySet, y: float, n: int) -> float:
    """Upper capacity that some single increment reaches y in n steps.

    The adversary plays the member with the largest per-step hit probability
    every step, so the value is 1 - (1 - p*)^n.
    """
    p_star = max(float(m.prob(Event("ge", y))) for m in amb.members)
    return 1.0 - (1.0 - p_star) ** n


def check_inequality(amb: AmbiguitySet, which: str, n: int, x: float) -> BoundReport:
    """Pit an exact DP capacity against the matching closed-form bound.

    kolmogorov_upper / exponential center increments at the upper mean (so
    the centered upper mean is 0) and bound the upper capacity of
    max_m sum Z >= x; the exponential bound takes y = x. kolmogorov_lower
    bounds the lower capacity of max_m |sum (Z - mu)| >= x with mu the
    midpoint of the mean interval.
    """
    if which in ("kolmogorov_upper", "exponential"):
        centered, m_up, b2_step = _centered(amb)
        B2 = n * b2_step
        lhs = dp_value(centered, RunningMax(x, mode="pos"), n, side="upper")
        if which == "kolmogorov_upper":
            rhs = kolmogorov_upper_bound(B2, x)
            ctx = f"kolmogorov_upper model={amb.label} n={n} x={x:g}"
        else:
            rhs = exponential_bound(B2, x, x) + _max_increment_term(centered, x, n)
            ctx = f"exponential model={amb.label} n={n} x={x:g} y={x:g}"
        return BoundReport(lhs=lhs, rhs=rhs, context=ctx, n=n)

    if which == "kolmogorov_lower":
        means = amb.member_means()
        mu = 0.5 * (float(np.min(means)) + float(np.max(means)))
        s2 = max(m.second_moment() for m in amb.members)
        rhs = kolmogorov_lower_capacity_bound([s2] * n, [mu] * n, x, amb=amb)
        shifted = AmbiguitySet(
            tuple(m.shifted(-mu) for m in amb.members), label=f"{amb.label}-mu"
        )
        lhs = dp_value(shifted, RunningMax(x, mode="abs"), n, side="lower")
        ctx = f"kolmogorov_lower model={amb.label} n={n} x={x:g} mu={mu:g}"
        return BoundReport(lhs=lhs, rhs=rhs, context=ctx, n=n)

    raise ValueError(f"unknown inequality {which!r}")


def _beta_for_suffix(amb: AmbiguitySet, length: int, alpha: float, pitch: float, amax_abs: float) -> float:
    """Smallest lattice multiple b with V(|T| > b) <= alpha, T a length-step sum."""
    if length == 0:
        return 0.0
    lo, hi = 0, int(math.ceil(length * amax_abs / pitch)) + 1
    # V(|T| > m*pitch) is nonincreasing in m and 0 at hi.
    while lo < hi:
        mid = (lo + hi) // 2
        cap = dp_value(amb, TerminalEvent(Event("abs_gt", mid * pitch)), length, "upper")
        if cap <= alpha:
            hi = mid
        else:
            lo = mid + 1
    return lo * pitch


def levy_bound_check(amb: AmbiguitySet, n: int, x: float, alpha: float) -> BoundReport:
    """(1-alpha) V(max_k (|S_k| - b_{n,k}) > x) <= V(|S_n| > x), both exact.

    b_{n,k} is the smallest lattice value with V(|S_n - S_k| > b) <= alpha,
    found by integer bisection on suffix DPs; b_{n,n} = 0. On the lattice the
    epsilon in the hypothesis vanishes: strict comparisons already realize
    the limit epsilon -> 0.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    model = lattice_model(amb)
    amax_abs = max(abs(model.amin), abs(model.amax)) * model.pitch
    betas = [
        _beta_for_suffix(amb, n - k, alpha, model.pitch, amax_abs) for k in range(1, n + 1)
    ]
    running = RunningMax(tuple(x + b for b in betas), mode="abs", strict=True)
    lhs = (1.0 - alpha) * dp_value(amb, running, n, side="upper")
    rhs = dp_value(amb, TerminalEvent(Event("abs_gt", x)), n, side="upper")
    ctx = f"levy model={amb.label} n={n} x={x:g} alpha={alpha:g}"
    return BoundReport(lhs=lhs, rhs=rhs, context=ctx, n=n)


def inequality_grid(
    amb: AmbiguitySet,
    whichs: Sequence[str],
    ns: Sequence[int],
    xs: Sequence[float],
    jobs: int = 1,
) -> list[BoundReport]:
    """Evaluate every (which, n, x) combination, in sorted (which, n, x) order."""
    combos = sorted((w, n, x) for w in whichs for n in ns for x in xs)
    return parallel_map(lambda c: check_inequality(amb, *c), combos, jobs)


def _survival_curve(amb: AmbiguitySet, ts: np.ndarray) -> np.ndarray:
    """max over members of P(|X| >= t), vectorized over thresholds."""
    out = np.zeros_like(ts)
    for m in amb.members:
        if isinstance(m, TwoSidedPareto):
            vals = np.where(
                ts <= m.scale, 1.0, (m.scale / np.maximum(ts, m.scale)) ** m.alpha
            )
        else:
            av = np.abs(np.asarray(m.values, dtype=float).ravel())
            order = np.argsort(av)
            sorted_av = av[order]
            w = np.asarray(m.weights, dtype=float)[order]
            suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
            vals = suffix[np.searchsorted(sorted_av, ts, side="left")]
        out = np.maximum(out, vals)
    return out


@dataclass(frozen=True)
class SeriesReport:
    """Partial-sum evidence for a capacity series and its Choquet moment."""

    verdict: str  # "convergent" or "divergent"
    partial_sum: float
    ratio_matched: bool
    choquet_value: float
    consistent: bool


def choquet_series_test(
    dist, p: float, M: float = 1.0, K: int = 100_000
) -> SeriesReport:
    """Convergence test for sum_i V(|X| >= M i^{1/p}).

    The series converges iff the p-power upper Choquet moment is finite, so
    the verdict comes from the tail integral int_{K/10}^inf V(|X| >= M t^{1/p}) dt:
    infinite tail means divergent. The observed increment S_K - S_{K/10} is
    compared with the same integral over [K/10, K]; a match within 10%
    validates the numerics.
    """
    if not (1.0 <= p < 2.0):
        raise ValueError("p must lie in [1, 2)")
    if M <= 0:
        raise ValueError("M must be positive")
    if K < 1000:
        raise ValueError("K must be at least 1000")
    amb = dist if isinstance(dist, AmbiguitySet) else AmbiguitySet((dist,))
    if amb.dim != 1:
        raise ValueError("the series test is one-dimensional")

    idx = np.arange(1, K + 1, dtype=float)
    thresholds = M * idx ** (1.0 / p)
    terms = _survival_curve(amb, thresholds)
    s_full = float(math.fsum(terms))
    k10 = K // 10
    s_head = float(math.fsum(terms[:k10]))
    increment = s_full - s_head

    # int V(|X| >= M t^{1/p}) dt over [K/10, K], substituting u = M^p t.
    mp = M ** p
    window = _survival_integral(amb, p, mp * k10, mp * K) / mp

    # Tail finiteness: survival at M t^{1/p} decays like t^{-alpha/p} for a
    # heaviest Pareto member with exponent alpha, so the tail integral is
    # finite iff alpha > p; finite-support members contribute nothing beyond
    # a finite index.
    tail_finite = amb.heaviest_alpha() > p  # inf > p for finite support

    if window > 1e-12:
        ratio_matched = abs(increment - window) <= 0.1 * window
    else:
        ratio_matched = increment <= 1e-9

    verdict = "convergent" if tail_finite else "divergent"
    choquet_value = choquet_integral(amb, p)
    consistent = (verdict == "convergent") == math.isfinite(choquet_value)

    return SeriesReport(
        verdict=verdict,
        partial_sum=s_full,
        ratio_matched=bool(ratio_matched),
        choquet_value=choquet_value,
        consistent=bool(consistent),
    )
