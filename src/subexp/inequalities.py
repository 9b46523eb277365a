"""Maximal-inequality bound evaluators and exact-value checkers.

The Kolmogorov, exponential and Lévy maximal inequalities, each as a closed
form and as a checker that pits it against exact lattice DP capacities; the
experiment driver run_inequality_grid sweeps the checkers over a grid. Each
closed-form bound is a theorem for the exact optimal-value capacities, so a
checker row that fails on an exact comparison indicates an implementation
bug, not a near-miss.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .distributions import AmbiguitySet, Event
from .lattice_dp import RunningMax, TerminalSum, _levy_thresholds, dp_value, lattice_model
from .parallel import parallel_map
from .runner import ExperimentResult, Row

__all__ = [
    "exponential_bound",
    "kolmogorov_lower_capacity_bound",
    "kolmogorov_upper_bound",
    "run_inequality_grid",
]

_EXACT_SLACK = 1e-12


def _bound_row(context: str, n: int, lhs: float, rhs: float, tolerance: float) -> Row:
    """The row of an exact capacity lhs over n steps against its bound rhs:
    it passes when lhs <= rhs up to _EXACT_SLACK, and shows tolerance."""
    return Row(context, lhs, tolerance, lhs <= rhs + _EXACT_SLACK, "exact_dp", 0, n)


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


def kolmogorov_lower_capacity_bound(B2: float, x: float) -> float:
    """2 B2 / x^2, B2 = n (upper second moment - mu^2) for n i.i.d. summands
    centered at an attainable mean mu, in dimension 1."""
    if x <= 0:
        raise ValueError("x must be positive")
    if B2 < 0:
        raise ValueError("B2 must be nonnegative")
    return 2.0 * B2 / (x * x)


def _max_increment_term(amb: AmbiguitySet, y: float, n: int) -> float:
    """Upper capacity that some single increment reaches y in n steps.

    The adversary plays the member with the largest per-step hit probability
    every step, so the value is 1 - (1 - p*)^n.
    """
    p_star = max(float(m.prob(Event("ge", y))) for m in amb.members)
    return 1.0 - (1.0 - p_star) ** n


def _inequality_checks(amb: AmbiguitySet, whichs: Sequence[str], n: int, x: float) -> list:
    """Pit exact DP capacities against the closed-form bounds of whichs at one (n, x),
    one row each. A row shows its bound capped at 1, since capacities live
    in [0, 1], and passes or fails on the raw bound.

    kolmogorov_upper / exponential center increments at the upper mean (so
    the centered upper mean is 0) and bound the upper capacity of
    max_m sum Z >= x, which is solved once for both; the exponential bound
    takes y = x. kolmogorov_lower bounds the lower capacity of
    max_m |sum (Z - mu)| >= x with mu the midpoint of the mean interval. A
    set off the lattice, a Pareto member included, raises NonLattice before
    any centering.
    """
    lattice_model(amb)
    rows, upper = [], None
    for which in whichs:
        if which in ("kolmogorov_upper", "exponential"):
            if upper is None:
                m_up = float(np.max(amb.member_means()))
                centered = AmbiguitySet(
                    tuple(m.shifted(-m_up) for m in amb.members), label=f"{amb.label}-centered"
                )
                B2 = n * max(m.second_moment() for m in centered.members)
                upper = dp_value(centered, RunningMax(Event("ge", x)), n, side="upper")
            if which == "kolmogorov_upper":
                rhs = kolmogorov_upper_bound(B2, x)
                ctx = f"kolmogorov_upper model={amb.label} n={n} x={x:g}"
            else:
                rhs = exponential_bound(B2, x, x) + _max_increment_term(centered, x, n)
                ctx = f"exponential model={amb.label} n={n} x={x:g} y={x:g}"
            rows.append(_bound_row(ctx, n, upper, rhs, min(1.0, rhs)))
        elif which == "kolmogorov_lower":
            means = amb.member_means()
            mu = 0.5 * (float(np.min(means)) + float(np.max(means)))
            s2 = max(m.second_moment() for m in amb.members)
            # One product rounds n (s2 - mu^2) as a sum of n equal terms would.
            # Weights that sum to 1 only within 1e-12 can leave s2 just below mu^2.
            rhs = kolmogorov_lower_capacity_bound(n * max(s2 - mu * mu, 0.0), x)
            shifted = AmbiguitySet(
                tuple(m.shifted(-mu) for m in amb.members), label=f"{amb.label}-mu"
            )
            lhs = dp_value(shifted, RunningMax(Event("abs_ge", x)), n, side="lower")
            ctx = f"kolmogorov_lower model={amb.label} n={n} x={x:g} mu={mu:g}"
            rows.append(_bound_row(ctx, n, lhs, rhs, min(1.0, rhs)))
        else:
            raise ValueError(f"unknown inequality {which!r}")
    return rows


def _levy_checks(amb: AmbiguitySet, n: int, xs: Sequence[float], alpha: float) -> list:
    """(1-alpha) V(max_k (|S_k| - b_{n,k}) > x) <= V(|S_n| > x), both exact,
    at every x of xs (at least one), one row each that shows the right side.

    b_{n,k} is the smallest lattice value with V(|S_n - S_k| > b) <= alpha,
    read for every k from one backward threshold sweep, which depends on
    (n, alpha) only; b_{n,n} = 0. On the lattice the epsilon in the
    hypothesis vanishes: strict comparisons already realize the limit
    epsilon -> 0.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    # dp_value rejects n < 1 and an oversized horizon before the sweep.
    rhs = [dp_value(amb, TerminalSum(Event("abs_gt", x).holds), n, side="upper") for x in xs]
    betas = _levy_thresholds(amb, n, alpha)
    rows = []
    for x, r in zip(xs, rhs):
        running = RunningMax(tuple(Event("abs_gt", x + b) for b in betas))
        lhs = (1.0 - alpha) * dp_value(amb, running, n, side="upper")
        ctx = f"levy model={amb.label} n={n} x={x:g} alpha={alpha:g}"
        rows.append(_bound_row(ctx, n, lhs, r, r))
    return rows


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
    # One task per (n, x) checks every inequality there, so kolmogorov_upper
    # and exponential share their capacity.
    kinds = sorted(set(whichs))
    points = sorted({(n, x) for _, n, x in grid})
    checks = {}
    for (n, x), found in zip(points, parallel_map(
            lambda c: _inequality_checks(amb, kinds, *c), points, jobs)):
        checks.update(((w, n, x), row) for w, row in zip(kinds, found))
    rows = [checks[c] for c in grid]
    # One threshold sweep per (n, alpha) serves every x.
    levy_xs = sorted(set(xs))
    sweeps = sorted({(n, a) for n in ns for a in levy_alphas}) if xs else []
    levy = {}
    for (n, a), found in zip(sweeps, parallel_map(
            lambda c: _levy_checks(amb, c[0], levy_xs, c[1]), sweeps, jobs)):
        levy.update(((n, x, a), row) for x, row in zip(levy_xs, found))
    rows.extend(levy[c] for c in sorted((n, x, a) for n in ns for x in xs for a in levy_alphas))
    return ExperimentResult(
        strategy_labels=("exact_dp",),
        n_grid=tuple(ns),
        seeds=(0,),
        rows=tuple(rows),
    )
