"""Exact upper/lower expectation calculus over ambiguity sets.

The upper expectation is the maximum of member expectations; it is sublinear
(monotone, constant preserving, sub-additive, positively homogeneous) and the
lower expectation is its conjugate. Event capacities take the member-wise
max of exact probabilities. The upper and lower means come from each
member's closed-form mean; truncated_expectation keeps the truncation
definition they are the limit of. The Choquet integral integrates the upper
survival function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AmbiguitySet, Event, FiniteDiscrete
from .errors import QuadratureNotConverged

__all__ = [
    "MomentReport",
    "choquet_integral",
    "event_upper_capacity",
    "lower_expectation",
    "mean_interval",
    "upper_abs_survival",
    "upper_expectation",
    "truncated_expectation",
]

_DIVERGENCE_CAP = 1e12
_MAX_DOUBLINGS = 200
_QUAD_RTOL = 1e-8


def upper_expectation(amb: AmbiguitySet, f) -> float:
    """Max over members of the member's linear expectation of f.

    Exact weighted sums for finite members; doubling-cutoff quadrature for
    Pareto members (NonIntegrable when f grows at or above the tail exponent).
    """
    return max(m.expectation(f) for m in amb.members)


def lower_expectation(amb: AmbiguitySet, f) -> float:
    """Conjugate value -upper(-f), i.e. the minimum member expectation."""
    return -upper_expectation(amb, lambda x: -f(x))


def event_upper_capacity(amb: AmbiguitySet, event: Event) -> float:
    """Max over members of the exact event probability (dimension 1)."""
    return max(m.prob(event) for m in amb.members)


def upper_abs_survival(amb: AmbiguitySet, x: float) -> float:
    """Upper capacity of {|X| >= x}."""
    return max(m.abs_survival(x) for m in amb.members)


def truncated_expectation(amb: AmbiguitySet, c: float, sign: int = +1) -> float:
    """Upper expectation of the clamp (-c) \\/ (sign*X) /\\ c, exact per member."""
    if not c > 0:
        raise ValueError(f"truncation level must be positive, got {c}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    # (-c) \/ (-X) /\ c = -((-c) \/ X /\ c), so the clamp of -X is -clamp(X).
    return max(sign * m.truncated_mean(c) for m in amb.members)


@dataclass(frozen=True)
class MomentReport:
    """Upper and lower means and the upper second moment of a 1-d model."""

    upper_mean: float
    lower_mean: float
    upper_second: float

    def __post_init__(self) -> None:
        if self.lower_mean > self.upper_mean + 1e-9:
            raise ValueError(
                f"lower mean {self.lower_mean} exceeds upper mean {self.upper_mean}"
            )


def mean_interval(amb: AmbiguitySet) -> MomentReport:
    """The largest and smallest member means and the largest second moment.

    These are the truncation limits lim_c of truncated_expectation for the
    two signs: each member's clamp at c tends to its mean, and a finite
    family takes the max of the limits. A Pareto member with alpha <= 1 has
    no mean and raises NotConvergent; one with alpha <= 2 gives an infinite
    second moment.
    """
    if amb.dim != 1:
        raise ValueError("mean_interval is defined for dimension 1")
    means = amb.member_means()
    return MomentReport(
        upper_mean=float(means.max()),
        lower_mean=float(means.min()),
        upper_second=max(m.second_moment() for m in amb.members),
    )


# ---------------------------------------------------------------------------
# Choquet integral
# ---------------------------------------------------------------------------


def choquet_integral(amb: AmbiguitySet, p: float) -> float:
    """Integral over t >= 0 of the upper capacity of {|X|^p >= t}.

    Finite-support sets give an exact finite sum over the sorted distinct
    values of |x|^p. Pareto tails integrate by adaptive quadrature with a
    doubling upper limit; a tail exponent at or below p gives +inf.
    """
    if amb.dim != 1:
        raise ValueError("choquet_integral is defined for dimension 1")
    if not p > 0:
        raise ValueError(f"power must be positive, got {p}")
    if amb.is_finite_support:
        return _finite_choquet(amb, p)
    if amb.heaviest_alpha() <= p:
        return math.inf
    return _quadrature_choquet(amb, p)


def _finite_choquet(amb: AmbiguitySet, p: float) -> float:
    """Exact piecewise-constant integral for finite-support sets."""
    transformed = [(np.abs(np.atleast_1d(m.values)) ** p, m.weights) for m in amb.members]
    levels = sorted({float(g) for values, _ in transformed for g in values if g > 0})
    total = 0.0
    prev = 0.0
    for level in levels:
        surv = max(
            math.fsum(w[g >= level].tolist()) if (g >= level).any() else 0.0
            for g, w in transformed
        )
        total += (level - prev) * surv
        prev = level
    return total


def _quadrature_choquet(amb: AmbiguitySet, p: float) -> float:
    from scipy.integrate import quad

    def surv(t: float) -> float:
        return 1.0 if t <= 0 else upper_abs_survival(amb, t ** (1.0 / p))

    # Breakpoints where the upper survival can jump or change formula.
    points = {0.0}
    for m in amb.members:
        if isinstance(m, FiniteDiscrete):
            points.update(float(g) for g in np.abs(np.atleast_1d(m.values)) ** p)
        else:
            points.add(float(m.scale ** p))
    points = sorted(t for t in points if t >= 0.0)

    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b > a:
            piece, _ = quad(surv, a, b, limit=200)
            total += piece

    lo = points[-1]
    hi = 2.0 * max(lo, 1.0)
    for _ in range(_MAX_DOUBLINGS):
        piece, _ = quad(surv, lo, hi, limit=200)
        total += piece
        if total > _DIVERGENCE_CAP:
            return math.inf
        if piece <= _QUAD_RTOL * max(total, 1e-300):
            return total
        lo, hi = hi, 2.0 * hi
    raise QuadratureNotConverged(
        f"Choquet tail integral did not stabilize at rtol={_QUAD_RTOL} (last piece {piece!r})"
    )
