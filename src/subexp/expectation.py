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
from typing import Callable

import numpy as np

from .distributions import AmbiguitySet, Event, FiniteDiscrete, TwoSidedPareto
from .errors import QuadratureNotConverged

__all__ = [
    "MomentReport",
    "PowerAbs",
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


@dataclass(frozen=True)
class PowerAbs:
    """Transform g(x) = |x|^p."""

    p: float

    def __post_init__(self) -> None:
        if not self.p > 0:
            raise ValueError(f"power must be positive, got {self.p}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x) ** self.p

    def survival(self, member, t: float) -> float:
        """P(|X|^p >= t)."""
        if t <= 0:
            return 1.0
        return member.abs_survival(t ** (1.0 / self.p))

    def diverges_for(self, member: TwoSidedPareto) -> bool:
        return self.p >= member.alpha


def _upper_transform_survival(amb: AmbiguitySet, transform, t: float) -> float:
    return max(transform.survival(m, t) for m in amb.members)


def choquet_integral(amb: AmbiguitySet, transform, rtol: float = 1e-8) -> float:
    """Integral over t >= 0 of the upper capacity of {g(X) >= t}.

    transform is PowerAbs or (for finite-support sets only) a plain
    nonnegative callable, in which case the integral is an exact finite
    sum over the sorted distinct transform values. Pareto tails integrate by
    adaptive quadrature with a doubling upper limit; a tail exponent at or
    below the transform growth gives +inf.
    """
    if amb.dim != 1:
        raise ValueError("choquet_integral is defined for dimension 1")

    if not isinstance(transform, PowerAbs):
        if not amb.is_finite_support:
            raise ValueError(
                "general callable transforms are supported for finite-support sets only"
            )
        return _finite_choquet(amb, lambda v: np.asarray([float(transform(x)) for x in v]))

    if amb.is_finite_support:
        return _finite_choquet(amb, transform.apply)

    for m in amb.members:
        if isinstance(m, TwoSidedPareto) and transform.diverges_for(m):
            return math.inf
    return _quadrature_choquet(amb, transform, rtol)


def _finite_choquet(amb: AmbiguitySet, apply: Callable) -> float:
    """Exact piecewise-constant integral for finite-support sets."""
    levels = sorted({
        float(g)
        for m in amb.members
        for g in apply(np.atleast_1d(m.values))
        if g > 0
    })
    if not levels:
        return 0.0

    transformed = [
        (np.asarray(apply(np.atleast_1d(m.values)), dtype=float), m.weights)
        for m in amb.members
    ]
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


def _quadrature_choquet(amb: AmbiguitySet, transform, rtol: float) -> float:
    from scipy.integrate import quad

    def surv(t: float) -> float:
        return _upper_transform_survival(amb, transform, t)

    # Breakpoints where the upper survival can jump or change formula.
    points = {0.0}
    for m in amb.members:
        if isinstance(m, FiniteDiscrete):
            points.update(float(g) for g in transform.apply(np.atleast_1d(m.values)))
        else:
            points.add(float(m.scale ** transform.p))
    points = sorted(p for p in points if p >= 0.0)

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
        if piece <= rtol * max(total, 1e-300):
            return total
        lo, hi = hi, 2.0 * hi
    raise QuadratureNotConverged(
        f"Choquet tail integral did not stabilize at rtol={rtol} (last piece {piece!r})"
    )
