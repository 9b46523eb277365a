"""Exact upper/lower expectation calculus over ambiguity sets.

The upper expectation of a test function is the maximum of the finite
members' exact weighted sums; it is sublinear (monotone, constant preserving,
sub-additive, positively homogeneous) and the lower expectation is its
conjugate. A test function maps a member's atom array to one value per atom.
Event capacities take the member-wise max of exact probabilities.
The upper and lower means come from each member's closed-form mean;
truncated_expectation keeps the truncation definition they are the limit of.
This module also owns the upper survival function V(|X| >= t): evaluated on
a grid of thresholds and integrated in closed form, piece by piece, since
between breakpoints it is the upper envelope of a constant and Pareto power
laws. The Choquet integral is that integral. No numerical integrator runs
here.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import AmbiguitySet, Event, FiniteDiscrete
from .errors import QuadratureNotConverged

__all__ = [
    "choquet_integral",
    "event_upper_capacity",
    "lower_expectation",
    "mean_interval",
    "upper_expectation",
    "truncated_expectation",
]

_DIVERGENCE_CAP = 1e12
_MAX_DOUBLINGS = 200
_TAIL_RTOL = 1e-8


def upper_expectation(amb: AmbiguitySet, f) -> float:
    """Max over members of the exact weighted sum of f over the member's atoms.

    Finite members only: a set with a Pareto member raises ValueError. Such a
    set's means, truncated moments and Choquet moments come from closed forms
    instead (mean_interval, truncated_expectation, choquet_integral).
    """
    if not amb.is_finite_support:
        raise ValueError("upper_expectation takes finite members only, not Pareto ones")
    return max(m.expectation(f) for m in amb.members)


def lower_expectation(amb: AmbiguitySet, f) -> float:
    """Conjugate value -upper(-f), i.e. the minimum member expectation.
    Formed as 0.0 - upper(-f), so a zero value is +0.0, not -0.0."""
    return 0.0 - upper_expectation(amb, lambda x: -f(x))


def event_upper_capacity(amb: AmbiguitySet, event: Event) -> float:
    """Max over members of the exact event probability (dimension 1)."""
    return max(m.prob(event) for m in amb.members)


def truncated_expectation(amb: AmbiguitySet, c: float, sign: int = +1) -> float:
    """Upper expectation of the clamp (-c) \\/ (sign*X) /\\ c, exact per member."""
    if not c > 0:
        raise ValueError(f"truncation level must be positive, got {c}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    # (-c) \/ (-X) /\ c = -((-c) \/ X /\ c), so the clamp of -X is -clamp(X).
    return max(sign * m.truncated_mean(c) for m in amb.members)


def mean_interval(amb: AmbiguitySet) -> tuple[float, float]:
    """(lower, upper): the smallest and largest member means.

    These are the truncation limits lim_c of truncated_expectation for the
    two signs: each member's clamp at c tends to its mean, and a finite
    family takes the max of the limits. A Pareto member with alpha <= 1 has
    no mean and raises NotConvergent.
    """
    if amb.dim != 1:
        raise ValueError("mean_interval is defined for dimension 1")
    means = amb.member_means()
    return float(means.min()), float(means.max())


# ---------------------------------------------------------------------------
# Choquet integral
# ---------------------------------------------------------------------------


def choquet_integral(amb: AmbiguitySet, p: float) -> float:
    """Integral over t >= 0 of the upper capacity of {|X|^p >= t}.

    Up to the last breakpoint (the largest |x|^p of a finite member or s^p of
    a Pareto scale) the integral is an exact sum of closed-form pieces, and
    finite-support sets stop there. With Pareto members the tail then runs
    over doubling intervals [h, 2h], each integrated exactly, until an
    interval adds at most 1e-8 of the total: the result is that truncated
    sum, not the untruncated tail. A total past 1e12 gives +inf, as does a
    tail exponent at or below p; 200 doublings without settling raise
    QuadratureNotConverged.
    """
    if amb.dim != 1:
        raise ValueError("choquet_integral is defined for dimension 1")
    if not p > 0:
        raise ValueError(f"power must be positive, got {p}")
    if not amb.is_finite_support and amb.heaviest_alpha() <= p:
        return math.inf
    top = max(
        float(np.max(np.abs(np.atleast_1d(m.values)) ** p))
        if isinstance(m, FiniteDiscrete)
        else float(m.scale ** p)
        for m in amb.members
    )
    total = _survival_integral(amb, p, 0.0, top)
    if amb.is_finite_support:
        return total

    lo = top
    hi = 2.0 * max(lo, 1.0)
    for _ in range(_MAX_DOUBLINGS):
        piece = _survival_integral(amb, p, lo, hi)
        total += piece
        if total > _DIVERGENCE_CAP:
            return math.inf
        if piece <= _TAIL_RTOL * max(total, 1e-300):
            return total
        lo, hi = hi, 2.0 * hi
    raise QuadratureNotConverged(
        f"Choquet tail did not settle in {_MAX_DOUBLINGS} doublings: the last "
        f"piece {piece!r} still exceeds {_TAIL_RTOL} of the total"
    )


def _survival_curve(amb: AmbiguitySet, ts: np.ndarray) -> np.ndarray:
    """Upper survival V(|X| >= t), the max over members of P(|X| >= t), at each t."""
    out = np.zeros_like(ts)
    for m in amb.members:
        if isinstance(m, FiniteDiscrete):
            av = np.abs(np.asarray(m.values, dtype=float).ravel())
            order = np.argsort(av)
            sorted_av = av[order]
            w = np.asarray(m.weights, dtype=float)[order]
            suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
            vals = suffix[np.searchsorted(sorted_av, ts, side="left")]
        else:
            vals = np.where(
                ts <= m.scale, 1.0, (m.scale / np.maximum(ts, m.scale)) ** m.alpha
            )
        out = np.maximum(out, vals)
    return out


def _survival_integral(amb: AmbiguitySet, p: float, a: float, b: float) -> float:
    """Integral over [a, b] (0 <= a <= b) of the upper survival V(|X|^p >= t) dt.

    Between the breakpoints |x|^p of finite members and s^p of Pareto members
    every member's survival is a constant or, for a Pareto member past its
    scale, the power law (s^p/t)^(alpha/p). The upper survival is then the
    upper envelope of one constant and some power laws; each stretch between
    two branch crossings integrates its winning branch in closed form.
    """
    finite, pareto = [], []
    cuts = {a, b}
    for m in amb.members:
        if isinstance(m, FiniteDiscrete):
            g = np.abs(np.atleast_1d(m.values)) ** p
            finite.append((g, m.weights))
            cuts.update(float(x) for x in g)
        else:
            pareto.append((float(m.scale ** p), m.alpha / p))
            cuts.add(pareto[-1][0])
    cuts = sorted(t for t in cuts if a <= t <= b)

    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        # No breakpoint lies in (lo, hi): a finite member keeps its value at hi.
        const = max((math.fsum(w[g > lo].tolist()) for g, w in finite), default=0.0)
        powers = []
        for s, e in pareto:
            if hi <= s:
                const = 1.0
            else:
                powers.append((s, e))
        total += _envelope_integral(const, powers, lo, hi)
    return total


def _envelope_integral(const: float, powers: list, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of max(const, max over (s, e) of (s/t)^e), s <= lo."""
    if not powers:
        return const * (hi - lo)
    # Crossings in log t: e1 log(s1/t) = e2 log(s2/t), or e log(s/t) = log const.
    branches = [(math.log(const), 0.0)] if const > 0 else []
    branches += [(e * math.log(s), e) for s, e in powers]
    cuts = {lo, hi}
    log_lo, log_hi = math.log(lo), math.log(hi)
    for i, (k1, e1) in enumerate(branches):
        for k2, e2 in branches[i + 1:]:
            if e1 != e2:
                log_t = (k1 - k2) / (e1 - e2)
                if log_lo < log_t < log_hi:
                    cuts.add(math.exp(log_t))
    cuts = sorted(cuts)

    total = 0.0
    for u, v in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (u + v)
        s, e = max(powers, key=lambda b: (b[0] / mid) ** b[1])
        if const >= (s / mid) ** e:
            total += const * (v - u)
        elif e == 1.0:
            total += s * math.log(v / u)
        else:
            # s (s/u)^(e-1) ((v/u)^(1-e) - 1) / (1-e): no overflow (s <= u)
            # and no cancellation when e is near 1.
            total += s * (s / u) ** (e - 1.0) * math.expm1((1.0 - e) * math.log(v / u)) / (1.0 - e)
    return total
