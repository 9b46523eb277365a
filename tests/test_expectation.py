"""Exact expectation calculus over finite ambiguity sets.

Upper expectation is the member-wise max, lower the min; capacities and the
Choquet integral are built from the same member family. All values on the
coin model are exact rationals, so equality assertions are strict.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp import (
    AmbiguitySet,
    Event,
    FiniteDiscrete,
    TwoSidedPareto,
    choquet_integral,
    event_upper_capacity,
    lower_expectation,
    mean_interval,
    truncated_expectation,
    upper_expectation,
)
from subexp.axioms import random_ambiguity_set, random_max_affine
from subexp.errors import NotConvergent
from subexp.expectation import _survival_integral


def test_upper_lower_expectation_coin(e1):
    assert upper_expectation(e1, lambda x: x) == 0.5
    assert lower_expectation(e1, lambda x: x) == 0.0
    assert math.copysign(1.0, lower_expectation(e1, lambda x: x)) == 1.0  # +0.0, not -0.0
    assert upper_expectation(e1, lambda x: -x) == 0.0
    assert upper_expectation(e1, lambda x: x * x) == 1.0
    # conjugacy: lower = -upper of the negation
    assert lower_expectation(e1, lambda x: x) == -upper_expectation(e1, lambda x: -x)


def test_upper_expectation_rejects_a_pareto_member(e1):
    mixed = AmbiguitySet(e1.members + (TwoSidedPareto(2.5, 1.0, 0.5),))
    with pytest.raises(ValueError, match="finite members only"):
        upper_expectation(mixed, lambda x: x * x)
    with pytest.raises(ValueError, match="finite members only"):
        lower_expectation(mixed, lambda x: x)


def test_subadditivity_example(e1):
    f = lambda x: x
    g = lambda x: -x
    lhs = upper_expectation(e1, lambda x: f(x) + g(x))
    assert lhs <= upper_expectation(e1, f) + upper_expectation(e1, g)


def test_truncated_expectation_levels(e1):
    assert truncated_expectation(e1, 1.0) == 0.5
    assert truncated_expectation(e1, 5.0) == 0.5  # already saturated
    assert truncated_expectation(e1, 0.5) == 0.25  # atoms clipped to +-0.5
    assert truncated_expectation(e1, 1.0, sign=-1) == 0.0
    with pytest.raises(ValueError):
        truncated_expectation(e1, 0.0)
    with pytest.raises(ValueError):
        truncated_expectation(e1, 1.0, sign=2)


def test_mean_interval_coin(e1):
    assert mean_interval(e1) == (0.0, 0.5)


def test_mean_interval_pareto_symmetric():
    amb = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),), label="p15")
    assert mean_interval(amb) == pytest.approx((0.0, 0.0), abs=1e-9)


def test_mean_interval_is_the_closed_form_pareto_mean():
    # Doubling the truncation level until it settled stopped 0.0156 short here.
    alpha, scale, right = 1.05, 1.0, 0.9
    lower, upper = mean_interval(AmbiguitySet((TwoSidedPareto(alpha, scale, right),)))
    exact = (2.0 * right - 1.0) * (scale * alpha / (alpha - 1.0))
    assert upper == lower == exact == pytest.approx(16.8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mean_interval_is_the_truncation_limit_on_finite_sets(seed):
    # Clipping at the largest |atom| is the identity, so the referee is exact.
    amb = random_ambiguity_set(np.random.default_rng(seed))
    c = max(float(np.max(np.abs(m.values))) for m in amb.members)
    lower, upper = mean_interval(amb)
    assert upper == truncated_expectation(amb, c, +1)
    assert lower == -truncated_expectation(amb, c, -1)


@pytest.mark.parametrize("alpha, right", [(1.05, 0.9), (1.5, 0.75), (3.0, 0.2)])
def test_mean_interval_is_the_truncation_limit_with_a_pareto_member(alpha, right):
    amb = AmbiguitySet((TwoSidedPareto(alpha, 2.0, right),
                        FiniteDiscrete([-1.0, 3.0], [0.5, 0.5])))
    lower, upper = mean_interval(amb)
    for c in (1e2, 1e6, 1e12):
        # Clipping a Pareto member at c misses (2r - 1) E[(|X| - c)+] of its mean.
        # The max over members moves by at most the largest member's miss.
        gap = abs(2.0 * right - 1.0) * 2.0 ** alpha * c ** (1.0 - alpha) / (alpha - 1.0)
        bound = gap * (1.0 + 1e-9) + 1e-12
        assert abs(truncated_expectation(amb, c, +1) - upper) <= bound
        assert abs(-truncated_expectation(amb, c, -1) - lower) <= bound


def test_mean_interval_no_mean_raises():
    amb = AmbiguitySet((TwoSidedPareto(0.9, 1.0, 0.5),), label="p09")
    with pytest.raises(NotConvergent):
        mean_interval(amb)


# ----------------------------------------------------------- capacities


def test_event_capacities_coin(e1):
    assert event_upper_capacity(e1, Event("ge", 1.0)) == 0.75


def test_sandwich_around_indicator(e1):
    # f <= 1_A <= g pointwise forces Ehat[f] <= V(A) <= Ehat[g]
    a = 1.0
    ev = Event("ge", a)
    width = 0.25
    under = lambda x: np.clip((np.asarray(x) - a) / width + 1.0, 0.0, 1.0) * (np.asarray(x) >= a)
    over = lambda x: np.clip((np.asarray(x) - a) / width + 1.0, 0.0, 1.0)
    cap = event_upper_capacity(e1, ev)
    assert upper_expectation(e1, under) <= cap + 1e-12
    assert cap <= upper_expectation(e1, over) + 1e-12


def test_survival_and_excess_helpers(e1):
    assert max(m.abs_survival(1.0) for m in e1.members) == 1.0
    assert max(m.abs_survival(1.5) for m in e1.members) == 0.0


# ------------------------------------------------------- choquet integral


def test_choquet_integral_finite_support(e1):
    assert choquet_integral(e1, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert choquet_integral(e1, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_choquet_integral_pareto_closed_value():
    amb = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),), label="p15")
    # absolute first moment of a two-sided Pareto(3/2): alpha/(alpha-1) = 3
    assert choquet_integral(amb, 1.0) == pytest.approx(3.0, abs=1e-6)


def test_choquet_integral_divergent_is_inf():
    amb = AmbiguitySet((TwoSidedPareto(1.2, 1.0, 0.5),), label="p12")
    assert choquet_integral(amb, 1.5) == math.inf
    heavy = AmbiguitySet((TwoSidedPareto(0.9, 1.0, 0.5),), label="p09")
    assert choquet_integral(heavy, 1.0) == math.inf


def test_choquet_dominates_upper_expectation(e1):
    # C_V(g(X)) >= Ehat[g(X)] since V dominates every member law
    assert choquet_integral(e1, 1.0) >= upper_expectation(e1, lambda x: abs(x)) - 1e-12


def test_choquet_integral_pareto_is_the_truncated_doubling_sum():
    # Pieces [h, 2h] add 2 (h^-1/2 - (2h)^-1/2) to 1 + (tail above 1) until
    # one adds at most 1e-8 of the total: that happens at 2h = 2^50.
    amb = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),))
    assert choquet_integral(amb, 1.0) == 3 - 2**-24


def test_survival_integral_switches_member_where_the_tails_cross():
    # 8 t^-3 (alpha 3, scale 2) leads t^-1.5 (alpha 1.5, scale 1) on (2, 4)
    # and trails it beyond t = 4; both equal 1 below their scales.
    amb = AmbiguitySet((TwoSidedPareto(3.0, 2.0), TwoSidedPareto(1.5, 1.0)))
    # 1 on [1, 2], int_2^4 8 t^-3 = 3/4, int_4^16 t^-1.5 = 1/2.
    assert _survival_integral(amb, 1.0, 1.0, 16.0) == pytest.approx(9 / 4, rel=1e-14)
    # int_3^4 8 t^-3 = 7/36, then 1/2.
    assert _survival_integral(amb, 1.0, 3.0, 16.0) == pytest.approx(25 / 36, rel=1e-14)


@st.composite
def survival_cases(draw):
    """1-3 Pareto members and 0-2 finite ones, a power p in [1, 2) and a < b."""
    members = [
        TwoSidedPareto(draw(st.floats(1.05, 4.0)), draw(st.floats(0.1, 5.0)),
                       draw(st.floats(0.0, 1.0)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        values = draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4, unique=True))
        raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(values),
                                     max_size=len(values))))
        members.append(FiniteDiscrete(values, raw / raw.sum()))
    p = draw(st.floats(1.0, 2.0, exclude_max=True))
    a = draw(st.floats(0.0, 40.0))
    return AmbiguitySet(tuple(members)), p, a, a + draw(st.floats(1e-3, 60.0))


def _quad_survival_integral(amb, p, a, b):
    """Reference: scipy's quad, told every breakpoint and every crossing."""
    from scipy.integrate import quad

    tails = [(m.scale ** p, m.alpha / p) for m in amb.members if isinstance(m, TwoSidedPareto)]
    points = {s for s, _ in tails}
    levels = {1.0}
    for m in amb.members:
        if isinstance(m, FiniteDiscrete):
            points.update((np.abs(m.values) ** p).tolist())
            levels.update(m.abs_survival(x) for x in np.abs(m.values))
    for i, (s1, e1) in enumerate(tails):
        # (s1/t)^e1 meets the level c at t = s1 c^(-1/e1), and (s2/t)^e2 where
        # e1 log(s1/t) = e2 log(s2/t).
        points.update(s1 * c ** (-1.0 / e1) for c in levels)
        points.update(math.exp(min((e1 * math.log(s1) - e2 * math.log(s2)) / (e1 - e2), 700.0))
                      for s2, e2 in tails[i + 1:] if e1 != e2)
    inner = sorted(t for t in points if a < t < b) or None

    def survival(t):
        return max(m.abs_survival(t ** (1.0 / p)) for m in amb.members)

    value, _ = quad(survival, a, b, points=inner, limit=500, epsabs=0.0, epsrel=1e-12)
    return value


@given(survival_cases())
@settings(max_examples=150, deadline=None)
def test_survival_integral_matches_quadrature(case):
    amb, p, a, b = case
    reference = _quad_survival_integral(amb, p, a, b)
    assert _survival_integral(amb, p, a, b) == pytest.approx(reference, rel=1e-10, abs=0.0)


def test_power_abs_validation(e1):
    # the power p of |X|^p must be positive
    for p in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="power must be positive"):
            choquet_integral(e1, p)


# ---------------------------------------------- randomized axiom properties


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_axioms_on_random_sets(seed):
    rng = np.random.default_rng(seed)
    amb = random_ambiguity_set(rng)
    f = random_max_affine(rng)
    g = random_max_affine(rng)

    up_f, up_g = upper_expectation(amb, f), upper_expectation(amb, g)
    # sub-additivity
    assert upper_expectation(amb, lambda x: f(x) + g(x)) <= up_f + up_g + 1e-12
    # positive homogeneity
    lam = float(rng.uniform(0.1, 4.0))
    assert upper_expectation(amb, lambda x: lam * f(x)) == pytest.approx(lam * up_f, rel=1e-12, abs=1e-12)
    # constants pass through
    c = float(rng.uniform(-3, 3))
    assert upper_expectation(amb, lambda x: f(x) + c) == pytest.approx(up_f + c, abs=1e-12)
    # monotonicity against the pointwise max
    h = lambda x: np.maximum(f(x), g(x))
    assert upper_expectation(amb, h) >= max(up_f, up_g) - 1e-12
    # conjugacy
    assert lower_expectation(amb, f) == pytest.approx(-upper_expectation(amb, lambda x: -f(x)), abs=1e-12)
