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
    MomentReport,
    TwoSidedPareto,
    choquet_integral,
    event_upper_capacity,
    lower_expectation,
    mean_interval,
    truncated_expectation,
    upper_abs_survival,
    upper_expectation,
)
from subexp.axioms import random_ambiguity_set, random_max_affine
from subexp.errors import NotConvergent


def test_upper_lower_expectation_coin(e1):
    assert upper_expectation(e1, lambda x: x) == 0.5
    assert lower_expectation(e1, lambda x: x) == 0.0
    assert upper_expectation(e1, lambda x: -x) == 0.0
    assert upper_expectation(e1, lambda x: x * x) == 1.0
    # conjugacy: lower = -upper of the negation
    assert lower_expectation(e1, lambda x: x) == -upper_expectation(e1, lambda x: -x)


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
    report = mean_interval(e1)
    assert report.upper_mean == 0.5
    assert report.lower_mean == 0.0
    assert report.upper_second == 1.0


def test_mean_interval_pareto_symmetric():
    amb = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),), label="p15")
    report = mean_interval(amb)
    assert report.upper_mean == pytest.approx(0.0, abs=1e-9)
    assert report.lower_mean == pytest.approx(0.0, abs=1e-9)
    assert report.upper_second == math.inf


def test_mean_interval_is_the_closed_form_pareto_mean():
    # Doubling the truncation level until it settled stopped 0.0156 short here.
    alpha, scale, right = 1.05, 1.0, 0.9
    report = mean_interval(AmbiguitySet((TwoSidedPareto(alpha, scale, right),)))
    exact = (2.0 * right - 1.0) * (scale * alpha / (alpha - 1.0))
    assert report.upper_mean == report.lower_mean == exact == pytest.approx(16.8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mean_interval_is_the_truncation_limit_on_finite_sets(seed):
    # Clipping at the support radius is the identity, so the referee is exact.
    amb = random_ambiguity_set(np.random.default_rng(seed))
    c = amb.support_radius()
    report = mean_interval(amb)
    assert report.upper_mean == truncated_expectation(amb, c, +1)
    assert report.lower_mean == -truncated_expectation(amb, c, -1)


@pytest.mark.parametrize("alpha, right", [(1.05, 0.9), (1.5, 0.75), (3.0, 0.2)])
def test_mean_interval_is_the_truncation_limit_with_a_pareto_member(alpha, right):
    amb = AmbiguitySet((TwoSidedPareto(alpha, 2.0, right),
                        FiniteDiscrete.from_arrays([-1.0, 3.0], [0.5, 0.5])))
    report = mean_interval(amb)
    for c in (1e2, 1e6, 1e12):
        # Clipping a Pareto member at c misses (2r - 1) E[(|X| - c)+] of its mean.
        # The max over members moves by at most the largest member's miss.
        gap = abs(2.0 * right - 1.0) * 2.0 ** alpha * c ** (1.0 - alpha) / (alpha - 1.0)
        bound = gap * (1.0 + 1e-9) + 1e-12
        assert abs(truncated_expectation(amb, c, +1) - report.upper_mean) <= bound
        assert abs(-truncated_expectation(amb, c, -1) - report.lower_mean) <= bound


def test_mean_interval_no_mean_raises():
    amb = AmbiguitySet((TwoSidedPareto(0.9, 1.0, 0.5),), label="p09")
    with pytest.raises(NotConvergent):
        mean_interval(amb)


def test_moment_report_rejects_crossed_means():
    with pytest.raises(ValueError):
        MomentReport(upper_mean=0.0, lower_mean=1.0, upper_second=1.0)


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
    assert upper_expectation(e1, lambda x: float(under(x))) <= cap + 1e-12
    assert cap <= upper_expectation(e1, lambda x: float(over(x))) + 1e-12


def test_survival_and_excess_helpers(e1):
    assert upper_abs_survival(e1, 1.0) == 1.0
    assert upper_abs_survival(e1, 1.5) == 0.0


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
    f = random_max_affine(rng, amb.dim)
    g = random_max_affine(rng, amb.dim)

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
    h = lambda x: max(f(x), g(x))
    assert upper_expectation(amb, h) >= max(up_f, up_g) - 1e-12
    # conjugacy
    assert lower_expectation(amb, f) == pytest.approx(-upper_expectation(amb, lambda x: -f(x)), abs=1e-12)
