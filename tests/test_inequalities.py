"""Maximal-inequality checkers: closed-form bounds vs exact DP capacities.

Bound values here were computed once by direct evaluation of the closed
forms and pinned; the DP sides were frozen from the first exact run and
guard against regressions in either the bound or the optimizer. The grid
and capacity-series tests read the rows of the experiment drivers
run_inequality_grid and run_choquet_series.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import subexp.inequalities
from conftest import make_e1, random_lattice_instance
from subexp import (
    AmbiguitySet,
    Event,
    FiniteDiscrete,
    TerminalSum,
    TwoSidedPareto,
    dp_value,
    exponential_bound,
    kolmogorov_lower_capacity_bound,
    kolmogorov_upper_bound,
    lattice_model,
    run_choquet_series,
    run_inequality_grid,
)
from subexp.errors import NonLattice
from subexp.inequalities import _inequality_checks, _levy_checks
from subexp.lattice_dp import _levy_thresholds


# ----------------------------------------------------------- closed forms


def test_kolmogorov_upper_bound_values():
    assert kolmogorov_upper_bound(100.0, 50.0) == pytest.approx((math.e + 1.0) * 0.04, abs=1e-15)
    assert kolmogorov_upper_bound(100.0, 50.0) == pytest.approx(0.1487312731383618, abs=1e-15)
    assert kolmogorov_upper_bound(0.0, 2.0) == 0.0
    xs = [1.0, 2.0, 4.0, 8.0]
    vals = [kolmogorov_upper_bound(1.0, x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_exponential_bound_values():
    # exp{4 - 4*(1/4 + 1)*ln 5} = e^4 / 5^5
    assert exponential_bound(1.0, 4.0, 1.0) == pytest.approx(math.exp(4.0) / 5.0 ** 5, rel=1e-12)
    assert exponential_bound(1.0, 4.0, 1.0) == pytest.approx(0.01747140801060616, rel=1e-12)
    assert exponential_bound(0.0, 1.0, 1.0) == 0.0
    # x -> 0: no deviation demanded, bound goes vacuous
    assert exponential_bound(1.0, 1e-12, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_exponential_bound_y_equals_x_dominated_by_kolmogorov():
    for b2 in (0.5, 1.0, 4.0, 20.0):
        for x in (1.0, 2.0, 5.0):
            assert exponential_bound(b2, x, x) <= kolmogorov_upper_bound(b2, x) + 1e-12


def test_kolmogorov_lower_bound_arithmetic():
    # 2 * (1/4) * 4 * (1 - 0.0625) = 1.875
    assert kolmogorov_lower_capacity_bound(4 * (1.0 - 0.25 * 0.25), 2.0) == 1.875
    # boundary case: single summand with x^2 = 2*(E[Z^2] - mu^2)
    assert kolmogorov_lower_capacity_bound(1.0, math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-15)
    assert kolmogorov_lower_capacity_bound(4.0, 100.0) == pytest.approx(8.0 / 100.0 ** 2, rel=1e-12)


@given(st.floats(0.0, 1e100), st.integers(1, 4096))
def test_n_times_one_term_rounds_as_the_sum_of_n_equal_terms(t, n):
    # The grid forms B2 = n (s2 - mu^2) by one product, which rounds as the
    # sum of n equal terms does.
    assert n * t == math.fsum([t] * n)


def test_kolmogorov_lower_bound_validation():
    with pytest.raises(ValueError, match="x must be positive"):
        kolmogorov_lower_capacity_bound(1.0, 0.0)
    with pytest.raises(ValueError, match="B2 must be nonnegative"):
        kolmogorov_lower_capacity_bound(-1.0, 1.0)


# ------------------------------------------------------- checker reports


def test_check_kolmogorov_upper_frozen(e1):
    row = _inequality_checks(e1, ["kolmogorov_upper"], 16, 6.0)[0]
    assert row.value == pytest.approx(0.07176673505455256, abs=1e-14)
    # centered at the upper mean 0.5 the square moment is 1.25, so B^2 = 20;
    # the raw bound 2.07 is shown capped at 1
    assert kolmogorov_upper_bound(20.0, 6.0) == pytest.approx((math.e + 1.0) * 20.0 / 36.0,
                                                              rel=1e-12)
    assert row.passed
    assert row.tolerance == 1.0
    assert (row.strategy, row.seed, row.n) == ("exact_dp", 0, 16)


def test_check_exponential_frozen(e1):
    row = _inequality_checks(e1, ["exponential"], 16, 6.0)[0]
    assert row.value == pytest.approx(0.07176673505455256, abs=1e-14)
    # The bound is below 1, so the row shows it as it is.
    assert row.tolerance == pytest.approx(0.5479176897486613, rel=1e-10)
    assert row.passed
    assert row.statistic == "exponential model=E1 n=16 x=6 y=6"  # y is x


def test_check_kolmogorov_lower_frozen(e1):
    row = _inequality_checks(e1, ["kolmogorov_lower"], 8, 3.0)[0]
    assert row.value == pytest.approx(0.24560546875, abs=1e-15)
    # B2 = 8 (1 - 0.25^2) = 7.5 around the midpoint, so the raw bound is 5/3
    assert kolmogorov_lower_capacity_bound(7.5, 3.0) == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert row.tolerance == 1.0
    assert row.passed
    assert row.statistic == "kolmogorov_lower model=E1 n=8 x=3 mu=0.25"  # the midpoint


def test_check_inequality_unknown_kind(e1):
    with pytest.raises(ValueError):
        _inequality_checks(e1, ["chebyshev"], 4, 1.0)
    # A Pareto member has no lattice, so no exact capacity to check.
    pareto = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),))
    with pytest.raises(NonLattice):
        _inequality_checks(pareto, ["kolmogorov_upper"], 4, 1.0)


@pytest.mark.parametrize("below, passed", [(5e-13, True), (2e-12, False)])
def test_bound_rows_pass_within_the_exact_slack(monkeypatch, e1, below, passed):
    # A capacity may exceed its bound by 1e-12 of accumulation error, no more.
    capacity = _inequality_checks(e1, ["kolmogorov_upper"], 8, 3.0)[0].value
    monkeypatch.setattr(subexp.inequalities, "kolmogorov_upper_bound",
                        lambda B2, x: capacity - below)
    row = _inequality_checks(e1, ["kolmogorov_upper"], 8, 3.0)[0]
    assert row.value == capacity
    assert row.tolerance == capacity - below
    assert row.passed is passed


def test_a_closed_form_row_shows_its_bound_capped_at_one(monkeypatch, e1):
    monkeypatch.setattr(subexp.inequalities, "kolmogorov_upper_bound", lambda B2, x: 3.0)
    row = _inequality_checks(e1, ["kolmogorov_upper"], 8, 3.0)[0]
    assert row.tolerance == 1.0
    assert row.passed


# ---------------------------------------------------------------- the grid


def test_grid_zero_violations_small(e1):
    rows = run_inequality_grid(
        e1,
        whichs=("kolmogorov_upper", "kolmogorov_lower", "exponential"),
        ns=(4, 8),
        xs=(1.0, 2.0, 3.0, 4.0),
        levy_alphas=(),
    ).rows
    assert len(rows) == 3 * 2 * 4
    assert all(r.passed for r in rows)


def test_grid_is_deterministic_and_parallel_safe(e1):
    kw = dict(whichs=("kolmogorov_upper", "exponential"), ns=(4,), xs=(1.0, 2.0), levy_alphas=())
    seq = run_inequality_grid(e1, **kw, jobs=1).rows
    par = run_inequality_grid(e1, **kw, jobs=8).rows
    assert [(r.statistic, r.value, r.tolerance) for r in seq] == [
        (r.statistic, r.value, r.tolerance) for r in par
    ]


def test_grid_solves_the_shared_upper_capacity_once_per_point(monkeypatch, e1):
    # kolmogorov_upper and exponential bound one capacity: with kolmogorov_lower,
    # two DP solves per (n, x), not three, and the rows equal each check made alone.
    calls = []
    real = subexp.inequalities.dp_value

    def counted(amb, functional, n, side="upper"):
        calls.append((n, side))
        return real(amb, functional, n, side)

    monkeypatch.setattr(subexp.inequalities, "dp_value", counted)
    kw = dict(ns=(4, 8), xs=(1.0, 2.0, 3.0), levy_alphas=())
    whichs = ("kolmogorov_upper", "kolmogorov_lower", "exponential")
    rows = run_inequality_grid(e1, whichs=whichs, **kw).rows
    assert sorted(calls) == sorted((n, side) for n in kw["ns"] for _ in kw["xs"]
                                   for side in ("lower", "upper"))
    monkeypatch.setattr(subexp.inequalities, "dp_value", real)
    alone = [_inequality_checks(e1, [w], n, x)[0] for w in sorted(whichs) for n in kw["ns"]
             for x in kw["xs"]]
    assert list(rows) == alone


def test_levy_reflection(e1):
    # The right side V(|S_8| > 2) is shown raw as the tolerance.
    rhs = dp_value(e1, TerminalSum(Event("abs_gt", 2.0).holds), 8)
    for alpha in (0.3, 0.5):
        row = _levy_checks(e1, 8, [2.0], alpha)[0]
        assert row.passed
        assert row.tolerance == rhs
        assert f"alpha={alpha:g}" in row.statistic
    with pytest.raises(ValueError):
        _levy_checks(e1, 8, [2.0], 1.5)


def test_levy_rejects_a_horizon_without_steps(e1):
    for n in (0, -2):
        with pytest.raises(ValueError, match="need at least one step"):
            _levy_checks(e1, n, [1.0], 0.3)


def test_levy_makes_exactly_two_dp_calls(monkeypatch, e1):
    # The suffix thresholds come from the sweep, not from one DP per probe.
    calls = []
    real = subexp.inequalities.dp_value

    def counted(amb, functional, n, side="upper"):
        calls.append(type(functional).__name__)
        return real(amb, functional, n, side)

    monkeypatch.setattr(subexp.inequalities, "dp_value", counted)
    assert _levy_checks(e1, 32, [2.0], 0.3)[0].passed
    assert sorted(calls) == ["RunningMax", "TerminalSum"]


def test_grid_sweeps_levy_thresholds_once_per_horizon_and_alpha(monkeypatch, e1):
    # The exact_dp grid: three xs share each (n, alpha) sweep, 3 sweeps for 9 rows.
    calls = []
    real = subexp.inequalities._levy_thresholds

    def counted(amb, n, alpha):
        calls.append((n, alpha))
        return real(amb, n, alpha)

    monkeypatch.setattr(subexp.inequalities, "_levy_thresholds", counted)
    kw = dict(ns=(32, 64, 128), xs=(1.0, 2.0, 4.0), levy_alphas=(0.3,))
    rows = run_inequality_grid(e1, whichs=(), **kw).rows
    assert sorted(calls) == [(32, 0.3), (64, 0.3), (128, 0.3)]
    alone = [_levy_checks(e1, n, [x], a)[0] for n in kw["ns"] for x in kw["xs"]
             for a in kw["levy_alphas"]]
    assert list(rows) == alone


def _bisected_thresholds(amb, n, alphas):
    """Referee: b_{n,k} per alpha by integer bisection on separate suffix DPs."""
    model = lattice_model(amb)
    reach = max(-model.amin, model.amax)

    @functools.cache
    def capacity(length, m):
        return dp_value(amb, TerminalSum(Event("abs_gt", m * model.pitch).holds), length)

    def least(alpha, length):
        lo, hi = 0, length * reach + 1  # no length-step sum exceeds hi lattice steps
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if capacity(length, mid) <= alpha else (mid + 1, hi)
        return lo * model.pitch

    return {alpha: [least(alpha, n - k) for k in range(1, n)] + [0.0] for alpha in alphas}


_RNG = np.random.default_rng(4242)
LEVY_CASES = [(make_e1(), n) for n in (1, 2, 3, 5, 8, 13, 21, 34, 40)] + [
    (random_lattice_instance(_RNG)[0], int(_RNG.integers(1, 41))) for _ in range(10)
]


@pytest.mark.parametrize(
    "amb, n", LEVY_CASES, ids=[f"{a.label}{i}-n{n}" for i, (a, n) in enumerate(LEVY_CASES)]
)
def test_levy_thresholds_equal_bisection(amb, n):
    alphas = (0.01, 0.05, 0.3, 0.5, 0.95)
    for alpha, expected in _bisected_thresholds(amb, n, alphas).items():
        assert _levy_thresholds(amb, n, alpha) == expected, (alpha, amb.members)


# ---------------------------------------------------- capacity series tests


def series_rows(members, **kw):
    """run_choquet_series rows by statistic name."""
    result = run_choquet_series(AmbiguitySet(members), **kw)
    return {r.statistic: r for r in result.rows}


def test_choquet_series_pareto_convergent():
    rows = series_rows((TwoSidedPareto(1.5, 1.0, 0.5),), p=1.0, K=20_000)
    assert rows["series_convergent"].value == 1.0
    assert rows["equivalence_consistent"].passed
    assert rows["series_ratio_matched"].passed
    assert rows["choquet_value"].value == pytest.approx(3.0, abs=1e-6)


def test_choquet_series_pareto_divergent():
    rows = series_rows((TwoSidedPareto(1.2, 1.0, 0.5),), p=1.5, K=5_000)
    assert rows["series_convergent"].value == 0.0
    assert rows["equivalence_consistent"].passed
    assert math.isinf(rows["choquet_value"].value)


def test_choquet_series_window_scales_with_m_and_jumps_at_atoms():
    # The window is M^-p times the survival integral over [M^p K/10, M^p K].
    rows = series_rows((TwoSidedPareto(1.9, 1.0, 0.5),), p=1.2, M=2.0, K=20_000)
    assert rows["series_ratio_matched"].passed
    # Atoms at +-300 drop the survival from 1 to 0 inside the window [100, 1000].
    coin = FiniteDiscrete.from_arrays([-300.0, 300.0], [0.5, 0.5])
    rows = series_rows((coin,), p=1.0, K=1_000)
    assert rows["series_partial_sum"].value == 300.0
    assert rows["series_ratio_matched"].passed


def test_choquet_series_bounded_support_trivial():
    d = FiniteDiscrete.from_arrays([-1.0, 1.0], [0.5, 0.5])
    rows = series_rows((d,), p=1.5, K=1_000)
    assert rows["series_convergent"].value == 1.0
    assert rows["equivalence_consistent"].passed
    # the window has no mass, so S_K - S_{K/10} is at most 1e-9
    assert rows["series_ratio_matched"].passed
    with pytest.raises(ValueError):
        series_rows((d,), p=2.0)
