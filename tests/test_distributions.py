"""Atoms, events, and the two-sided Pareto family.

The Pareto closed forms (truncated moments, inverse CDF) are the
load-bearing part: everything downstream integrates against them, so they
are checked here against direct quadrature oracles.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from subexp import AmbiguitySet, Event, FiniteDiscrete, TwoSidedPareto
from subexp.axioms import random_ambiguity_set, random_max_affine
from subexp.errors import NotConvergent

# ---------------------------------------------------------------- events


def test_event_kinds_and_complement_round_trip():
    for kind in ("ge", "gt", "le", "lt", "abs_ge", "abs_gt", "abs_le", "abs_lt"):
        ev = Event(kind, 0.5)
        assert ev.complement().complement() == ev

    ev = Event("between", -1.0, 2.0)
    assert ev.complement().kind == "outside"
    assert ev.complement().complement() == ev


def test_event_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Event("inside", 0.0)


def test_event_interval_order_rejected():
    with pytest.raises(ValueError):
        Event("between", 2.0, 1.0)


def test_event_holds_matches_description():
    xs = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    assert list(Event("ge", 0.5).holds(xs)) == [False] * 4 + [True] * 3
    assert list(Event("abs_gt", 1.0).holds(xs)) == [True, False, False, False, False, False, True]
    assert list(Event("between_open", -1.0, 1.0).holds(xs)) == [False, False, True, True, True, False, False]
    assert list(Event("outside_closed", -1.0, 1.0).holds(xs)) == [True, True, False, False, False, True, True]


@given(
    kind=st.sampled_from(["ge", "gt", "le", "lt", "abs_ge", "abs_gt", "between", "outside_closed"]),
    a=st.floats(-5, 5),
    width=st.floats(0, 5),
    x=st.floats(-10, 10),
)
def test_event_complement_partitions_the_line(kind, a, width, x):
    ev = Event(kind, a, a + width) if kind in ("between", "outside_closed") else Event(kind, a)
    assert bool(ev.holds(x)) != bool(ev.complement().holds(x))


# ---------------------------------------------------- finite discrete laws


def test_from_arrays_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        FiniteDiscrete.from_arrays([0.0, 1.0], [0.5, 0.49])
    with pytest.raises(ValueError):
        FiniteDiscrete.from_arrays([0.0, 1.0], [-0.1, 1.1])


def test_atoms_sorted_at_construction():
    d = FiniteDiscrete.from_arrays([1.0, -1.0, 0.0], [0.2, 0.3, 0.5])
    assert list(d.values) == [-1.0, 0.0, 1.0]
    assert list(d.weights) == [0.3, 0.5, 0.2]


def test_finite_moments_exact():
    d = FiniteDiscrete.from_arrays([-1.0, 1.0], [0.25, 0.75])
    assert d.mean() == 0.5
    assert d.second_moment() == 1.0
    assert d.expectation(lambda x: x * x) == 1.0
    assert d.prob(Event("ge", 1.0)) == 0.75
    assert d.abs_survival(0.5) == 1.0
    assert d.abs_survival(1.0) == 1.0  # survival is P(|X| >= x)
    assert d.abs_survival(1.0 + 1e-9) == 0.0


def test_finite_truncations_and_excess():
    d = FiniteDiscrete.from_arrays([-2.0, 0.0, 3.0], [0.25, 0.25, 0.5])
    # truncation at c=1 clips atoms to [-1, 1]
    assert d.truncated_mean(1.0) == 0.25 * -1.0 + 0.25 * 0.0 + 0.5 * 1.0
    assert d.truncated_second(1.0) == 0.25 + 0.5


def test_finite_icdf_staircase():
    d = FiniteDiscrete.from_arrays([-1.0, 1.0], [0.25, 0.75])
    u = np.array([0.0, 0.1, 0.24999, 0.25, 0.9, 0.999999])
    out = d.icdf(u)
    assert list(out) == [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]


def test_finite_shifted():
    d = FiniteDiscrete.from_arrays([-1.0, 2.0], [0.5, 0.5])
    assert list(d.shifted(1.0).values) == [0.0, 3.0]


def test_point_mass_mean():
    d = FiniteDiscrete.from_arrays([2.5], [1.0])
    assert d.mean() == 2.5


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6, unique=True), st.data())
def test_finite_expectation_is_weighted_sum(values, data):
    weights = data.draw(
        st.lists(st.floats(0.01, 1), min_size=len(values), max_size=len(values))
    )
    total = sum(weights)
    weights = [w / total for w in weights]
    d = FiniteDiscrete.from_arrays(values, weights)
    expected = sum(w * v for v, w in zip(values, weights))
    assert abs(d.mean() - expected) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 5.0),
       st.sampled_from(["ge", "gt", "le", "lt", "abs_ge", "abs_lt", "between", "outside_closed"]),
       st.floats(-5.0, 5.0))
def test_array_expectation_equals_the_per_atom_sums(seed, c, kind, a):
    # Referee: each member sum as it was formed before test functions took
    # the atom array, one Python call of f per atom. Equal by float.hex.
    rng = np.random.default_rng(seed)
    f = random_max_affine(rng)
    event = Event(kind, a, a + c) if kind in ("between", "outside_closed") else Event(kind, a)
    for m in random_ambiguity_set(rng).members:
        v, w = m.values, m.weights
        old = {
            "f": math.fsum(wi * float(f(np.array([x]))[0]) for x, wi in zip(v, w)),
            "mean": math.fsum((w * v).tolist()),
            "second": math.fsum((w * v ** 2).tolist()),
            "truncated_mean": math.fsum((w * np.clip(v, -c, c)).tolist()),
            "truncated_second": math.fsum((w * np.minimum(v ** 2, c * c)).tolist()),
            "prob": math.fsum(w[event.holds(v)].tolist()) if event.holds(v).any() else 0.0,
        }
        new = {
            "f": m.expectation(f),
            "mean": m.mean(),
            "second": m.second_moment(),
            "truncated_mean": m.truncated_mean(c),
            "truncated_second": m.truncated_second(c),
            "prob": m.prob(event),
        }
        assert {k: x.hex() for k, x in new.items()} == {k: x.hex() for k, x in old.items()}
    for m in random_ambiguity_set(rng, dim=2).members:
        v, w = m.values, m.weights
        old_mean = [math.fsum((w * v[:, j]).tolist()) for j in range(2)]
        assert [x.hex() for x in m.mean()] == [x.hex() for x in old_mean]
        old_second = math.fsum((w * np.sum(v ** 2, axis=1)).tolist())
        assert m.second_moment().hex() == old_second.hex()


def test_expectation_rejects_a_test_function_of_the_wrong_shape():
    d = FiniteDiscrete.from_arrays([-1.0, 0.0, 2.0], [0.25, 0.25, 0.5])
    assert d.expectation(lambda x: np.full(len(x), 2.0)) == 2.0
    for f in (lambda x: 2.0, lambda x: x[:, None], lambda x: x[:2], np.sum):
        with pytest.raises(ValueError, match="one value per atom"):
            d.expectation(f)
    planar = FiniteDiscrete.from_arrays([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    assert planar.expectation(lambda x: x[:, 0]) == 0.5
    with pytest.raises(ValueError, match="one value per atom"):
        planar.expectation(lambda x: x)


def test_a_nan_weight_is_rejected():
    with pytest.raises(ValueError, match="strictly positive"):
        FiniteDiscrete([(0.0, math.nan), (1.0, 1.0)])


def test_from_arrays_needs_one_weight_per_value():
    with pytest.raises(ValueError, match="got 4 atom values but 2 weights"):
        FiniteDiscrete.from_arrays([0.0, 1.0, 2.0, 3.0], [0.5, 0.5])


def test_atom_shape_errors_name_the_atom_at_fault():
    with pytest.raises(ValueError) as exc:
        FiniteDiscrete([(0.0, 0.5), ((1.0, 2.0), 0.5)])
    assert str(exc.value) == ("atom values must be all numbers or all vectors of one length: "
                              "atom 0 is a number, atom 1 is a vector of 2 numbers")
    # A width-1 vector is still a vector until from_arrays merges the values.
    with pytest.raises(ValueError, match="atom 2 is a vector of 1 numbers"):
        FiniteDiscrete.from_arrays([0.5, 0.5, [1.0]], [0.25, 0.25, 0.5])
    with pytest.raises(ValueError, match=r"atom 1: \[\[1.0\]\] is neither a number"):
        FiniteDiscrete.from_arrays([[0.0], [[1.0]]], [0.5, 0.5])
    with pytest.raises(ValueError, match="atom 0: a vector value needs at least one number"):
        FiniteDiscrete([([], 1.0)])


def _reference_arrays(atoms):
    """values, weights and cumulative weights as they were made with numpy at
    construction: asarray, lexsort of the value rows, cumsum with its last
    entry set to 1."""
    values = np.asarray([a[0] for a in atoms], dtype=float)
    weights = np.asarray([a[1] for a in atoms], dtype=float)
    rows = values.reshape(len(weights), -1)
    order = np.lexsort(rows.T[::-1])
    cumw = np.cumsum(weights[order])
    cumw[-1] = 1.0
    return values[order], weights[order], cumw


def _reference_merge(values, weights):
    """from_arrays' merge as it was done on numpy rows."""
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    merged = {}
    for v, w in zip(values.reshape(len(weights), -1), weights):
        merged[tuple(v)] = merged.get(tuple(v), 0.0) + w
    return [(k if len(k) > 1 else k[0], w) for k, w in merged.items()]


_COORDS = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.1, 1.0, 3.0, 1e-300])


@settings(max_examples=300, deadline=None)
@given(width=st.integers(0, 3), data=st.data())
def test_lazy_arrays_equal_the_arrays_made_at_construction(width, data):
    # width 0 means scalar atoms. Values repeat, -0.0 and 0.0 among them, so
    # from_arrays merges; numpy scalars and ndarray rows come in as they are.
    value = _COORDS if width == 0 else st.lists(_COORDS, min_size=width, max_size=width)
    raw = data.draw(st.lists(value, min_size=1, max_size=7))
    counts = data.draw(st.lists(st.integers(1, 9), min_size=len(raw), max_size=len(raw)))
    weights = [c / sum(counts) for c in counts]
    wrap = data.draw(st.sampled_from(["float", "numpy scalars", "ndarray"]))
    if wrap == "numpy scalars":
        values = [np.float64(v) if width == 0 else [np.float64(x) for x in v] for v in raw]
        weights = [np.float64(w) for w in weights]
    elif wrap == "ndarray":
        values, weights = np.asarray(raw, dtype=float), np.asarray(weights)
    else:
        values = raw
    merged = FiniteDiscrete.from_arrays(values, weights)
    expected = _reference_arrays(_reference_merge(values, weights))
    _assert_same_arrays(merged, expected)
    # The atoms as given, width-1 vectors kept, when their values are distinct.
    atoms = list(zip(values, weights))
    if len({tuple(np.ravel(v)) for v, _ in atoms}) == len(atoms):
        _assert_same_arrays(FiniteDiscrete(atoms), _reference_arrays(atoms))


def _assert_same_arrays(law, expected):
    for got, want in zip((law.values, law.weights, law._cumw), expected):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------------- two-sided pareto


def test_pareto_validation():
    with pytest.raises(ValueError):
        TwoSidedPareto(0.0, 1.0)
    with pytest.raises(ValueError):
        TwoSidedPareto(1.5, -1.0)
    with pytest.raises(ValueError):
        TwoSidedPareto(1.5, 1.0, right_mass=1.5)


def test_pareto_survival_closed_form():
    p = TwoSidedPareto(1.5, 1.0, 0.5)
    assert p.abs_survival(0.5) == 1.0  # no mass inside the scale
    assert p.abs_survival(1.0) == 1.0
    assert abs(p.abs_survival(2.0) - 2.0 ** -1.5) < 1e-15
    assert abs(p.prob(Event("ge", 2.0)) - 0.5 * 2.0 ** -1.5) < 1e-15


def test_pareto_moments_closed_forms():
    p = TwoSidedPareto(1.5, 1.0, 0.5)
    assert p.abs_mean() == 3.0  # alpha/(alpha-1)
    assert p.mean() == 0.0
    assert TwoSidedPareto(1.5, 1.0, 0.75).mean() == pytest.approx(1.5)
    assert TwoSidedPareto(2.5, 1.0, 0.5).second_moment() == pytest.approx(5.0)
    assert TwoSidedPareto(1.5, 1.0, 0.5).second_moment() == math.inf


def test_pareto_mean_alpha_le_one_raises():
    with pytest.raises(NotConvergent):
        TwoSidedPareto(0.9, 1.0, 0.5).mean()


@pytest.mark.parametrize("alpha,q,c", [(1.5, 0.5, 4.0), (1.2, 0.3, 2.0), (2.5, 0.8, 10.0)])
def test_pareto_truncations_match_quadrature(alpha, q, c):
    p = TwoSidedPareto(alpha, 1.0, q)

    # density of |X| is alpha * x^{-alpha-1} on [1, inf); signed split q / 1-q
    def signed_density(x):
        return alpha * abs(x) ** (-alpha - 1.0) * (q if x > 0 else 1.0 - q)

    clip = lambda x: max(-c, min(c, x))
    ref_mean = integrate.quad(lambda x: clip(x) * signed_density(x), 1.0, np.inf)[0] + integrate.quad(
        lambda x: clip(x) * signed_density(x), -np.inf, -1.0
    )[0]
    ref_second = integrate.quad(lambda x: clip(x) ** 2 * signed_density(x), 1.0, np.inf)[0] + integrate.quad(
        lambda x: clip(x) ** 2 * signed_density(x), -np.inf, -1.0
    )[0]

    assert p.truncated_mean(c) == pytest.approx(ref_mean, rel=1e-8)
    assert p.truncated_second(c) == pytest.approx(ref_second, rel=1e-8)


def test_pareto_icdf_inverts_cdf():
    p = TwoSidedPareto(1.5, 2.0, 0.3)
    u = np.array([0.01, 0.2, 0.31, 0.5, 0.9, 0.99])
    x = p.icdf(u)
    for ui, xi in zip(u, x):
        assert p.cdf(float(xi)) == pytest.approx(ui, abs=1e-12)
    assert np.all(np.diff(x) >= 0)


def test_pareto_icdf_extreme_u_is_finite():
    p = TwoSidedPareto(1.2, 1.0, 0.5)
    x = p.icdf(np.array([0.0, 1.0]))
    assert np.all(np.isfinite(x))


_EDGE_U = (0.0, 2.0 ** -53, 1.0 - 2.0 ** -53)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(0.05, 4.0),
    scale=st.floats(1.0, 100.0),
    right_mass=st.floats(0.0, 1.0),
    u=st.sampled_from(_EDGE_U) | st.floats(0.0, 1.0, exclude_max=True),
)
def test_pareto_icdf_overflows_to_signed_inf_quietly(alpha, scale, right_mass, u):
    p = TwoSidedPareto(alpha, scale, right_mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = float(p.icdf(np.array([u]))[0])
    left = 1.0 - right_mass
    negative = u < left
    # s * (r/t)^(1/alpha) in log space, with t the floored u or 1 - u.
    r, t = (left, max(u, 2.0 ** -64)) if negative else (right_mass, max(1.0 - u, 2.0 ** -64))
    log_size = math.log(scale) + (math.log(r) - math.log(t)) / alpha
    if abs(log_size - math.log(np.finfo(float).max)) > 1e-9:  # clear of rounding at the edge
        assert math.isfinite(x) == (log_size < math.log(np.finfo(float).max))
    assert (x < 0) if negative else (x > 0)


# ------------------------------------------------------------ ambiguity set


def test_ambiguity_set_basics(e1):
    assert e1.dim == 1
    assert len(e1.members) == 2
    assert e1.is_finite_support
    assert list(e1.member_means()) == [0.0, 0.5]
    assert math.isinf(e1.heaviest_alpha())


def test_ambiguity_set_rejects_mixed_dimension():
    with pytest.raises(ValueError):
        AmbiguitySet(
            (
                FiniteDiscrete.from_arrays([0.0], [1.0]),
                FiniteDiscrete.from_arrays([[0.0, 1.0]], [1.0]),
            )
        )


def test_ambiguity_set_heaviest_alpha_with_pareto():
    amb = AmbiguitySet(
        (TwoSidedPareto(1.5, 1.0, 0.5), TwoSidedPareto(2.5, 1.0, 0.5)), label="mix"
    )
    assert amb.heaviest_alpha() == 1.5
    assert not amb.is_finite_support


def test_icdf_table_concatenates_the_finite_members():
    three = FiniteDiscrete.from_arrays([-0.7, 0.15, 1.3], [0.3, 0.5, 0.2])
    two = FiniteDiscrete.from_arrays([-0.4, 0.9], [0.6, 0.4])
    amb = AmbiguitySet((three, TwoSidedPareto(1.5, 1.0, 0.5), two))
    thresholds, offsets, atoms = amb.icdf_table
    assert amb.icdf_table is amb.icdf_table  # built once per model
    assert thresholds.tolist() == [[0.3, math.inf, 0.6], [0.8, math.inf, math.inf]]
    assert offsets.tolist() == [0, 5, 3]
    assert atoms[:5].tolist() == [-0.7, 0.15, 1.3, -0.4, 0.9] and math.isnan(atoms[5])
    e = np.eye(2)
    planar = AmbiguitySet((FiniteDiscrete.from_arrays([e[0]], [1.0]),
                           FiniteDiscrete.from_arrays(e, [0.5, 0.5])))
    thresholds, offsets, atoms = planar.icdf_table
    assert thresholds.tolist() == [[math.inf, 0.5]]
    assert offsets.tolist() == [0, 1]
    assert atoms.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


class _ScriptedRng:
    """One member of two atoms, whose atom draws are replayed from a list."""

    def __init__(self, draws):
        self.draws = [np.asarray(d, dtype=float) for d in draws]

    def integers(self, low, high):
        return {1: 1, 2: 2}[low]

    def normal(self, loc, scale, size):
        return self.draws.pop(0)

    def dirichlet(self, alpha):
        return np.full(len(alpha), 1.0 / len(alpha))


def test_random_ambiguity_set_redraws_equal_atoms():
    # Atoms equal as floats, -0.0 and 0.0 among them, are drawn again, as
    # np.unique(values, axis=0) would count them.
    for dim, draws in ((1, [[0.5, 0.5], [-0.0, 0.0], [0.5, -0.5]]),
                       (2, [[[1.0, -0.0], [1.0, 0.0]], [[1.0, 2.0], [1.0, 2.0]],
                            [[1.0, 2.0], [2.0, 1.0]]])):
        rng = _ScriptedRng(draws)
        (member,) = random_ambiguity_set(rng, dim=dim).members
        assert rng.draws == []
        assert sorted(np.atleast_1d(member.values).tolist()) == sorted(draws[-1])
