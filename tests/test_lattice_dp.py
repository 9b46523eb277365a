"""Exact policy optimization on lattice models vs. the brute-force oracle.

dp_value compresses histories to lattice states; brute_force_value recurses
over raw outcome histories with no compression. They must agree to 1e-12 on
every instance small enough to enumerate, and at n <= 2 a literal
policy-table enumeration cross-checks them both.
"""

import math

import numpy as np
import pytest

from subexp import (
    AllBlocksHit,
    AmbiguitySet,
    Event,
    FiniteDiscrete,
    RunningMax,
    TerminalSum,
    brute_force_value,
    dp_value,
    lattice_model,
    policy_enumeration_value,
)
from subexp.errors import NonLattice, StateSpaceTooLarge, TooLargeForBruteForce
from subexp.lattice_dp import _backward_pass
from conftest import random_lattice_instance


# ------------------------------------------------------------ lattice pitch


def test_lattice_model_unit_pitch(e1):
    model = lattice_model(e1)
    assert model.pitch == 1.0
    assert model.amin == -1.0 and model.amax == 1.0


def test_lattice_model_fractional_pitch():
    amb = AmbiguitySet(
        (FiniteDiscrete.from_arrays([0.25, 0.75], [0.5, 0.5]),), label="q"
    )
    assert lattice_model(amb).pitch == 0.25


def test_lattice_model_rejects_off_lattice_atom():
    # 0.5 + 2.5e-7 has no rational approximation with denominator <= 1e6
    # inside the 1e-9 gate (pi does: 103993/33102 errs by only 5.8e-10)
    amb = AmbiguitySet(
        (FiniteDiscrete.from_arrays([1.0, 0.50000025], [0.5, 0.5]),), label="bad"
    )
    with pytest.raises(NonLattice):
        lattice_model(amb)


def test_lattice_model_rejects_continuous_member():
    from subexp import TwoSidedPareto

    amb = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),), label="p")
    with pytest.raises(NonLattice):
        lattice_model(amb)


def test_state_space_guard():
    amb = AmbiguitySet(
        (FiniteDiscrete.from_arrays([1e-6, 1.0], [0.5, 0.5]),), label="wide"
    )
    with pytest.raises(StateSpaceTooLarge):
        dp_value(amb, TerminalSum(Event("ge", 0.5).holds), 20, "upper")


# ------------------------------------------------------------ fixed anchors


def test_two_step_threshold_anchors(e1):
    """Reaching S_2 >= 2 needs two up-steps; the best member gives 0.75^2."""
    f = TerminalSum(Event("ge", 2.0).holds)
    assert dp_value(e1, f, 2, "upper") == pytest.approx(0.5625, abs=1e-15)
    assert dp_value(e1, f, 2, "lower") == pytest.approx(0.25, abs=1e-15)
    assert brute_force_value(e1, f, 2, "upper") == pytest.approx(0.5625, abs=1e-15)
    assert brute_force_value(e1, f, 2, "lower") == pytest.approx(0.25, abs=1e-15)
    assert policy_enumeration_value(e1, f, 2, "upper") == pytest.approx(0.5625, abs=1e-15)
    assert policy_enumeration_value(e1, f, 2, "lower") == pytest.approx(0.25, abs=1e-15)


def test_affine_terminal_reduces_to_mean(e1):
    f = TerminalSum(lambda s: s)
    assert dp_value(e1, f, 3, "upper") == pytest.approx(1.5, abs=1e-12)
    assert dp_value(e1, f, 3, "lower") == pytest.approx(0.0, abs=1e-12)


def test_running_max_absorption(e1):
    """Once hit, always hit: capacity is monotone in the horizon."""
    caps = [dp_value(e1, RunningMax(Event("ge", 2.0)), n, "upper") for n in (2, 3, 4, 6)]
    assert all(b >= a - 1e-15 for a, b in zip(caps, caps[1:]))
    assert caps[0] == pytest.approx(0.5625, abs=1e-15)


def test_running_max_strict_vs_weak(e1):
    weak = dp_value(e1, RunningMax(Event("ge", 2.0)), 2, "upper")
    strict = dp_value(e1, RunningMax(Event("gt", 2.0)), 2, "upper")
    assert strict <= weak
    assert strict == 0.0  # S_2 can equal 2 but never exceed it


def test_running_max_abs_sees_both_sides(e1):
    pos = dp_value(e1, RunningMax(Event("ge", 2.0)), 2, "upper")
    both = dp_value(e1, RunningMax(Event("abs_ge", 2.0)), 2, "upper")
    assert both >= pos
    bf = brute_force_value(e1, RunningMax(Event("abs_ge", 2.0)), 2, "upper")
    assert both == pytest.approx(bf, abs=1e-15)


def test_per_step_events_apply_in_step_order(e1):
    """S_1 >= 1 at step 1, or S_2 >= 2 at step 2, which a miss at step 1
    rules out: 0.75. Read in reverse order it would be 0.5625."""
    running = RunningMax((Event("ge", 1.0), Event("ge", 2.0)))
    for value in (dp_value, brute_force_value):
        assert value(e1, running, 2, "upper") == 0.75
        for n in (1, 3):
            with pytest.raises(ValueError, match="2 events for horizon"):
                value(e1, running, n, "upper")


def test_all_blocks_hit_decouples(e1):
    """Block reaching is a product: the second block restarts from zero."""
    per_block = dp_value(e1, TerminalSum(Event("ge", 2.0).holds), 2, "upper")
    f = AllBlocksHit((2, 4), (Event("ge", 2.0), Event("ge", 2.0)))
    got = dp_value(e1, f, 4, "upper")
    assert got == pytest.approx(per_block ** 2, abs=1e-15)
    assert got == pytest.approx(0.31640625, abs=1e-15)
    assert brute_force_value(e1, f, 4, "upper") == pytest.approx(got, abs=1e-12)


def test_side_validation(e1):
    with pytest.raises(ValueError):
        dp_value(e1, TerminalSum(Event("ge", 0.0).holds), 2, "sideways")


def test_brute_force_caps(e1):
    with pytest.raises(TooLargeForBruteForce):
        brute_force_value(e1, TerminalSum(Event("ge", 0.0).holds), 12, "upper")
    with pytest.raises(TooLargeForBruteForce):
        policy_enumeration_value(e1, TerminalSum(Event("ge", 0.0).holds), 3, "upper")


# ------------------------------------------------- randomized oracle sweep


def test_dp_matches_brute_force_randomized():
    """250 random lattice instances, both sides, agreement to 1e-12."""
    rng = np.random.default_rng(314159)
    checked = 0
    while checked < 250:
        amb, functional, n, side = random_lattice_instance(rng)
        expected = brute_force_value(amb, functional, n, side)
        got = dp_value(amb, functional, n, side)
        assert got == pytest.approx(expected, abs=1e-12), (
            f"instance {checked}: side={side} n={n} dp={got} bf={expected}"
        )
        checked += 1


def test_dp_matches_policy_enumeration_small():
    """At n <= 2 every policy table can be written out and maximized."""
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 60:
        amb, functional, n, side = random_lattice_instance(rng)
        if n > 2:
            continue
        expected = policy_enumeration_value(amb, functional, n, side)
        assert dp_value(amb, functional, n, side) == pytest.approx(expected, abs=1e-12)
        checked += 1


INTERVALS = ("between", "outside", "between_open", "outside_closed")
KINDS = ("ge", "gt", "le", "lt", "abs_ge", "abs_gt", "abs_le", "abs_lt") + INTERVALS


def random_running_instance(rng: np.random.Generator, kind: str, per_step: bool):
    """(amb, RunningMax, n) with n <= 4 and at most 3 members of at most 3
    atoms in {-2, ..., 2} times a random pitch. Event ends are lattice points
    or midpoints of two, so strict and weak comparisons both meet ties. The
    per-step form of an interval kind is a band
    Event(kind, k*(lo - eps), k*(hi + eps)) for k = 1..n."""
    n = int(rng.integers(1, 5))
    pitch = float(rng.choice([0.25, 0.5, 1.0]))
    members = []
    for _ in range(int(rng.integers(1, 4))):
        n_atoms = int(rng.integers(1, 4))
        values = rng.choice(np.arange(-2, 3), size=n_atoms, replace=False) * pitch
        weights = rng.dirichlet(np.ones(n_atoms))
        members.append(FiniteDiscrete.from_arrays(values.tolist(), weights.tolist()))
    amb = AmbiguitySet(tuple(members), label="running")

    def end(k):  # within half a pitch of level k's window
        return float(rng.integers(-4 * k - 1, 4 * k + 2)) * pitch / 2

    if kind not in INTERVALS:
        steps = range(1, n + 1) if per_step else [n]
        events = tuple(Event(kind, end(k)) for k in steps)
    elif per_step:
        lo, hi = sorted((end(1), end(1)))
        eps = float(rng.choice([0.0, 0.25])) * pitch
        events = tuple(Event(kind, k * (lo - eps), k * (hi + eps)) for k in range(1, n + 1))
    else:
        events = (Event(kind, *sorted((end(n), end(n)))),)
    return amb, RunningMax(events if per_step else events[0]), n


@pytest.mark.parametrize("per_step", [False, True], ids=["one", "per_step"])
@pytest.mark.parametrize("kind", KINDS)
def test_running_events_match_the_oracles(kind, per_step):
    """Every Event kind as a running event, one for every step or one per
    step, agrees with brute force at n <= 4 and with policy enumeration at
    n <= 2, on both sides."""
    rng = np.random.default_rng([KINDS.index(kind), per_step])
    for _ in range(25):
        amb, functional, n = random_running_instance(rng, kind, per_step)
        for side in ("upper", "lower"):
            got = dp_value(amb, functional, n, side)
            assert got == pytest.approx(brute_force_value(amb, functional, n, side), abs=1e-12)
            if n <= 2:
                expected = policy_enumeration_value(amb, functional, n, side)
                assert got == pytest.approx(expected, abs=1e-12)


def test_upper_dominates_lower_randomized():
    rng = np.random.default_rng(9)
    for _ in range(40):
        amb, functional, n, _ = random_lattice_instance(rng)
        up = dp_value(amb, functional, n, "upper")
        lo = dp_value(amb, functional, n, "lower")
        assert up >= lo - 1e-12


def test_backward_pass_holds_every_suffix_value_at_sum_zero():
    """Entry k of one pass from horizon n is the value at S_k = 0 after n - k
    levels: the (n - k)-step value of the same payoff, bit for bit."""
    rng = np.random.default_rng(1789)
    compared = 0
    while compared < 3000:
        amb, functional, _, side = random_lattice_instance(rng)
        if not isinstance(functional, TerminalSum):
            continue
        n = int(rng.integers(1, 31))
        model = lattice_model(amb)
        at_zero = _backward_pass(model, n, functional.terminal(model.sums(n)), side)
        assert len(at_zero) == n + 1
        assert at_zero[n] == functional.terminal(np.zeros(1))[0]
        for k in range(n):
            assert at_zero[k] == dp_value(amb, functional, n - k, side), (k, n, side)
        compared += n + 1
