"""Adversarial path sampling: counter-based streams and member schedules.

Determinism is the contract here: a path is a pure function of
(model, strategy, horizon, seed), and shared prefixes of the stream do not
depend on how far the path eventually runs.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subexp import (
    AmbiguitySet,
    BlockSchedule,
    FiniteDiscrete,
    Stationary,
    TwoSidedPareto,
    oscillation_schedule,
    sample_path,
    stationary_for_target,
    target_chasing_schedule,
)
from subexp import sampler, windows
from subexp.sampler import (
    _block_ends,
    _uniforms,
    alternating_schedule,
    default_targets,
    hash_window,
    pure_weights,
)
from subexp.errors import TargetOutOfRange
from conftest import make_asym3, make_e1, make_v2mix


def test_same_args_same_path(e1):
    s = Stationary((0.5, 0.5))
    p1 = sample_path(e1, s, 500, seed=42)
    p2 = sample_path(e1, s, 500, seed=42)
    assert np.array_equal(p1.increments, p2.increments)
    assert np.array_equal(p1.member_indices, p2.member_indices)


def test_prefix_stability(e1):
    """Extending the horizon must not rewrite the earlier steps."""
    s = Stationary((0.3, 0.7))
    short = sample_path(e1, s, 200, seed=9)
    long = sample_path(e1, s, 1000, seed=9)
    assert np.array_equal(long.increments[:200], short.increments)


def test_different_seeds_differ(e1):
    s = Stationary((0.5, 0.5))
    p1 = sample_path(e1, s, 200, seed=1)
    p2 = sample_path(e1, s, 200, seed=2)
    assert not np.array_equal(p1.increments, p2.increments)


def test_stationary_validation(e1):
    for bad in ((0.6, 0.6), (1.5, -0.5), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="mixture weights"):
            Stationary(bad)
    assert Stationary(np.array([0.25, 0.75])).weights == (0.25, 0.75)
    with pytest.raises(ValueError, match="one weight per member"):
        sample_path(e1, Stationary((1.0,)), 10, seed=0)


def test_pure_strategy_uses_one_member(e1):
    p = sample_path(e1, Stationary((0.0, 1.0)), 300, seed=5)
    assert set(p.member_indices.tolist()) == {1}


# --------------------------------------------------------- target strategies


def test_stationary_for_target_mean_is_exact(e1):
    for b in (0.0, 0.125, 0.25, 0.5):
        s = stationary_for_target(e1, b)
        means = e1.member_means()
        assert float(np.dot(s.weights, means)) == pytest.approx(b, abs=1e-15)
    assert stationary_for_target(e1, 0.0).weights == (1.0, 0.0)
    assert stationary_for_target(e1, 0.5).weights == (0.0, 1.0)


def test_stationary_for_target_out_of_range(e1):
    with pytest.raises(TargetOutOfRange):
        stationary_for_target(e1, 0.7)
    with pytest.raises(TargetOutOfRange):
        stationary_for_target(e1, -0.01)


def test_target_attained_empirically(e1):
    b = 0.25
    p = sample_path(e1, stationary_for_target(e1, b), 200_000, seed=11)
    # CLT band: sd <= 1 per step
    assert abs(p.increments.mean() - b) < 5.0 / np.sqrt(p.n)


def _dirac_set(means) -> AmbiguitySet:
    return AmbiguitySet([FiniteDiscrete.from_arrays([m], [1.0]) for m in means])


def _random_means(rng, d: int) -> np.ndarray:
    """Member means on a coarse grid, with a duplicate and a midpoint as in V2mix;
    every third set lies on one line."""
    if rng.integers(3) == 0:
        steps = rng.uniform(0, 1, (rng.integers(2, 5), 1))
        base = rng.uniform(-2, 2, (1, d)) + steps * rng.uniform(-1, 1, d)
    else:
        base = np.round(rng.uniform(-2, 2, (rng.integers(2, 6), d)) * 4) / 4
    i, j = rng.choice(len(base), 2, replace=False)
    return np.vstack([base, base[i], (base[i] + base[j]) / 2])[rng.permutation(len(base) + 2)]


def _lattice_referee(means, m: int, target) -> tuple:
    """The lexicographically largest lattice mixture whose rounded mean is
    target, by enumerating the lattice as bars among stars."""
    k, res = len(means), max(8, m)
    rows = []
    for bars in itertools.combinations(range(res + k - 1), k - 1):
        cuts = (-1,) + bars + (res + k - 1,)
        rows.append(tuple(b - a - 1 for a, b in zip(cuts, cuts[1:])))
    # In default_targets' row order, so each rounded mean is the same float.
    grid = np.asarray(sorted(rows), dtype=float) / res
    hits = (np.round(grid @ means, 12) == target).all(axis=1)
    return max(map(tuple, grid[hits].tolist()))


@pytest.mark.parametrize("d", [2, 3])
def test_default_target_mixtures_are_the_largest_lattice_rows_attaining_them(d):
    rng = np.random.default_rng(50 + d)
    for _ in range(12):
        means = _random_means(rng, d)
        for m in (2, 5, 8):
            targets, mixtures = default_targets(_dirac_set(means), m)
            assert len(mixtures) == len(targets) == m
            for target, w in zip(targets, mixtures):
                assert min(w) >= 0.0 and math.fsum(w) == 1.0
                assert np.abs(np.asarray(w) @ means - target).max() <= 1e-12
                assert w == _lattice_referee(means, m, target)


# ----------------------------------------------------------------- schedules


def test_block_schedule_shapes(e1):
    sched = BlockSchedule((10, 30), ((1.0, 0.0), (0.0, 1.0)))
    blocks = sched.blocks_for(30)
    assert blocks[-1][0] == 30
    p = sample_path(e1, sched, 30, seed=1)
    assert set(p.member_indices[:10].tolist()) == {0}
    assert set(p.member_indices[10:].tolist()) == {1}


def test_block_schedule_extends_last_block(e1):
    sched = BlockSchedule((10, 30), ((1.0, 0.0), (0.0, 1.0)))
    p = sample_path(e1, sched, 50, seed=1)
    assert set(p.member_indices[30:].tolist()) == {1}


def test_block_schedule_validation():
    with pytest.raises(ValueError):
        BlockSchedule((30, 10), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="mixture weights"):
        BlockSchedule((10, 30), ((1.0, 0.0), (0.7, 0.7)))
    for ends, mixtures in (((), ((1.0,),)), ((10,), ())):
        with pytest.raises(ValueError, match="at least one block and one mixture"):
            BlockSchedule(ends, mixtures)


def test_block_schedule_cycles_its_mixtures(e1):
    a, b, c = (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)
    sched = BlockSchedule((10, 20, 30, 40, 50), (a, b, c))
    assert sched.blocks_for(60) == [(10, a), (20, b), (30, c), (40, a), (50, b), (60, b)]
    one = BlockSchedule((10, 30), (a,))
    assert set(sample_path(e1, one, 50, seed=1).member_indices.tolist()) == {0}


def test_block_schedule_blocks_from_start_are_the_later_blocks():
    sched = BlockSchedule((10, 30, 31, 60), ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.2, 0.8)))
    for n in (1, 9, 10, 11, 30, 31, 45, 60, 61, 100):
        whole = sched.blocks_for(n)
        for start in range(n):
            assert sched.blocks_for(n, start) == [(e, w) for e, w in whole if e > start]


def test_sample_path_checks_only_the_blocks_it_draws(e1):
    # 10^4 blocks of 10 steps; the window of steps 50 006..51 005 meets the
    # blocks that end at 50 010, 50 020, ..., 51 010: 101 of them.
    sched = alternating_schedule(e1, range(10, 100_010, 10), "alternating_10")
    start, end = 50_005, 51_005
    assert len(sched.blocks_for(end, start)) == 101
    path = sample_path(e1, sched, end, seed=4, start=start)
    assert np.array_equal(path.increments, sample_path(e1, sched, end, seed=4).increments[start:])
    # A first block whose mixture has a weight too many is read, and
    # rejected, only by a window that draws it.
    odd = BlockSchedule((10, 100), ((0.2, 0.3, 0.5), (0.0, 1.0)))
    assert sample_path(e1, odd, 100, seed=4, start=10).n == 90
    with pytest.raises(ValueError, match="one weight per member"):
        sample_path(e1, odd, 100, seed=4, start=9)


def test_drawing_a_window_checks_no_mixture(monkeypatch, e1):
    # Each mixture is checked once, when its strategy is built.
    plans = [Stationary((0.5, 0.5)), _chasing(e1, 3, 20_000, 50),
             alternating_schedule(e1, range(10, 20_010, 10), "alternating_10")]

    def check(weights):
        raise AssertionError("a mixture was checked while drawing")

    monkeypatch.setattr(sampler, "_mixture", check)
    walked = [(j, x.copy()) for j, _, x, _ in windows._windows(e1, plans, 20_000, seed=3)]
    monkeypatch.undo()
    for j, plan in enumerate(plans):
        whole = sample_path(e1, plan, 20_000, seed=3).increments
        assert np.array_equal(np.concatenate([x for i, x in walked if i == j]), whole)


def test_alternating_schedule_shares_its_two_mixtures(e1):
    sched = alternating_schedule(e1, range(100, 10_100, 100), "alternating_100")
    assert sched.mixtures == ((0.0, 1.0), (1.0, 0.0))  # max-mean member first
    assert [w for _, w in sched.blocks_for(300)] == [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    # The last block, the 100th, plays the min-mean member, and so do the
    # steps past it.
    assert sched.blocks_for(10_050, 9_850) == [
        (9_900, (0.0, 1.0)), (10_000, (1.0, 0.0)), (10_050, (1.0, 0.0))]


def test_alternating_schedule_keeps_a_range_and_its_path(e1):
    # The ends of a range cost no memory per block and draw the same path.
    ends = range(100, 10_100, 100)
    sched = alternating_schedule(e1, ends, "alternating_100")
    assert sched.ends is ends
    copy = alternating_schedule(e1, list(ends), "alternating_100")
    assert copy.ends == tuple(ends)
    for n in (10_000, 10_050):
        assert np.array_equal(sample_path(e1, sched, n, seed=5).increments,
                              sample_path(e1, copy, n, seed=5).increments)
    for bad in (range(0, 100, 10), range(30, 0, -10)):
        with pytest.raises(ValueError, match="strictly increasing"):
            alternating_schedule(e1, bad, "bad")


def test_block_ends_rise_strictly_and_stop_at_the_horizon():
    assert _block_ends([0, 0, 5, 3, 9], 100) == (1, 2, 5, 6, 9)
    assert _block_ends([3, 50, 150, 200], 100) == (3, 50, 100)
    assert _block_ends([4, 4, 4], 5) == (4, 5)

    def candidates():
        yield from (10, 20, 30)
        raise AssertionError("a candidate past the horizon was read")

    assert _block_ends(candidates(), 25) == (10, 20, 25)


def test_oscillation_schedule_geometry(e1):
    sched = oscillation_schedule(e1, K=5)
    assert len(sched.ends) == 5
    ratios = [sched.ends[i + 1] / sched.ends[i] for i in range(4)]
    assert all(r == pytest.approx(16.0) for r in ratios)
    # alternates between the two pure extremes
    assert sched.mixtures == ((0.0, 1.0), (1.0, 0.0))
    assert [w for _, w in sched.blocks_for(sched.ends[2])] == [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]


def test_target_chasing_visits_every_target(v2mix):
    targets, mixtures = default_targets(v2mix, 5)
    assert targets.tolist() == [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]]
    # The lattice rows themselves, the largest that attains each target.
    assert mixtures == [(0.0, 1.0, 0.0), (0.25, 0.75, 0.0), (0.5, 0.5, 0.0),
                        (0.75, 0.25, 0.0), (1.0, 0.0, 0.0)]
    chase = target_chasing_schedule(mixtures, horizon=100_000)
    assert chase.label == "target_chasing"
    # Block j chases target j, and its weights attain that target.
    means = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    weights = chase.mixtures
    assert weights == tuple(mixtures)
    for j, w in enumerate(weights):
        assert np.abs(np.asarray(w) @ means - targets[j]).max() <= 1e-9
    # Block ends grow from start to the horizon.
    assert chase.ends[0] == 1000 and chase.ends[-1] == 100_000
    assert all(b > a for a, b in zip(chase.ends, chase.ends[1:]))


@pytest.mark.parametrize("d", [2, 3])
def test_default_targets_run_along_the_first_furthest_pair_whatever_the_member_order(d):
    rng = np.random.default_rng(30 + d)
    for _ in range(8):
        # Means on a quarter grid, so every distance and tie is exact.
        means = np.round(rng.uniform(-2, 2, (rng.integers(2, 6), d)) * 4) / 4
        amb = _dirac_set(means)
        shuffled = _dirac_set(means[rng.permutation(len(means))])
        for m in (2, 5, 8):
            targets, _ = default_targets(amb, m)
            rows = sorted(map(tuple, targets.tolist()))
            pairs = [(p, q) for i, p in enumerate(rows) for q in rows[i + 1:]]
            gaps = [math.dist(p, q) for p, q in pairs]
            p, q = pairs[gaps.index(max(gaps))]
            assert tuple(targets[0]) == p and tuple(targets[-1]) == q
            assert np.array_equal(default_targets(shuffled, m)[0], targets)


def test_target_chasing_interval_targets(e1):
    targets, mixtures = default_targets(e1, 5)
    assert np.array_equal(targets, np.linspace(0.0, 0.5, 5))
    chase = target_chasing_schedule(mixtures, horizon=50_000)
    got = [float(np.dot(w, e1.member_means())) for w in chase.mixtures]
    assert got == pytest.approx(targets.tolist(), abs=1e-15)
    with pytest.raises(ValueError, match="too small"):
        target_chasing_schedule(mixtures, horizon=2000)


@pytest.mark.parametrize("horizon", [2001, 2500, 3000, 7777])
def test_target_chasing_fits_one_target_per_step_from_start_to_horizon(horizon):
    fits = horizon - 1000 + 1
    chase = target_chasing_schedule([(1.0, 0.0)] * fits, horizon)
    assert chase.ends == tuple(range(1000, horizon + 1))
    with pytest.raises(ValueError) as info:
        target_chasing_schedule([(1.0, 0.0)] * (fits + 1), horizon)
    message = str(info.value)
    assert len(message) < 200
    assert all(str(x) in message for x in (fits + 1, 1000, horizon))


def test_block_schedule_names_only_the_first_bad_pair_of_ends():
    ends = tuple(range(1, 11)) + (9,) + tuple(range(12, 5000)) + (3,)
    with pytest.raises(ValueError, match="strictly increasing, got 9 after 10$") as info:
        BlockSchedule(ends, ((1.0,),) * len(ends))
    assert len(str(info.value)) < 200


# ------------------------------------------------------ stream statistics


def test_pareto_member_sampling_matches_tail():
    amb = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),), label="p15")
    p = sample_path(amb, Stationary((1.0,)), 200_000, seed=17)
    frac = float(np.mean(np.abs(p.increments) >= 2.0))
    expect = 2.0 ** -1.5
    assert abs(frac - expect) < 0.01
    assert np.min(np.abs(p.increments)) >= 1.0  # no mass inside the scale


@given(st.integers(0, 2**63), st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_sampled_values_are_legal_atoms(seed, n):
    amb = make_e1()
    p = sample_path(amb, Stationary((0.5, 0.5)), n, seed=seed)
    assert set(np.unique(p.increments).tolist()) <= {-1.0, 1.0}
    assert p.n == n and len(p.increments) == n


# ------------------------------------------------------------------ windows

# Sums of these atoms are inexact in float64, so a running sum chained in
# the wrong order shows up in the last bits.
_WINDOW_MODELS = {
    "1d": make_asym3(),
    "2d": AmbiguitySet(
        (
            FiniteDiscrete.from_arrays([[0.1, -0.3], [0.7, 0.2]], [0.5, 0.5]),
            FiniteDiscrete.from_arrays([[-0.45, 0.35]], [1.0]),
        ),
        label="planar",
    ),
}
_W = 64  # window used below; block end 100 falls inside a window, 128 on its edge
_PLAN = BlockSchedule((100, 128, 300), ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)))


@pytest.mark.parametrize("model", sorted(_WINDOW_MODELS))
def test_window_equals_slice_of_whole_path(model):
    amb = _WINDOW_MODELS[model]
    whole = sample_path(amb, _PLAN, 300, seed=7)
    bounds = [(s, min(s + _W, 300)) for s in range(0, 300, _W)]
    bounds += [(s, 300) for s in (1, 99, 100, 127, 128, 299)]
    for start, end in bounds:
        part = sample_path(amb, _PLAN, end, seed=7, start=start)
        assert part.n == end - start
        assert np.array_equal(part.increments, whole.increments[start:end])
        assert np.array_equal(part.member_indices, whole.member_indices[start:end])


@pytest.mark.parametrize("model", sorted(_WINDOW_MODELS))
def test_chained_window_sums_equal_whole_cumsum(monkeypatch, model):
    amb = _WINDOW_MODELS[model]
    k = len(amb.members)
    plans = [_PLAN, Stationary(pure_weights(k, 1)), Stationary((0.5, 0.5))]
    monkeypatch.setattr(windows, "_WINDOW", _W)
    # The yielded arrays are views valid until the next yield: copy each one.
    walked = [(j, ns.copy(), x.copy(), tail)
              for j, ns, x, tail in windows._windows(amb, plans, 300, seed=7)]
    assert [j for j, _, _, _ in walked] == [0, 1, 2] * 5  # each window, every plan
    assert [len(ns) for _, ns, _, _ in walked[::3]] == [64, 64, 64, 64, 44]
    assert [tail for _, _, _, tail in walked[::3]] == [2, 0, 0, 0, 0]  # burn-in is 3 steps
    assert np.array_equal(np.concatenate([ns for _, ns, _, _ in walked[::3]]),
                          np.arange(1.0, 301.0))
    for j, plan in enumerate(plans):
        carry, sums = None, []
        for _, _, x, _ in walked[j::3]:
            carry = windows._chain(x, carry)
            sums.append(x)
        whole = sample_path(amb, plan, 300, seed=7)
        assert np.array_equal(np.concatenate(sums), np.cumsum(whole.increments, axis=0))


def test_window_start_validation(e1):
    s = Stationary((0.5, 0.5))
    for start in (-1, 10, 11):
        with pytest.raises(ValueError):
            sample_path(e1, s, 10, seed=0, start=start)


# --------------------------------------------------------- shared window hash

_SEEDS = st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(_SEEDS, st.integers(0, 2**62), st.integers(0, 300), st.booleans())
@settings(max_examples=150, deadline=None)
def test_hash_window_equals_reference_stream(seed, start, n, own_scratch):
    u_member, u_value = np.full(n, np.nan), np.full(n, np.nan)
    scratch = np.empty(n, dtype=np.uint64) if own_scratch else None
    hash_window(seed, start, u_member, u_value, scratch)
    steps = np.arange(n, dtype=np.uint64) + np.uint64(start)
    assert np.array_equal(u_member, _uniforms(seed, 2 * steps))
    assert np.array_equal(u_value, _uniforms(seed, 2 * steps + np.uint64(1)))


def test_hash_window_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        hash_window(1, 0, np.empty(4), np.empty(5))
    with pytest.raises(ValueError):
        hash_window(1, 0, np.empty(4), np.empty(4), np.empty(3, dtype=np.uint64))


def _reference_path(amb, strategy, n, seed, start, uniforms=None):
    """Per-block draw with a member search on every block, one-hot or not,
    and each member's own icdf, from the (u_member, u_value) of steps
    start+1..n: hashed from seed, or the given ones."""
    if uniforms is None:
        steps = np.arange(start, n, dtype=np.uint64)
        uniforms = _uniforms(seed, 2 * steps), _uniforms(seed, 2 * steps + np.uint64(1))
    k = len(amb.members)
    increments = np.empty((n - start,) + ((amb.dim,) if amb.dim > 1 else ()))
    member_idx = np.empty(n - start, dtype=np.int16)
    prev_end = 0
    for end, weights in strategy.blocks_for(n):
        lo, prev_end = max(prev_end, start), end
        if end <= lo:
            continue
        out = slice(lo - start, end - start)
        u_member, u_value = uniforms[0][out], uniforms[1][out]
        cumw = np.cumsum(weights)
        cumw[-1] = 1.0
        idx = np.minimum(np.searchsorted(cumw, u_member, side="right"), k - 1)
        member_idx[out] = idx
        for j, member in enumerate(amb.members):
            increments[out][idx == j] = member.icdf(u_value[idx == j])
    return increments, member_idx


def _chasing(amb, m: int, horizon: int, start: int):
    return target_chasing_schedule(default_targets(amb, m)[1], horizon, start=start)


def _uniform_cases(alpha: float):
    """(model, strategy) per case; the Pareto cases mix a Pareto(alpha) member
    with a fair coin."""
    heavy = AmbiguitySet(
        (TwoSidedPareto(alpha, 1.0, 0.5), FiniteDiscrete.from_arrays([-1.0, 1.0], [0.5, 0.5])),
        label=f"pareto{alpha:g}",
    )
    v2 = make_v2mix()
    three = BlockSchedule((90, 170, 400), ((0.0, 1.0, 0.0), (0.2, 0.3, 0.5), (1.0, 0.0, 0.0)))
    return {
        "1d-stationary": (make_asym3(), Stationary((0.3, 0.7))),
        "1d-blocks": (make_asym3(), _PLAN),
        "1d-chasing": (make_e1(), _chasing(make_e1(), 3, 400, 50)),
        "2d-stationary": (v2, Stationary((0.2, 0.3, 0.5))),
        "2d-blocks": (v2, three),
        "2d-chasing": (v2, _chasing(v2, 3, 400, 50)),
        "pareto-pure": (heavy, Stationary((1.0, 0.0))),
        "pareto-mixed": (heavy, BlockSchedule((60, 400), ((0.5, 0.5), (1.0, 0.0)))),
    }


_N = 400
_WINDOWS = st.integers(0, _N - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, _N)))


@pytest.mark.parametrize("case", sorted(_uniform_cases(1.0)))
@given(seed=_SEEDS, alpha=st.floats(0.05, 4.0), window=_WINDOWS)
@example(seed=2**64 - 1, alpha=0.05, window=(0, _N))
@settings(max_examples=40, deadline=None)
def test_shared_uniforms_give_the_same_path(case, seed, alpha, window):
    amb, strategy = _uniform_cases(alpha)[case]
    # The drawn window, the whole path, windows on and across block ends, and
    # windows whose first block starts inside them (every plan has an end at
    # 60, 90 or 100).
    for start, end in [window, (0, _N), (0, 64), (40, 104), (55, 170), (64, 128), (399, 400)]:
        u = np.empty(end - start), np.empty(end - start)
        hash_window(seed, start, *u)
        shared = sample_path(amb, strategy, end, seed, start=start, uniforms=u)
        own = sample_path(amb, strategy, end, seed, start=start)
        ref_x, ref_idx = _reference_path(amb, strategy, end, seed, start)
        for path in (shared, own):
            assert path.n == end - start and path.member_indices.dtype == np.int16
            assert np.array_equal(path.increments, ref_x)
            assert np.array_equal(path.member_indices, ref_idx)
    if case.startswith("pareto") and alpha == 0.05 and seed == 2**64 - 1:
        # the far tail of alpha=0.05 is reached
        assert np.abs(sample_path(amb, strategy, _N, seed).increments).max() > 1e6


def test_uniforms_must_cover_the_window(e1):
    u = np.empty(10), np.empty(10)
    with pytest.raises(ValueError):
        sample_path(e1, Stationary((0.5, 0.5)), 20, seed=1, start=5, uniforms=u)


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


def _finite_members(dim: int):
    """A finite law of 1 to 6 atoms on a quarter grid; equal points merge."""
    point = st.integers(-6, 6).map(lambda i: i / 4)
    value = point if dim == 1 else st.lists(point, min_size=dim, max_size=dim)
    atoms = st.lists(st.tuples(value, st.floats(0.01, 1.0)), min_size=1, max_size=6)
    return atoms.map(lambda a: FiniteDiscrete.from_arrays(
        [v for v, _ in a], _normalized([w for _, w in a])))


def _models():
    """1 to 6 members in 1-d, Pareto ones among them, or in 2-d."""
    pareto = st.builds(TwoSidedPareto, st.floats(0.5, 4.0), st.floats(0.1, 3.0), st.floats(0.0, 1.0))
    one_d = st.lists(st.one_of(_finite_members(1), pareto), min_size=1, max_size=6)
    two_d = st.lists(_finite_members(2), min_size=1, max_size=6)
    return st.one_of(one_d, two_d).map(AmbiguitySet)


@given(_models(), st.data())
@settings(max_examples=300, deadline=None)
def test_table_draw_equals_each_members_own_icdf(amb, data):
    k = len(amb.members)
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    weights = data.draw(st.lists(weight, min_size=k, max_size=k).filter(any))
    weights = _normalized(weights)
    # Uniforms on and just below every cumulative weight, the mixture's and
    # each finite member's, where a search off by one would show.
    edges = [0.0, 1.0 - 2.0**-53, *np.cumsum(weights)[:-1]]
    edges += [c for m in amb.members if m.kind == "finite" for c in m._cumw[:-1]]
    edges = [e for edge in edges for e in (edge, np.nextafter(edge, 0.0)) if 0.0 <= e < 1.0]
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(edges))
    n = data.draw(st.integers(1, 40))
    u = tuple(np.array(data.draw(st.lists(uniform, min_size=n, max_size=n))) for _ in range(2))
    strategy = Stationary(tuple(weights))
    path = sample_path(amb, strategy, n, seed=0, uniforms=u)
    ref_x, ref_idx = _reference_path(amb, strategy, n, 0, 0, uniforms=u)
    assert np.array_equal(path.increments, ref_x)
    assert np.array_equal(path.member_indices, ref_idx)


@pytest.mark.parametrize("n", [windows._WINDOW, windows._WINDOW + 1])
@pytest.mark.parametrize("model", sorted(_WINDOW_MODELS))
def test_sums_chain_across_the_engine_window(model, n):
    # The engine's own window: a horizon that fills it, and one that spills
    # a single step into a second window.
    amb = _WINDOW_MODELS[model]
    plans = [_PLAN, Stationary((0.5, 0.5))]
    walked = [(ns.copy(), x.copy()) for _, ns, x, _ in windows._windows(amb, plans, n, seed=7)]
    sizes = [windows._WINDOW] + [1] * (n - windows._WINDOW)
    assert [len(ns) for ns, _ in walked] == [size for size in sizes for _ in plans]
    for j, plan in enumerate(plans):
        carry, sums = None, []
        for _, x in walked[j::2]:
            carry = windows._chain(x, carry)
            sums.append(x)
        whole = sample_path(amb, plan, n, seed=7)
        assert np.array_equal(np.concatenate(sums), np.cumsum(whole.increments, axis=0))
