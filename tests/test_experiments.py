"""Experiment drivers: sampled long-run behavior against exact references.

The weak-LLN escape capacities are exact DP outputs frozen at first
computation; any drift there means the optimizer changed, not the model.
Sampled drivers run at reduced horizons where the assertion layout (not
the tight acceptance tolerance) is the thing under test.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from subexp import (
    AmbiguitySet,
    Event,
    FiniteDiscrete,
    Row,
    TwoSidedPareto,
    run_choquet_series,
    run_cluster_set,
    run_marcinkiewicz,
    run_slln,
    run_three_series,
    run_weak_lln,
)
from subexp import experiments, series, windows
from subexp.errors import NonFiniteVerdict
from subexp.expectation import _survival_curve
from subexp.windows import _WINDOW, _Containment, _chain, _windows
from subexp.meanset import _BLOCK_BYTES, build_direction_net, build_mean_set, support_function
from subexp.sampler import (
    BlockSchedule,
    Stationary,
    default_targets,
    oscillation_schedule,
    sample_path,
    target_chasing_schedule,
)
from conftest import make_asym3, make_e1, make_v2mix, make_v3mix

ESCAPE_CAPACITIES = {
    32: 0.379720466796234,
    64: 0.22480515849215116,
    128: 0.13784757848478585,
    256: 0.06136738970375019,
}


def test_row_rejects_a_verdict_on_a_non_finite_value():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteVerdict, match="'escape'.*'pure_max'.*seed 3.*n 7"):
            Row("escape", value, 0.1, False, "pure_max", 3, 7)
        assert not math.isfinite(Row("escape", value, 0.1, None, "pure_max", 3, 7).value)


def test_row_coerces_numpy_scalars():
    row = Row("s", np.float64(1.5), np.float64(0.1), np.bool_(True), "x", np.int64(3), np.int64(7))
    assert type(row.value) is float and type(row.tolerance) is float
    assert type(row.passed) is bool
    assert type(row.seed) is int and type(row.n) is int
    assert Row("s", 1.0, 0.0, None).passed is None


# ------------------------------------------------------------ weak LLN


def test_weak_lln_exact_frozen_capacities(e1):
    res = run_weak_lln(e1)
    got = {r.n: r.value for r in res.rows if r.statistic == "escape_capacity"}
    for n, frozen in ESCAPE_CAPACITIES.items():
        assert got[n] == pytest.approx(frozen, abs=1e-13)
    # exact escape probabilities shrink with the horizon
    mono = [r for r in res.rows if r.statistic == "escape_monotone_max_increase"]
    assert mono and mono[0].passed
    interior = [r for r in res.rows if r.statistic.startswith("interior_capacity")]
    assert interior[0].value == pytest.approx(0.9999989515489178, abs=1e-13)
    assert interior[0].passed


def test_weak_lln_phi_bank_gaps(e1):
    res = run_weak_lln(e1)
    gaps = {r.statistic: r.value for r in res.rows if r.statistic.endswith("_gap")}
    assert gaps["phi_dist_gap"] == pytest.approx(0.0267823589281415, abs=1e-13)
    assert gaps["phi_clip_gap"] == pytest.approx(0.021562946630088786, abs=1e-13)
    assert gaps["phi_peak_gap"] == pytest.approx(0.006609265445440271, abs=1e-13)
    assert all(r.passed for r in res.rows if r.statistic.endswith("_gap"))


def test_weak_lln_exact_rejects_vectors():
    with pytest.raises(ValueError):
        run_weak_lln(make_v2mix(), mode="exact")


def test_weak_lln_mc_mode(e1):
    res = run_weak_lln(e1, ns=(32, 64), mode="mc", mc_replicas=40)
    freq = [r for r in res.rows if r.statistic == "escape_frequency"]
    assert freq
    # monte carlo rows carry a CI half-width in the tolerance column
    assert all(r.tolerance > 0 for r in freq)


def make_sign_coins() -> AmbiguitySet:
    """A fair and a biased planar sign coin: S_n/n leaves their mean segment."""
    return AmbiguitySet((
        FiniteDiscrete.from_arrays([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]],
                                   [0.25] * 4),
        FiniteDiscrete.from_arrays([[-1.0, -1.0], [1.0, 1.0]], [0.25, 0.75]),
    ), label="coins")


def test_weak_lln_mc_reads_every_n_of_the_grid(monkeypatch):
    amb = make_sign_coins()
    both = run_weak_lln(amb, ns=(64, 16), mode="mc", mc_replicas=30)
    top = run_weak_lln(amb, ns=(64,), mode="mc", mc_replicas=30)
    assert both.n_grid == (16, 64)
    rows = [r for r in both.rows if r.statistic == "escape_frequency"]
    # One row per (strategy, n), in ascending n; the verdict only at the largest n.
    assert [(r.strategy, r.n) for r in rows] == [
        (s, n) for s in ("pure_0", "pure_1", "uniform_mix") for n in (16, 64)
    ]
    assert all((r.passed is None) == (r.n == 16) for r in rows)
    assert [r for r in rows if r.n == 64] == list(top.rows)
    # The n=16 rows read S_16 from the same walk: the values of a walk to 16.
    low = run_weak_lln(amb, ns=(16,), mode="mc", mc_replicas=30)
    assert [(r.value, r.tolerance) for r in rows if r.n == 16] == [
        (r.value, r.tolerance) for r in low.rows
    ]
    assert [r.value for r in low.rows] != [r.value for r in top.rows]
    # Read inside later windows, where the sums are chained.
    monkeypatch.setattr(windows, "_WINDOW", 10)
    assert run_weak_lln(amb, ns=(16, 64), mode="mc", mc_replicas=30).rows == both.rows


def test_weak_lln_mc_rows_equal_a_whole_path_referee():
    # Each seed's whole path from sample_path, S_n/n read off one cumsum,
    # and the distance from a net product built here: the 2-d net with
    # support values from support_function, not from the driver's mean set.
    amb, ns, replicas, epsilon, threshold = make_sign_coins(), (16, 64), 30, 0.1, 0.05
    directions = build_direction_net(2, 0.05)
    support = np.array([support_function(amb, p) for p in directions])
    strategies = [Stationary((1.0, 0.0), label="pure_0"), Stationary((0.0, 1.0), label="pure_1"),
                  Stationary((0.5, 0.5), label="uniform_mix")]
    grid = np.asarray(ns)
    expected = []
    for strategy in strategies:
        hits = []
        for seed in range(1, replicas + 1):
            sums = np.cumsum(sample_path(amb, strategy, ns[-1], seed).increments, axis=0)
            points = sums[grid - 1] / grid[:, None]
            dist = np.maximum((points @ directions.T - support).max(axis=1), 0.0)
            hits.append([1.0 if d >= epsilon else 0.0 for d in dist])
        for i, n in enumerate(ns):
            freq = float(np.mean([h[i] for h in hits]))
            ci = 1.96 * math.sqrt(max(freq * (1 - freq), 1e-12) / replicas)
            verdict = (freq <= threshold + ci) if n == ns[-1] else None
            expected.append(Row("escape_frequency", freq, threshold + ci, verdict,
                                strategy.label, 0, n))
    rows = run_weak_lln(amb, ns=ns, epsilon=epsilon, mode="mc", threshold=threshold,
                        mc_replicas=replicas).rows
    assert list(rows) == expected
    assert len({r.value for r in expected}) > 2 and any(0.0 < r.value < 1.0 for r in expected)


# ---------------------------------------------------------------- drivers


def test_slln_structure_and_endpoints(e1):
    res = run_slln(e1, N=1_000_000, seeds=(1,), jobs=2)
    assert res.passed
    stats = {r.statistic for r in res.rows}
    assert "endpoint_upper_gap" in stats
    assert "endpoint_lower_gap" in stats
    assert "osc_running_max" in stats
    assert any(s.startswith("target_gap_b=") for s in stats)
    assert "containment_worst_excess" in stats


def test_slln_reads_each_targets_own_path_when_their_labels_collide():
    # The mean interval [1000, 1000.002] prints every target as 1000 under
    # :g, so all five rows share one label; each must still read its own path.
    amb = AmbiguitySet((FiniteDiscrete.from_arrays([1000.0], [1.0]),
                        FiniteDiscrete.from_arrays([1000.0, 1000.004], [0.5, 0.5])))
    res = run_slln(amb, N=20_000, seeds=(1,), tol=1e-4)
    gaps = [r for r in res.rows if r.statistic.startswith("target_gap_b=")]
    assert [r.strategy for r in gaps] == ["target=1000"] * 5
    assert all(r.passed for r in gaps), [r.value for r in gaps]
    assert res.passed


def test_slln_rejects_vectors():
    with pytest.raises(ValueError):
        run_slln(make_v2mix(), N=1000)


def test_marcinkiewicz_envelope_and_control(e1):
    res = run_marcinkiewicz(e1, N=1_000_000, seeds=(1,))
    sup = [r for r in res.rows if r.statistic == "envelope_sup"]
    assert sup and sup[0].passed
    assert sup[0].value <= 0.5

    heavy = AmbiguitySet((TwoSidedPareto(1.2, 1.0, 0.9),), label="p12")
    ctrl = run_marcinkiewicz(heavy, N=100_000, seeds=(1,))
    breach = [r for r in ctrl.rows if r.statistic == "envelope_breached"]
    assert breach and breach[0].value > 0.5


def test_three_series_convergent_and_control(e1):
    res = run_three_series(e1, scale_exponent=2.0, seeds=(1,))
    verdicts = {r.statistic: r.value for r in res.rows if r.statistic.startswith("series_")}
    assert all(v == 1.0 for v in verdicts.values())
    flucts = [r for r in res.rows if r.statistic == "cauchy_fluctuation"]
    assert len(flucts) == 4
    assert all(r.passed for r in flucts)
    assert all(r.value <= 0.01 for r in flucts)

    ctrl = run_three_series(e1, scale_exponent=1.0, seeds=(1,))
    v = {r.statistic: r.value for r in ctrl.rows if r.statistic.startswith("series_")}
    assert v["series_S2_upper_convergent"] == 0.0  # harmonic drift in the top mean
    wander = [r for r in ctrl.rows if r.statistic == "tail_fluctuation"]
    assert wander
    assert max(r.value for r in wander) > 0.01  # the sampled paths do not settle


def _scaled_series_terms(amb, a_n, c):
    """Oracle: S1-S3 terms from the laws of a X, built member by member."""
    def scaled(m, a):
        if isinstance(m, TwoSidedPareto):
            return TwoSidedPareto(m.alpha, a * m.scale, m.right_mass)
        return FiniteDiscrete.from_arrays(m.values * a, m.weights)

    terms = []
    for a in a_n.tolist():
        laws = [scaled(m, a) for m in amb.members]
        tu = max(m.truncated_mean(c) for m in laws)
        terms.append((
            max(m.prob(Event("abs_gt", c)) for m in laws),
            tu,
            min(m.truncated_mean(c) for m in laws),
            max(m.truncated_second(c) - 2.0 * tu * m.truncated_mean(c) + tu * tu for m in laws),
        ))
    return tuple(np.array(column) for column in zip(*terms))


_COIN = FiniteDiscrete.from_arrays([-1.0, 1.0], [0.5, 0.5])
SERIES_MODELS = {
    "E1": make_e1(),
    "asym3": make_asym3(),
    "point_mass": AmbiguitySet((FiniteDiscrete([(2.5, 1.0)]),)),
    **{
        f"coin+pareto{alpha}-r{r}": AmbiguitySet((_COIN, TwoSidedPareto(alpha, 1.0, r)))
        for alpha in (1.05, 1.5, 2.0, 3.0) for r in (0.25, 0.5, 0.75)
    },
}


def _assert_exponents_match_the_oracle(amb, q):
    # Referee: the slope of the oracle's terms between n = 1e4 and 1e6. An
    # infinite exponent needs the term at 1e6 to vanish up to rounding.
    got = series._series_exponents(amb, q)
    terms = _scaled_series_terms(amb, np.array([1e4, 1e6]) ** -q, 1.0)
    for name, (t4, t6) in zip(("S1", "S2_upper", "S2_lower", "S3"), terms):
        if math.isinf(got[name]):
            assert abs(t6) <= 1e-15 * 1e6 ** -q, (q, name, t6)
        else:
            slope = -math.log(t6 / t4) / math.log(100.0)
            assert abs(got[name] - slope) <= 0.15, (q, name, got[name], slope)


@pytest.mark.parametrize("model", list(SERIES_MODELS))
def test_series_exponents_match_the_explicitly_scaled_laws(model):
    for q in (0.5, 1.0, 2.0):
        _assert_exponents_match_the_oracle(SERIES_MODELS[model], q)


@pytest.mark.parametrize("q", [0.8, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("model", ["E1", "mix"])
def test_series_terms_match_the_explicitly_scaled_laws(model, q):
    # A finite member with a nonzero mean beside a Pareto tail, and the
    # verdict rows of run_three_series read as beta > 1 from these exponents.
    amb = make_e1() if model == "E1" else AmbiguitySet((
        TwoSidedPareto(1.5, 1.0, 0.75),
        FiniteDiscrete.from_arrays([-1.0, 0.5, 2.0], [0.3, 0.4, 0.3]),
    ))
    _assert_exponents_match_the_oracle(amb, q)
    res = run_three_series(amb, scale_exponent=q, N=2000, N0=200)
    verdicts = {r.statistic: r.value for r in res.rows if r.statistic.startswith("series_")}
    assert verdicts == {
        f"series_{name}_convergent": float(beta > 1.0)
        for name, beta in series._series_exponents(amb, q).items()
    }


def test_three_series_takes_a_slow_pareto_tail_as_convergent():
    # S1 and S3 fall like n^-1.05: summable, though too slowly for finitely many
    # terms to show it.
    amb = AmbiguitySet((_COIN, TwoSidedPareto(1.05, 1.0, 0.5)))
    res = run_three_series(amb, scale_exponent=1.0, N=2000, N0=200)
    verdicts = {r.statistic: r.value for r in res.rows if r.statistic.startswith("series_")}
    assert verdicts == {
        "series_S1_convergent": 1.0,
        "series_S2_upper_convergent": 1.0,
        "series_S2_lower_convergent": 1.0,
        "series_S3_convergent": 1.0,
    }
    assert any(r.statistic == "cauchy_fluctuation" for r in res.rows)


@pytest.mark.parametrize("parameter, value, message", [
    pytest.param("c", 0.0, "truncation level must be positive", id="0.0"),
    pytest.param("c", -1.0, "truncation level must be positive", id="-1.0"),
    pytest.param("scale_exponent", 0.0, "level exponent must be positive",
                 id="scale_exponent-0.0"),
])
def test_three_series_rejects_a_nonpositive_level(e1, parameter, value, message):
    with pytest.raises(ValueError, match=f"{parameter}: the {message}"):
        run_three_series(e1, N=2000, N0=200, **{parameter: value})


def test_cluster_set_loose_horizon():
    v2 = make_v2mix()
    res = run_cluster_set(v2, N=100_000, seeds=(1,), tol_hausdorff=0.4)
    assert res.passed
    h = [r for r in res.rows if r.statistic == "visit_hausdorff"]
    assert h and h[0].value <= 0.4
    contain = [r for r in res.rows if r.statistic == "containment_worst_excess"]
    assert contain and all(r.passed for r in contain)


def test_cluster_set_on_a_pareto_member_has_no_containment_row():
    # The Pareto member's second moment is inf, so every containment excess
    # would read -inf and its row would raise NonFiniteVerdict. As in slln,
    # a model with a Pareto member gets no containment row.
    amb = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5), make_e1().members[0]))
    res = run_cluster_set(amb, N=5000, seeds=(1,))
    assert [r.statistic for r in res.rows] == ["visit_hausdorff"]
    assert [r.statistic for r in run_slln(amb, N=5000, seeds=(1,)).rows
            if r.statistic.startswith("containment")] == []


def test_cluster_set_rejects_more_targets_than_block_ends_in_a_short_message():
    # Steps 1000..2500 hold 1501 block ends, so 2000 targets cannot each get one.
    with pytest.raises(ValueError, match="2000 targets.*1000..2500") as info:
        run_cluster_set(make_e1(), m_targets=2000, N=2500, seeds=(1,))
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("driver, amb, horizon", [
    pytest.param(run_slln, make_e1(), {"N": 3000, "seeds": ()}, id="slln"),
    pytest.param(run_marcinkiewicz, make_e1(), {"N": 3000, "seeds": ()}, id="marcinkiewicz"),
    pytest.param(run_marcinkiewicz, AmbiguitySet((TwoSidedPareto(1.8, 1.0, 0.5),)),
                 {"N": 3000, "seeds": ()}, id="marcinkiewicz-pareto"),
    pytest.param(run_weak_lln, make_e1(), {"ns": (3000,), "mode": "mc", "mc_replicas": 0},
                 id="weak_lln-mc"),
    pytest.param(run_three_series, make_e1(), {"N": 3000, "seeds": ()}, id="three_series"),
    pytest.param(run_cluster_set, make_v2mix(), {"N": 3000, "seeds": ()}, id="cluster_set"),
])
def test_sampled_driver_without_seeds_raises(driver, amb, horizon):
    # No seed means no path: a verdict over none would pass vacuously.
    with pytest.raises(ValueError, match="a sampled experiment needs at least one seed"):
        driver(amb, **horizon)


# ------------------------------------------------------------ streaming


def _whole_gap_excess(amb, mean_set, ns, means) -> float:
    """Worst containment excess from one gap matrix over all the rows given."""
    s2 = max(m.second_moment() for m in amb.members)
    if means.ndim == 1:
        means = means[:, None]
    gaps = means @ mean_set.directions.T - mean_set.support_values
    dist = np.maximum(gaps.max(axis=1), 0.0)
    return float((dist - 4.0 * np.sqrt(s2 / ns)).max())


def _block_rows(mean_set) -> int:
    """Rows of one gap block: as many as fit in _BLOCK_BYTES against the net."""
    return max(1, _BLOCK_BYTES // (8 * len(mean_set.support_values)))


def _unchunked_excess(amb, mean_set, path) -> float:
    """Worst containment excess from one gap matrix over the whole tail."""
    start = max(1, path.n // 100)
    ns = np.arange(start, path.n + 1, dtype=float)
    sums = np.cumsum(path.increments, axis=0)[start - 1 :]
    return _whole_gap_excess(amb, mean_set, ns, sums / (ns[:, None] if sums.ndim == 2 else ns))


def _chunking_case(model: str, n: int):
    """(model, mean set, strategy) whose worst excess falls late or first in the tail."""
    if model == "E1":
        e1 = make_e1()
        return e1, build_mean_set(e1, delta=0.05), oscillation_schedule(e1, 4, factor=4.0)
    # Against the mean set of the second member alone: the path draws from
    # the first member until the tail starts and then from the second, so
    # the worst excess falls early in the tail.
    amb = make_v2mix() if model == "V2mix" else make_v3mix()
    plan = BlockSchedule((n // 100, n), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    return amb, build_mean_set(AmbiguitySet(amb.members[1:2]), delta=0.05), plan


# (model, n, window): each long n spans two windows, and the 3-d case
# shrinks the window so that its reference gap matrix stays small.
_CHUNKING_CASES = [
    ("E1", 1000, _WINDOW),
    ("V2mix", 1000, _WINDOW),
    ("E1", 20_603, _WINDOW),
    ("V2mix", 20_603, _WINDOW),
    ("V3mix", 2 * 512 + 213, 512),
]


@pytest.mark.parametrize(
    "model, n, window", _CHUNKING_CASES, ids=[f"{m}-{n}" for m, n, _ in _CHUNKING_CASES]
)
def test_containment_excess_does_not_depend_on_chunking(monkeypatch, model, n, window):
    monkeypatch.setattr(windows, "_WINDOW", window)
    amb, mean_set, strategy = _chunking_case(model, n)
    path = sample_path(amb, strategy, n, seed=3)
    containment = _Containment(amb, mean_set, 0.05)
    if n > window:
        # The tail starts off a multiple of the block height, and no window
        # (the first from the tail on, a full one, the last) is whole blocks.
        k, tail = _block_rows(mean_set), n // 100 - 1
        assert tail % k and (window - tail) % k and window % k and (n % window) % k
    worst, carry = -math.inf, None
    for _, ns, sums, tail in _windows(amb, [strategy], n, 3):
        carry = _chain(sums, carry)
        worst = containment.fold(worst, ns, sums, tail)
    row = containment.row(worst, strategy.label, 3, n)
    assert row.value == _unchunked_excess(amb, mean_set, path)
    assert (row.strategy, row.seed, row.n) == (strategy.label, 3, n)


@pytest.mark.parametrize("model", ["V2mix", "V3mix"])
@pytest.mark.parametrize("edge", ["first", "block_last", "block_next", "last"])
def test_containment_fold_reads_every_row_of_every_block(model, edge):
    # One far point among zero sums carries the worst excess; it sits on the
    # first tail row, on the last row of the first block, on the first row
    # of the second, or on the window's last row, in a partial block.
    amb = make_v2mix() if model == "V2mix" else make_v3mix()
    mean_set = build_mean_set(amb, delta=0.05)
    containment = _Containment(amb, mean_set, 0.05)
    k, tail = _block_rows(mean_set), 7
    ns = np.arange(1, tail + 3 * k + 5 + 1, dtype=float)
    at = {"first": tail, "block_last": tail + k - 1, "block_next": tail + k, "last": len(ns) - 1}
    sums = np.zeros((len(ns), amb.dim))
    sums[at[edge], 0] = 10.0 * ns[at[edge]]
    worst = containment.fold(-math.inf, ns, sums, tail)
    assert worst == _whole_gap_excess(amb, mean_set, ns[tail:], sums[tail:] / ns[tail:, None])
    assert worst > 5.0


@pytest.mark.parametrize("model", ["E1", "V2mix"])
def test_containment_keeps_a_nan_from_a_later_block(model):
    # Python's max(worst, nan) keeps worst. The NaN at row 4500 follows
    # finite rows (in 2-d, finite blocks) and a finite prior worst, yet the
    # value is NaN and the row has no verdict to give.
    amb = make_e1() if model == "E1" else make_v2mix()
    containment = _Containment(amb, build_mean_set(amb, delta=0.05), 0.05)
    ns = np.arange(1, 5001, dtype=float)
    sums = np.zeros((5000, amb.dim)) if amb.dim > 1 else np.zeros(5000)
    sums[4500] = math.nan
    worst = containment.fold(-1.0, ns, sums, 50)
    assert math.isnan(worst)
    assert math.isnan(containment.fold(worst, ns, np.zeros_like(sums), 50))
    with pytest.raises(NonFiniteVerdict, match="containment_worst_excess"):
        containment.row(worst, "pure_0", 1, 5000)


@pytest.mark.parametrize("model", ["E1", "asym3"])
def test_containment_closed_form_matches_net_product(monkeypatch, model):
    # E1's fair member against the mean set {0.5} of its other member keeps
    # the distance positive; asym3's interval is not symmetric about 0.
    if model == "E1":
        amb = make_e1()
        mean_set = build_mean_set(AmbiguitySet(amb.members[1:]), delta=0.05)
        strategy = Stationary((1.0, 0.0))
    else:
        amb = make_asym3()
        mean_set = build_mean_set(amb, delta=0.05)
        strategy = oscillation_schedule(amb, 4, factor=4.0)
    monkeypatch.setattr(windows, "_WINDOW", 5000)
    n = 3 * 5000 + 77
    containment = _Containment(amb, mean_set, 0.05)
    worst, carry = -math.inf, None
    for _, ns, sums, tail in _windows(amb, [strategy], n, 5):
        carry = _chain(sums, carry)
        worst = containment.fold(worst, ns, sums, tail)
    path = sample_path(amb, strategy, n, seed=5)
    assert worst == _unchunked_excess(amb, mean_set, path)


@pytest.mark.parametrize("window", [256, 4096, 5000])
def test_rows_do_not_depend_on_window(monkeypatch, window):
    # 256 leaves whole windows before the burn-in ends; 4096 and 5000 are no
    # multiples of V2mix's 520-row block. The reference walks each path, and
    # sums each capacity series, in one window.
    n = 50_000
    mixed = AmbiguitySet((make_e1().members[0], TwoSidedPareto(1.2, 2.0, 0.5)), label="mixed")
    runs = [
        lambda: run_slln(make_e1(), N=n, seeds=(1, 2), jobs=1),
        lambda: run_cluster_set(make_v2mix(), N=n, seeds=(1,), jobs=1),
        lambda: run_marcinkiewicz(make_e1(), N=n, seeds=(1, 2), jobs=1),
        lambda: run_weak_lln(make_v2mix(), ns=(n,), mode="mc", mc_replicas=3, jobs=1),
        lambda: run_choquet_series(mixed, p=1.5, M=1.3, K=n),
        lambda: run_three_series(make_e1(), N=n, N0=1000, seeds=(1, 2)),
    ]
    # The engine's window, and the window of capacity-series terms.
    for module in (windows, series):
        monkeypatch.setattr(module, "_WINDOW", n)
    whole = [run().rows for run in runs]
    for module in (windows, series):
        monkeypatch.setattr(module, "_WINDOW", window)
    assert [run().rows for run in runs] == whole


@pytest.mark.parametrize("window", [256, 1000])
def test_three_series_rows_do_not_depend_on_window(monkeypatch, window):
    # E1 at q=2 takes the Cauchy branch; Pareto 1.5 at q=0.5 fails S1 and
    # counts large increments. N0 falls inside the second 256-step window.
    pareto = AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),), label="p15")
    runs = [
        lambda: run_three_series(make_e1(), N=3000, N0=500, seeds=(1, 2)),
        lambda: run_three_series(pareto, scale_exponent=0.5, N=3000, N0=500, seeds=(1,)),
    ]
    monkeypatch.setattr(windows, "_WINDOW", 3000)
    whole = [run().rows for run in runs]
    assert any(r.statistic == "large_increments_after_N0" and r.value > 0 for r in whole[1])
    monkeypatch.setattr(windows, "_WINDOW", window)
    assert [run().rows for run in runs] == whole


def test_cluster_visits_are_partial_sums_at_visit_ends(monkeypatch):
    # Oracle: the whole path's partial sums at the visit ends. On this case
    # the Hausdorff value moves if any visit is read one step early or late.
    e1, n = make_e1(), 20_000
    monkeypatch.setattr(windows, "_WINDOW", 4096)
    got = [r.value for r in run_cluster_set(e1, m_targets=3, N=n, seeds=(1,)).rows
           if r.statistic == "visit_hausdorff"]
    targets, mixtures = default_targets(e1, 3)
    chasing = target_chasing_schedule(mixtures, n)
    ends = np.asarray(chasing.ends)
    visits = np.cumsum(sample_path(e1, chasing, n, seed=1).increments)[ends - 1] / ends
    d = np.abs(targets[:, None] - visits[None, :])
    assert got == [max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "driver, amb", [(run_slln, make_e1()), (run_cluster_set, make_v2mix())],
    ids=["slln", "cluster_set"],
)
def test_peak_memory_does_not_grow_with_seeds(driver, amb):
    # Each task reduces its own path, so six seeds hold no more than one.
    # Growth read 11 KB (slln) and 46 KB (cluster_set) over one-seed peaks
    # of 0.62 and 1.03 MB. The bound is on the growth, not on a ratio,
    # which a smaller one-seed peak would tighten.
    driver(amb, N=200_000, seeds=(1,), jobs=1)  # warm-up: imports and caches
    one = _traced_peak(lambda: driver(amb, N=200_000, seeds=(1,), jobs=1))
    six = _traced_peak(lambda: driver(amb, N=200_000, seeds=tuple(range(1, 7)), jobs=1))
    assert six - one <= 128 * 2**10
    assert six < 64 * 2**20


def test_two_seeds_at_two_jobs_hold_about_two_tasks():
    # Each task owns one window workspace, and the calling thread is one of
    # the two workers. 20 repeats read 1.86-2.00 (1.94-2.07 with a thread
    # pool and per-window arrays).
    amb = make_e1()
    run_slln(amb, N=200_000, seeds=(1,), jobs=1)  # warm-up: imports and caches
    one = _traced_peak(lambda: run_slln(amb, N=200_000, seeds=(1,), jobs=1))
    two = _traced_peak(lambda: run_slln(amb, N=200_000, seeds=(1, 2), jobs=2))
    assert two <= 2.1 * one


@pytest.mark.parametrize("amb", [make_asym3(), make_v2mix()], ids=["1d", "2d"])
def test_windows_yield_views_of_one_workspace(monkeypatch, amb):
    # No window allocates: every array yielded for a seed views one buffer.
    monkeypatch.setattr(windows, "_WINDOW", 64)
    k = len(amb.members)
    plans = [Stationary(tuple(1.0 / k for _ in range(k))),
             Stationary(tuple(float(j == 0) for j in range(k)))]
    arrays = [a for _, ns, x, _ in _windows(amb, plans, 300, seed=3) for a in (ns, x)]
    assert len(arrays) == 2 * 2 * 5
    base = arrays[0].base
    assert base is not None and all(a.base is base for a in arrays)


# (driver at horizon n, short horizon, bound in KiB on the long - short
# peak growth). Growth read 43 KB (slln), 46 KB (cluster_set), 48 B
# (choquet_series) and 0.9 KB (three_series). choquet_series read 3.1 and
# 12.6 MiB when it held every term, and three_series grew 298 KB with a
# tuple of N/100 block ends and 52 KB with a tuple of N/100 mixtures.
_HORIZON_CASES = {
    "slln": (lambda n: run_slln(make_e1(), N=n, seeds=(1,), jobs=1), 200_000, 96),
    "cluster_set": (lambda n: run_cluster_set(make_v2mix(), N=n, seeds=(1,), jobs=1), 200_000, 128),
    "choquet_series": (
        lambda n: run_choquet_series(AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),)), K=n),
        100_000, 8,
    ),
    "three_series": (lambda n: run_three_series(make_e1(), N=n, N0=1000, seeds=(1,)), 200_000, 16),
}


@pytest.mark.parametrize("case", sorted(_HORIZON_CASES))
def test_peak_memory_does_not_grow_with_horizon(case):
    # Each task walks its path in windows, and the capacity series is summed
    # one window of terms at a time, so a 4x longer horizon costs no more.
    run, n, growth_kib = _HORIZON_CASES[case]
    run(n)  # warm-up: imports and caches
    short = _traced_peak(lambda: run(n))
    long = _traced_peak(lambda: run(4 * n))
    assert long - short <= growth_kib * 2**10
    assert long < 16 * 2**20


def _choquet_cases():
    coin = make_e1().members[0]
    atoms = FiniteDiscrete.from_arrays([-50.0, 0.0, 3.0], [0.2, 0.5, 0.3])
    return {
        "finite": AmbiguitySet((coin, atoms)),
        "pareto": AmbiguitySet((TwoSidedPareto(1.5, 1.0, 0.5),)),
        "mixed": AmbiguitySet((atoms, TwoSidedPareto(1.2, 2.0, 0.5))),
    }


@pytest.mark.parametrize("K", [1000, 8_192, 8_193, 16_384, 16_385, 100_001])
@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("model", ["finite", "pareto", "mixed"])
def test_choquet_series_windowed_terms_equal_the_whole_array(monkeypatch, model, p, K):
    # Reference: every term in one array, as the sums were taken before they
    # were windowed. Each fsum must see the same terms bit for bit, the K of
    # S_K and the first K/10 of S_{K/10}, and S_K is the row's value.
    amb, M = _choquet_cases()[model], 1.3
    terms = _survival_curve(amb, M * np.arange(1, K + 1, dtype=float) ** (1.0 / p))
    fsum, seen = math.fsum, []

    def recording_fsum(xs):
        seen.append(list(xs))
        return fsum(seen[-1])

    # The driver's own math module only: the moment calculus sums its pieces too.
    monkeypatch.setattr(series, "math", SimpleNamespace(**{**vars(math), "fsum": recording_fsum}))
    rows = run_choquet_series(amb, p=p, M=M, K=K).rows
    assert seen == [terms.tolist(), terms[: K // 10].tolist()]
    partial = next(r.value for r in rows if r.statistic == "series_partial_sum")
    assert partial == fsum(terms)


def test_choquet_series_asks_one_window_of_thresholds_at_a_time(monkeypatch):
    sizes = []

    def recording_curve(amb, ts):
        sizes.append(len(ts))
        return _survival_curve(amb, ts)

    monkeypatch.setattr(series, "_survival_curve", recording_curve)
    K = 5 * _WINDOW + 7
    run_choquet_series(_choquet_cases()["mixed"], K=K)
    assert max(sizes) <= _WINDOW
    # K terms for S_K, then K/10 again for S_{K/10}.
    assert sum(sizes) == K + K // 10


def test_slln_peak_memory_is_a_few_windows():
    # A task reuses one window's uniform buffers for every strategy and
    # holds one strategy's window at a time: 0.60-0.67 MiB measured. The
    # bound is about 1.5 times that; 16 384-step windows read 1.14-1.16 MiB.
    run_slln(make_e1(), N=200_000, seeds=(1, 2, 3), jobs=1)  # warm-up: imports and caches
    peak = _traced_peak(lambda: run_slln(make_e1(), N=200_000, seeds=(1, 2, 3), jobs=1))
    assert peak <= 0.95 * 2**20


def test_cluster_set_peak_memory_is_a_few_blocks():
    # 0.97-1.01 MiB measured with 520-row gap blocks and 8 192-step windows;
    # 1.37-1.38 MiB with 16 384-step windows and 4.92 MiB when a block held
    # 4096 rows (4 MB), so the bound sits between the first two.
    v2 = make_v2mix()
    run_cluster_set(v2, N=200_000, seeds=(1, 2, 3), jobs=1)  # warm-up: imports and caches
    peak = _traced_peak(lambda: run_cluster_set(v2, N=200_000, seeds=(1, 2, 3), jobs=1))
    assert peak <= 1.3 * 2**20


def test_cluster_set_peak_memory_in_3d_is_a_budget():
    # The 3-d net has 6400 directions: a 4096-row block took 200 MiB, and a
    # block sized by _BLOCK_BYTES keeps the whole run under 1 MiB.
    v3 = make_v3mix()
    run_cluster_set(v3, N=5000, seeds=(1,), jobs=1)  # warm-up: imports and caches
    peak = _traced_peak(lambda: run_cluster_set(v3, N=5000, seeds=(1,), jobs=1))
    assert peak <= 3 * _BLOCK_BYTES


def test_drivers_never_sample_a_whole_horizon():
    # Every sample_path call outside the sampler draws one window (start=...),
    # so no driver can hold a whole path again without this test noticing.
    # Every module of the package is parsed, so a call in a new module counts.
    import ast
    from pathlib import Path

    calls = [
        (path.name, node)
        for path in sorted(Path(windows.__file__).parent.glob("*.py")) if path.name != "sampler.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "sample_path" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert {name for name, _ in calls} == {"windows.py"}, "only the window engine samples"
    for name, call in calls:
        assert "start" in {kw.arg for kw in call.keywords}, f"{name}:{call.lineno}: no start="


def test_the_window_engine_builds_no_strategy():
    # The sampler builds every strategy; the engine only hashes and draws.
    import ast
    from pathlib import Path

    tree = ast.parse(Path(windows.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "sampler"
                for alias in node.names}
    assert imported == {"hash_window", "sample_path"}


def test_marcinkiewicz_keeps_a_nan_window(monkeypatch, e1):
    # NaN sums in every window after the first: a max that dropped them left
    # envelope_sup at 0.700, a verdict on the first window alone.
    def poisoned(x, carry):
        out = _chain(x, carry)
        if carry is not None:
            x[:] = math.nan
        return out

    monkeypatch.setattr(experiments, "_chain", poisoned)
    with pytest.raises(NonFiniteVerdict, match="'envelope_sup'"):
        run_marcinkiewicz(e1, N=3 * _WINDOW, seeds=(1,))


def test_slln_oscillation_extremes_keep_a_nan_window(monkeypatch):
    # NaN in the oscillation strategy's later windows only, on a model with
    # no containment row: its running max and min must both turn NaN.
    amb = AmbiguitySet(
        (TwoSidedPareto(3.0, 1.0, 0.5), FiniteDiscrete.from_arrays([-1.0, 1.0], [0.25, 0.75]))
    )

    def poisoned(amb, strategies, N, seed):
        for j, ns, x, tail in _windows(amb, strategies, N, seed):
            if strategies[j].label == "oscillation" and ns[0] > 1:
                x[:] = math.nan
            yield j, ns, x, tail

    values = {}

    def recorded(statistic, value, *rest):
        values.setdefault(statistic, value)
        return Row(statistic, 0.0, *rest)

    monkeypatch.setattr(experiments, "_windows", poisoned)
    monkeypatch.setattr(experiments, "Row", recorded)
    run_slln(amb, N=3 * _WINDOW, seeds=(1,))
    assert math.isnan(values["osc_running_max"])
    assert math.isnan(values["osc_running_min"])
    assert math.isfinite(values["endpoint_upper_gap"])
