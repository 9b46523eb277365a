"""End-to-end acceptance: one test per pinned claim about the laboratory.

Each test prints the values it judges, so a `pytest -v -s` run doubles as a
numerical report. Tolerances and regression constants are fixed here; a red
test means the implementation genuinely misses the pinned target.

Criterion 6 checks its 0.05 escape threshold at n=512, not n=256. The weak
law gives no rate at finite n, and at n=256 no correct program meets 0.05:
the upper capacity is at least the fair member's own escape probability
P(S_256 <= -26) = 0.05899885244202633. On the E1 model the exact capacity
(0.06136738970375019 at n=256) first reaches 0.05 or below at n=264.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_lattice_instance
from subexp import (
    AmbiguitySet,
    Event,
    TargetOutOfRange,
    TerminalSum,
    TwoSidedPareto,
    brute_force_value,
    dp_value,
    parse_config,
    run,
    run_axioms,
    run_choquet_series,
    run_cluster_set,
    run_inequality_grid,
    run_marcinkiewicz,
    run_slln,
    run_three_series,
    run_weak_lln,
    stationary_for_target,
)

GAP_TOL = 1e-12

# exact DP at epsilon = 0.1, locked after first computation
ESCAPE_CAPACITY = {
    32: 0.379720466796234,
    64: 0.22480515849215116,
    128: 0.13784757848478585,
    256: 0.06136738970375019,
    512: 0.012131376771867607,
}

E1_DOC = {
    "model": {
        "label": "E1",
        "members": [
            {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
            {"kind": "finite", "atoms": [[-1.0, 0.25], [1.0, 0.75]]},
        ],
    },
    "experiment": "slln",
    "parameters": {"N": 1_000_000},
    "seeds": [1, 2, 3],
}


@pytest.fixture(scope="module")
def slln_million(e1):
    """Endpoint/oscillation/target run shared by the two path-law criteria."""
    t0 = time.monotonic()
    result = run_slln(e1, N=1_000_000, seeds=(1, 2, 3), jobs=4)
    return result, time.monotonic() - t0


def test_criterion_01_randomized_axiom_suite(e1):
    t0 = time.monotonic()
    gaps = {r.statistic: r for r in run_axioms(e1, trials=1000, axiom_seed=3517).rows}
    elapsed = time.monotonic() - t0
    worst = max(r.value for r in gaps.values())
    print(f"\naxioms: 1000 trials, worst gap {worst:.3e}, {elapsed:.1f}s")
    for name, row in gaps.items():
        assert row.passed, f"{name}: worst gap {row.value:.3e}"
    assert worst <= GAP_TOL
    assert elapsed < 60.0


def test_criterion_02_dp_matches_brute_force_oracle(e1):
    t0 = time.monotonic()
    hit2 = TerminalSum(Event("ge", 2.0).holds)
    anchors = {
        "upper": dp_value(e1, hit2, 2, "upper"),
        "lower": dp_value(e1, hit2, 2, "lower"),
    }
    print(f"\nS_2>=2 anchors: upper {anchors['upper']!r}, lower {anchors['lower']!r}")
    assert anchors["upper"] == pytest.approx(0.5625, abs=GAP_TOL)
    assert anchors["lower"] == pytest.approx(0.25, abs=GAP_TOL)
    for side, val in anchors.items():
        assert brute_force_value(e1, hit2, 2, side) == pytest.approx(val, abs=GAP_TOL)

    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(200):
        amb, functional, n, side = random_lattice_instance(rng)
        gap = abs(dp_value(amb, functional, n, side) - brute_force_value(amb, functional, n, side))
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    print(f"200 random instances: worst dp-vs-enumeration gap {worst:.3e}, {elapsed:.1f}s")
    assert worst <= GAP_TOL
    assert elapsed < 120.0


def test_criterion_03_inequality_grid_zero_violations(e1):
    t0 = time.monotonic()
    rows = run_inequality_grid(
        e1,
        whichs=("kolmogorov_upper", "kolmogorov_lower", "exponential"),
        ns=(4, 8, 16),
        xs=(1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0),
        levy_alphas=(),
        jobs=4,
    ).rows
    violations = [r for r in rows if not r.passed]
    assert len(rows) == 72
    for r in violations:
        print(f"VIOLATION {r.statistic}: lhs {r.value!r} > rhs {r.tolerance!r}")
    assert not violations

    # n = 32, 64 and 128 are the sizes of the benchmark's exact_dp grid.
    levy = run_inequality_grid(
        e1, whichs=[], ns=(4, 8, 16, 32, 64, 128), xs=(1.0, 2.0, 3.0), levy_alphas=(0.3, 0.5),
        jobs=4,
    ).rows
    assert len(levy) == 36
    assert [r.statistic for r in levy if not r.passed] == []
    elapsed = time.monotonic() - t0
    print(f"\n72 capacity-vs-bound rows + 36 maximal-vs-terminal rows clean, {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_04_slln_endpoints_and_oscillation(slln_million):
    result, elapsed = slln_million
    rows = result.rows
    upper = [r for r in rows if r.statistic == "endpoint_upper_gap"]
    lower = [r for r in rows if r.statistic == "endpoint_lower_gap"]
    osc_max = [r for r in rows if r.statistic == "osc_running_max"]
    osc_min = [r for r in rows if r.statistic == "osc_running_min"]
    assert len(upper) == len(lower) == len(osc_max) == len(osc_min) == 3
    print(f"\n|S_N/N - 0.5| under pure max: {[round(r.value, 6) for r in upper]}")
    print(f"|S_N/N - 0| under pure min: {[round(r.value, 6) for r in lower]}")
    print(f"oscillation running max: {[round(r.value, 4) for r in osc_max]}")
    print(f"oscillation running min: {[round(r.value, 4) for r in osc_min]}")
    print(f"elapsed {elapsed:.1f}s")
    for r in upper + lower:
        assert r.value <= 0.01, (r.statistic, r.seed, r.value)
    for r in osc_max:
        assert r.value >= 0.45, (r.seed, r.value)
    for r in osc_min:
        assert r.value <= 0.05, (r.seed, r.value)
    assert elapsed < 60.0


def test_criterion_05_interval_targets_hit_and_boundary_enforced(slln_million, e1):
    result, _ = slln_million
    targets = [r for r in result.rows if r.statistic.startswith("target_gap_b=")]
    bs = sorted({float(r.statistic.split("=")[1]) for r in targets})
    gaps = {b: max(r.value for r in targets if r.statistic.endswith(f"={b:g}")) for b in bs}
    print(f"\ntarget gaps at N=10^6: { {b: round(g, 6) for b, g in gaps.items()} }")
    assert bs == [0.0, 0.125, 0.25, 0.375, 0.5]
    for b, gap in gaps.items():
        assert gap <= 0.01, (b, gap)
    with pytest.raises(TargetOutOfRange):
        stationary_for_target(e1, 0.7)


def test_criterion_06_weak_lln_exact_escape_decay(e1):
    ns = (32, 64, 128, 256, 512)
    result = run_weak_lln(e1, ns=ns, epsilon=0.1, mode="exact", threshold=0.05)
    caps = {r.n: r.value for r in result.rows if r.statistic == "escape_capacity"}
    print(f"\nescape capacities: { {n: repr(v) for n, v in sorted(caps.items())} }")
    for n, pinned in ESCAPE_CAPACITY.items():
        assert caps[n] == pytest.approx(pinned, abs=1e-13), n
    seq = [caps[n] for n in ns]
    assert all(b <= a + 1e-15 for a, b in zip(seq, seq[1:]))

    phi_gaps = {r.statistic: r.value for r in result.rows if r.statistic.endswith("_gap")}
    print(f"test-bank gaps at n=512: { {k: round(v, 6) for k, v in phi_gaps.items()} }")
    assert len(phi_gaps) == 3
    for name, gap in phi_gaps.items():
        assert gap <= 0.05, (name, gap)

    # At n=256 the fair member alone escapes below 0 - 0.1 (S_256 <= -26)
    # with probability above 0.05, so the threshold is judged at n=512.
    tail = sum(math.comb(256, k) for k in range(116)) / 2**256
    print(f"fair-member lower tail at n=256: {tail!r}")
    assert caps[256] >= tail > 0.05
    assert caps[512] <= 0.05, f"escape capacity at n=512 is {caps[512]!r}, above the 0.05 pin"
    top = [r for r in result.rows if r.statistic == "escape_capacity" and r.n == 512]
    assert len(top) == 1 and top[0].passed is True


def test_criterion_07_marcinkiewicz_envelope_and_heavy_tail_control(e1):
    result = run_marcinkiewicz(e1, p=1.5, N=1_000_000, seeds=(1, 2, 3), envelope=0.5, jobs=4)
    sups = [r for r in result.rows if r.statistic == "envelope_sup"]
    assert len(sups) == 3
    print(f"\n|S_n - 0.5 n| / n^(2/3) sup over n >= 10^4: {[round(r.value, 4) for r in sups]}")
    for r in sups:
        assert r.passed and r.value <= 0.5, (r.seed, r.value)

    heavy = AmbiguitySet((TwoSidedPareto(1.2, 1.0, 0.9),), label="p12")
    ctrl = run_marcinkiewicz(heavy, p=1.5, N=100_000, seeds=(1,))
    breach = [r for r in ctrl.rows if r.statistic == "envelope_breached"]
    assert breach, "heavy-tail control never left the envelope"
    print(f"control sup under alpha=1.2: {breach[0].value!r}")
    assert breach[0].value > 0.5
    assert any(r.statistic == "series_verdict_divergent" for r in ctrl.rows)


def test_criterion_08_three_series_convergence_and_control(e1):
    result = run_three_series(e1, scale_exponent=2.0, c=1.0, fluct_tol=0.01, seeds=(1,))
    verdicts = {r.statistic: r.value for r in result.rows if r.statistic.startswith("series_")}
    cauchy = [r for r in result.rows if r.statistic == "cauchy_fluctuation"]
    print(f"\nn^-2 scaling verdicts: {verdicts}")
    print(f"tail fluctuation by strategy: { {r.strategy: round(r.value, 6) for r in cauchy} }")
    assert verdicts == {
        "series_S1_convergent": 1.0,
        "series_S2_upper_convergent": 1.0,
        "series_S2_lower_convergent": 1.0,
        "series_S3_convergent": 1.0,
    }
    assert len(cauchy) == 4
    for r in cauchy:
        assert r.passed and r.value <= 0.01, (r.strategy, r.value)

    ctrl = run_three_series(e1, scale_exponent=1.0, c=1.0, seeds=(1,))
    ctrl_verdicts = {r.statistic: r.value for r in ctrl.rows if r.statistic.startswith("series_")}
    drift = [r for r in ctrl.rows if r.statistic == "tail_fluctuation"]
    print(f"n^-1 control verdicts: {ctrl_verdicts}")
    print(f"control drift witness: sup fluctuation {max(r.value for r in drift)!r}")
    assert ctrl_verdicts["series_S2_upper_convergent"] == 0.0
    assert max(r.value for r in drift) > 0.01


def test_criterion_09_choquet_moment_matches_series_verdict():
    def series(alpha, p, K):
        result = run_choquet_series(AmbiguitySet((TwoSidedPareto(alpha, 1.0, 0.5),)), p=p, K=K)
        return {r.statistic: r for r in result.rows}

    fin = series(1.5, p=1.0, K=100_000)
    print(f"\nalpha=1.5, p=1: convergent {fin['series_convergent'].value}, "
          f"C_V(|X|) = {fin['choquet_value'].value!r}")
    assert fin["series_convergent"].value == 1.0
    assert fin["equivalence_consistent"].passed and fin["series_ratio_matched"].passed
    assert fin["choquet_value"].value == pytest.approx(3.0, abs=1e-6)

    div = series(1.2, p=1.5, K=20_000)
    print(f"alpha=1.2, p=1.5: convergent {div['series_convergent'].value}, "
          f"C_V(|X|^p) = {div['choquet_value'].value!r}")
    assert div["series_convergent"].value == 0.0
    assert div["equivalence_consistent"].passed
    assert math.isinf(div["choquet_value"].value)


def test_criterion_10_planar_cluster_set(v2mix):
    t0 = time.monotonic()
    result = run_cluster_set(
        v2mix, m_targets=5, N=1_000_000, seeds=(1, 2, 3),
        tol_outer=0.05, tol_hausdorff=0.15, jobs=4,
    )
    elapsed = time.monotonic() - t0
    excess = [r for r in result.rows if r.statistic == "containment_worst_excess"]
    haus = [r for r in result.rows if r.statistic == "visit_hausdorff"]
    print(f"\nworst containment excess: {max(r.value for r in excess)!r}")
    print(f"visit-set Hausdorff by seed: {[round(r.value, 4) for r in haus]}")
    print(f"elapsed {elapsed:.1f}s")
    assert excess and haus
    for r in excess + haus:
        assert r.passed, (r.statistic, r.strategy, r.seed, r.value)
    assert elapsed < 180.0


def test_criterion_11_csv_bytes_identical_across_parallelism(tmp_path):
    config = parse_config(json.dumps(E1_DOC))
    assert run(config, out=str(tmp_path / "j1"), jobs=1) == 0
    assert run(config, out=str(tmp_path / "j8"), jobs=8) == 0
    b1 = (tmp_path / "j1" / "results.csv").read_bytes()
    b8 = (tmp_path / "j8" / "results.csv").read_bytes()
    print(f"\nresults.csv: {len(b1)} bytes at jobs=1, {len(b8)} bytes at jobs=8")
    assert b1 == b8
