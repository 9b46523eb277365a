"""Randomized property suite over generated ambiguity sets."""

import numpy as np

from subexp import random_ambiguity_set, random_max_affine, run_axioms


def test_suite_passes_at_tight_tolerance(e1):
    result = run_axioms(e1, trials=200, axiom_seed=123)
    assert result.passed
    assert result.n_grid == (200,)
    assert [r.statistic for r in result.rows] == [
        "monotonicity",
        "constant_preserving",
        "subadditivity",
        "positive_homogeneity",
        "conjugacy",
        "sandwich",
        "distributional_invariance",
        "choquet_dominates_mean",
    ]
    for row in result.rows:
        assert row.passed
        assert row.value <= 1e-12
        assert row.n == 200


def test_suite_is_deterministic(e1):
    a = run_axioms(e1, trials=50, axiom_seed=7)
    b = run_axioms(e1, trials=50, axiom_seed=7)
    assert [(r.statistic, r.value) for r in a.rows] == [(r.statistic, r.value) for r in b.rows]


def test_random_generators_produce_valid_objects():
    rng = np.random.default_rng(99)
    for _ in range(50):
        amb = random_ambiguity_set(rng)
        assert 1 <= len(amb.members) <= 5
        for m in amb.members:
            assert abs(float(np.sum(m.weights)) - 1.0) < 1e-9
        f = random_max_affine(rng)
        fx = f(rng.normal(size=4))
        assert fx.shape == (4,) and np.all(np.isfinite(fx))


def test_vector_sets_supported():
    rng = np.random.default_rng(5)
    amb = random_ambiguity_set(rng, dim=2)
    assert amb.dim == 2
    assert amb.member_means().shape == (len(amb.members), 2)
