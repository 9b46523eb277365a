"""The randomized axiom suite, `run_axioms`: random instances and the gaps
each property shows on one.

Instances are small finite ambiguity sets with max-affine test functions,
which map a member's atom array to one value per atom. Every expectation in a
check is an exact weighted sum, so the axioms must hold to accumulation error
(1e-12), not to statistical tolerance.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .distributions import AmbiguitySet, Event, FiniteDiscrete
from .expectation import choquet_integral, event_upper_capacity, lower_expectation, upper_expectation
from .runner import ExperimentResult, Row, _raise_worst

__all__ = ["random_ambiguity_set", "random_max_affine", "run_axioms"]


def random_ambiguity_set(rng: np.random.Generator, dim: int = 1) -> AmbiguitySet:
    """1 to 5 finite members of 2 to 6 distinct atoms each, in dimension dim."""
    members = []
    for _ in range(int(rng.integers(1, 6))):
        k = int(rng.integers(2, 7))
        while True:
            if dim == 1:
                values = np.round(rng.normal(0.0, 2.0, size=k), 6)
            else:
                values = np.round(rng.normal(0.0, 2.0, size=(k, dim)), 6)
            # Equal tuples hash alike, and -0.0 == 0.0, so a set merges equal atoms.
            if len(set(map(tuple, values.reshape(k, -1).tolist()))) == k:
                break
        weights = rng.dirichlet(np.ones(k))
        members.append(FiniteDiscrete.from_arrays(values, weights))
    return AmbiguitySet(tuple(members), label="random")


def random_max_affine(rng: np.random.Generator) -> Callable:
    """max of 1 to 3 affine pieces with random slopes and offsets, as a map
    from an array of scalar atoms to one value per atom."""
    pieces = int(rng.integers(1, 4))
    slopes = rng.normal(0.0, 1.5, size=pieces)
    offsets = rng.normal(0.0, 1.0, size=pieces)
    return lambda x: np.max(slopes * x[:, None] + offsets, axis=1)


def _property_gaps(rng: np.random.Generator) -> Iterator[tuple[str, float]]:
    """Draw one instance from rng and yield (property, gap) for each check.

    A property holds on the instance when its gaps are at most 0 up to
    accumulation error. Some properties yield two gaps. The properties come
    in the same order on every instance.
    """
    amb = random_ambiguity_set(rng)
    f = random_max_affine(rng)
    g = random_max_affine(rng)

    ef = upper_expectation(amb, f)
    eg = upper_expectation(amb, g)

    # (a) monotonicity via f <= max(f, g)
    e_max = upper_expectation(amb, lambda x: np.maximum(f(x), g(x)))
    yield "monotonicity", ef - e_max

    # (b) constant preserving
    c = float(rng.normal(0.0, 5.0))
    yield "constant_preserving", abs(upper_expectation(amb, lambda x: np.full(len(x), c)) - c)

    # (c) sub-additivity
    e_sum = upper_expectation(amb, lambda x: f(x) + g(x))
    yield "subadditivity", e_sum - (ef + eg)

    # (d) positive homogeneity
    lam = float(rng.uniform(0.0, 3.0))
    e_scaled = upper_expectation(amb, lambda x: lam * f(x))
    yield "positive_homogeneity", abs(e_scaled - lam * ef) / max(1.0, lam * abs(ef))

    # conjugate: lower = -upper(-f) and lower <= upper
    lf = lower_expectation(amb, f)
    neg = upper_expectation(amb, lambda x: -f(x))
    yield "conjugacy", abs(lf + neg)
    yield "conjugacy", lf - ef

    # sandwich around a half-line event
    a = float(rng.normal(0.0, 2.0))
    w = float(rng.uniform(0.1, 1.0))
    under = lambda x: np.minimum(1.0, np.maximum(0.0, (x - a) / w))
    over = lambda x: np.minimum(1.0, np.maximum(0.0, (x - a) / w + 1.0))
    cap = event_upper_capacity(amb, Event("ge", a))
    yield "sandwich", upper_expectation(amb, under) - cap
    yield "sandwich", cap - upper_expectation(amb, over)

    # shuffling members and atom lists changes nothing (atom order is
    # normalized at construction, so equality is exact)
    perm = rng.permutation(len(amb.members))
    shuffled = AmbiguitySet([amb.members[i] for i in perm], label="shuffled")
    t = float(rng.normal(0.0, 2.0))
    cap_a = event_upper_capacity(amb, Event("ge", t))
    cap_b = event_upper_capacity(shuffled, Event("ge", t))
    ch_a = choquet_integral(amb, 1.0)
    ch_b = choquet_integral(shuffled, 1.0)
    yield "distributional_invariance", abs(cap_a - cap_b)
    yield "distributional_invariance", abs(ch_a - ch_b)

    # breve mean of |X| (exact for bounded support) <= Choquet integral
    abs_mean = max(m.expectation(np.abs) for m in amb.members)
    yield "choquet_dominates_mean", abs_mean - ch_a


def run_axioms(
    amb: AmbiguitySet, trials: int = 1_000, axiom_seed: int = 20240
) -> ExperimentResult:
    """Randomized axiom suite; the model only labels the result.

    One row per property of `axioms._property_gaps` holds its worst gap over
    `trials` random instances and passes at most 1e-12. A NaN gap is kept,
    so its row raises NonFiniteVerdict.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if axiom_seed < 0:
        raise ValueError(f"seed must be at least 0, got {axiom_seed}")
    rng = np.random.default_rng(axiom_seed)
    worst = {}
    for _ in range(trials):
        for name, gap in _property_gaps(rng):
            worst[name] = _raise_worst(worst.get(name, 0.0), gap)
    rows = [
        Row(name, gap, 1e-12, gap <= 1e-12, "random_instances", axiom_seed, trials)
        for name, gap in worst.items()
    ]
    return ExperimentResult(
        strategy_labels=("random_instances",),
        n_grid=(trials,),
        seeds=(axiom_seed,),
        rows=tuple(rows),
    )
