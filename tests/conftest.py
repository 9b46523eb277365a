"""Shared model builders for the test suite.

The two-member coin model (label E1) and the three-member planar model
(label V2mix) recur across modules; building them in one place keeps the
frozen constants comparable between unit and acceptance tests.
"""

import numpy as np
import pytest

from subexp import (
    AllBlocksHit,
    AmbiguitySet,
    Event,
    FiniteDiscrete,
    RunningMax,
)


def make_e1() -> AmbiguitySet:
    return AmbiguitySet(
        (
            FiniteDiscrete([-1.0, 1.0], [0.5, 0.5]),
            FiniteDiscrete([-1.0, 1.0], [0.25, 0.75]),
        ),
        label="E1",
    )


def make_v2mix() -> AmbiguitySet:
    return AmbiguitySet(
        (
            FiniteDiscrete([[1.0, 0.0]], [1.0]),
            FiniteDiscrete([[0.0, 1.0]], [1.0]),
            FiniteDiscrete([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
        ),
        label="V2mix",
    )


def make_asym3() -> AmbiguitySet:
    """1-d model with a 3-atom member and an interval [0.12, 0.125] that is
    not symmetric about 0; its partial sums are inexact in float64."""
    return AmbiguitySet(
        (
            FiniteDiscrete([-0.7, 0.15, 1.3], [0.3, 0.5, 0.2]),
            FiniteDiscrete([-0.4, 0.9], [0.6, 0.4]),
        ),
        label="asym3",
    )


def make_v3mix() -> AmbiguitySet:
    """Three coin flips between the unit vectors of R^3; at delta 0.05 its
    direction net has 6400 directions."""
    e = np.eye(3).tolist()
    return AmbiguitySet(
        tuple(FiniteDiscrete([e[i], e[(i + 1) % 3]], [0.5, 0.5]) for i in range(3)),
        label="V3mix",
    )


@pytest.fixture(scope="session")
def e1() -> AmbiguitySet:
    return make_e1()


@pytest.fixture(scope="session")
def v2mix() -> AmbiguitySet:
    return make_v2mix()


def random_lattice_instance(rng: np.random.Generator):
    """One solvable-by-brute-force instance: (amb, functional, n, side).

    Atom values are small integer multiples of a random pitch so every
    instance is a clean lattice; sizes stay inside the brute-force caps.
    """
    n = int(rng.integers(1, 4))
    n_members = int(rng.integers(1, 4))
    pitch = float(rng.choice([0.25, 0.5, 1.0]))
    members = []
    for _ in range(n_members):
        n_atoms = int(rng.integers(1, 4))
        values = rng.choice(np.arange(-4, 5), size=n_atoms, replace=False) * pitch
        weights = rng.dirichlet(np.ones(n_atoms))
        members.append(FiniteDiscrete(values.tolist(), weights.tolist()))
    amb = AmbiguitySet(tuple(members), label="rand")

    span = n * 4.0  # |values| <= 4*pitch <= 4
    kind = int(rng.integers(0, 4))
    if kind == 0:
        slope = float(rng.uniform(-2, 2))
        bias = float(rng.uniform(-1, 1))
        functional = lambda s, a=slope, b=bias: a * s + b
    elif kind == 1:
        threshold = float(rng.uniform(-span, span))
        functional = Event("ge", threshold).holds
    elif kind == 2:
        threshold = float(rng.uniform(0.1, span))
        prefix = "abs_" if rng.random() < 0.5 else ""
        functional = RunningMax(Event(prefix + ("gt" if rng.random() < 0.5 else "ge"), threshold))
    else:
        split = max(1, n - 1)
        events = (Event("ge", float(rng.uniform(-2, 2))), Event("ge", float(rng.uniform(-2, 2))))
        functional = AllBlocksHit((split, n), events) if n > 1 else events[0].holds
    side = "upper" if rng.random() < 0.5 else "lower"
    return amb, functional, n, side
