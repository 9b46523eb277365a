"""Exact values of path functionals under adaptive member choice.

For finite-support scalar members whose atoms share a common lattice, the
upper (or lower) value of a path functional over all adaptive strategies is
computed by backward induction on the partial sum. Sums after k steps live on
the integer window [k*amin, k*amax] of the lattice, so each level is a dense
array and transitions are shifted slices, one per atom. A functional is one
of three kinds: a terminal payoff, a plain function that maps the whole array
of sums S_n to one value per sum (an event on S_n is `event.holds`); a
`RunningMax`, 1 from the first step k whose Event holds at S_k; or an
`AllBlocksHit`, a product of block events. `LatticeModel.sums` maps every
level's indices to sums.

`brute_force_value` re-derives the same number by recursing over full outcome
histories with no state compression; it is the oracle the DP is tested
against, and deliberately knows nothing about lattices or Markov structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .distributions import _LATTICE_TOL, AmbiguitySet, Event, lattice_offsets
from .errors import NonLattice, StateSpaceTooLarge, TooLargeForBruteForce

_MAX_WIDTH = 10_000_000
_MAX_DENOMINATOR = 1_000_000


@dataclass(frozen=True)
class LatticeModel:
    """Members rewritten as integer atom offsets on a shared pitch."""

    pitch: float
    offsets: tuple  # per member: tuple of ints
    weights: tuple  # per member: tuple of floats
    amin: int
    amax: int

    @property
    def span(self) -> int:
        return self.amax - self.amin

    def sums(self, k: int) -> np.ndarray:
        """Values of S_k on the window [k*amin, k*amax], lowest first."""
        return (k * self.amin + np.arange(k * self.span + 1)) * self.pitch


def lattice_model(amb: AmbiguitySet) -> LatticeModel:
    """Find the coarsest pitch h with every atom an integer multiple of h.

    Raises NonLattice for continuous members or atoms that are not within
    1e-9 of a rational with denominator <= 1e6 (scaled by the pitch).
    """
    if amb.dim != 1:
        raise ValueError("lattice models are one-dimensional")
    if not amb.is_finite_support:
        raise NonLattice("continuous members do not live on a lattice")

    fractions = []
    for member in amb.members:
        for v in np.asarray(member.values, dtype=float).ravel():
            if v != 0.0:
                f = Fraction(v).limit_denominator(_MAX_DENOMINATOR)
                if abs(float(f) - v) > _LATTICE_TOL:
                    raise NonLattice(f"atom {v!r} is not close to a small rational")
                fractions.append(f)
    # gcd of the numerators over lcm of the denominators, 1 if every atom is 0
    h = float(Fraction(math.gcd(*(f.numerator for f in fractions)) or 1,
                       math.lcm(*(f.denominator for f in fractions))))
    offsets = tuple(lattice_offsets(m, h) for m in amb.members)
    weights = tuple(tuple(float(w) for w in m.weights) for m in amb.members)
    flat = [a for offs in offsets for a in offs]
    return LatticeModel(h, offsets, weights, min(0, *flat), max(0, *flat))


@dataclass(frozen=True)
class RunningMax:
    """Indicator that S_k lies in step k's event at some step k = 1..n.

    events is one Event for every step or a tuple of n Events, entry k-1 for
    step k. Per-step events express max_k (|S_k| - b_k) > x as
    Event("abs_gt", x + b_k), and the band exit of the strong law as
    Event("outside", k*(lo - eps), k*(hi + eps)).
    """

    events: Event | tuple

    def hit(self, k: int, n: int, sums: np.ndarray) -> np.ndarray:
        if isinstance(self.events, Event):
            return self.events.holds(sums)
        if len(self.events) != n:
            raise ValueError(f"{len(self.events)} events for horizon {n}")
        return self.events[k - 1].holds(sums)

    def history_value(self, history: tuple) -> float:
        n = len(history)
        for k in range(1, n + 1):
            running = math.fsum(history[:k])
            if bool(self.hit(k, n, np.asarray([running]))[0]):
                return 1.0
        return 0.0


@dataclass(frozen=True)
class AllBlocksHit:
    """Indicator that every block's sum increment satisfies its event.

    Block j covers steps (ends[j-1], ends[j]] and its event applies to
    S_{ends[j]} - S_{ends[j-1]}. The last end must equal the horizon.
    """

    ends: tuple
    events: tuple

    def __post_init__(self) -> None:
        if len(self.ends) != len(self.events):
            raise ValueError("one event per block required")
        if any(b <= a for a, b in zip((0,) + tuple(self.ends[:-1]), self.ends)):
            raise ValueError("block ends must be strictly increasing")

    def history_value(self, history: tuple) -> float:
        if self.ends[-1] != len(history):
            raise ValueError("last block end must equal the horizon")
        prev = 0
        for end, event in zip(self.ends, self.events):
            inc = math.fsum(history[prev:end])
            if not bool(event.holds(inc)):
                return 0.0
            prev = end
        return 1.0


Functional = Callable | RunningMax | AllBlocksHit


def _check_side(side: str) -> Callable:
    if side == "upper":
        return np.maximum
    if side == "lower":
        return np.minimum
    raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")


def _backward_pass(
    model: LatticeModel,
    n: int,
    terminal: np.ndarray,
    side: str,
    running: RunningMax | None = None,
) -> np.ndarray:
    """Backward induction from terminal values on [n*amin, n*amax].

    A running event sets level k to 1 wherever step k's Event holds. Entry k
    of the result is the value at S_k = 0 after n - k levels (index -k*amin
    of level k); without a running event, the (n - k)-step value.
    """
    opt = _check_side(side)
    v = terminal
    at_zero = np.empty(n + 1)
    at_zero[n] = v[-n * model.amin]
    for k in range(n - 1, -1, -1):
        width = k * model.span + 1
        acc = None
        for offs, wts in zip(model.offsets, model.weights):
            member_val = np.zeros(width)
            for a, w in zip(offs, wts):
                shift = a - model.amin
                member_val += w * v[shift : shift + width]
            acc = member_val if acc is None else opt(acc, member_val)
        v = acc
        if running is not None and k >= 1:
            v = np.where(running.hit(k, n, model.sums(k)), 1.0, v)
        at_zero[k] = v[-k * model.amin]
    return at_zero


def _levy_thresholds(amb: AmbiguitySet, n: int, alpha: float) -> list:
    """b_{n,k} for k = 1..n: the least lattice b with V(|S_n - S_k| > b) <= alpha.

    The pass on |S_n| > m*pitch holds each suffix capacity at sum 0 of level
    k; it is nonincreasing in m, so one pass per m = 0, 1, ... gives each k
    its first m at or below alpha. b_{n,n} = 0.
    """
    model = lattice_model(amb)
    sums = model.sums(n)
    betas = [None] * (n - 1) + [0.0]
    m = 0
    while None in betas:
        terminal = Event("abs_gt", m * model.pitch).holds(sums).astype(float)
        at_zero = _backward_pass(model, n, terminal, "upper")
        betas = [m * model.pitch if b is None and at_zero[k] <= alpha else b
                 for k, b in enumerate(betas, 1)]
        m += 1
    return betas


def dp_value(amb: AmbiguitySet, functional: Functional, n: int, side: str = "upper") -> float:
    """Exact optimal value of the functional over adaptive member choice.

    The functional is a terminal payoff (a function mapping the array of
    sums S_n to one value per sum, such as event.holds), a running event
    (RunningMax: one Event for every step or one per step) or a product of
    block events (AllBlocksHit). side "upper" maximizes at every step (upper
    expectation of the functional), "lower" minimizes. Requires scalar
    finite-support members on a common lattice and at most 1e7 terminal
    states.
    """
    if n < 1:
        raise ValueError("need at least one step")
    model = lattice_model(amb)
    width_n = n * model.span + 1
    if width_n > _MAX_WIDTH:
        raise StateSpaceTooLarge(f"{width_n} lattice states at the horizon")
    sums_n = model.sums(n)

    if isinstance(functional, RunningMax):
        terminal = functional.hit(n, n, sums_n).astype(float)
        return float(_backward_pass(model, n, terminal, side, running=functional)[0])

    if isinstance(functional, AllBlocksHit):
        if functional.ends[-1] != n:
            raise ValueError("last block end must equal the horizon")
        # Block events depend only on the block's own increment, so the value
        # at a block boundary is a constant and the blocks decouple into a
        # product of independent one-block problems.
        value = 1.0
        prev = 0
        for end, event in zip(functional.ends, functional.events):
            length = end - prev
            terminal = event.holds(model.sums(length)).astype(float)
            value *= float(_backward_pass(model, length, terminal, side)[0])
            prev = end
        return value

    if callable(functional):
        terminal = np.asarray(functional(sums_n), dtype=float)
        return float(_backward_pass(model, n, terminal, side)[0])

    raise TypeError(f"unsupported functional {type(functional).__name__}")


def _atoms(amb: AmbiguitySet) -> list[tuple]:
    """Per member: (atom values, weights) as plain float tuples."""
    return [
        (tuple(float(v) for v in np.asarray(m.values).ravel()), tuple(m.weights))
        for m in amb.members
    ]


def _history_value(functional: Functional, history: tuple) -> float:
    """The functional on one full outcome history; a terminal payoff reads S_n."""
    if callable(functional):
        return float(functional(np.asarray([math.fsum(history)]))[0])
    return functional.history_value(history)


_BF_MAX_STEPS = 4
_BF_MAX_MEMBERS = 3
_BF_MAX_ATOMS = 3


def brute_force_value(
    amb: AmbiguitySet, functional: Functional, n: int, side: str = "upper"
) -> float:
    """Optimal value by recursion over full outcome histories.

    The member chosen at each node may depend on the entire history, not just
    the current sum, so this certifies that state compression in dp_value
    loses nothing. Sizes are capped hard because the tree has
    (atoms)^n leaves.
    """
    _check_side(side)
    if amb.dim != 1 or not amb.is_finite_support:
        raise ValueError("brute force needs scalar finite-support members")
    if n > _BF_MAX_STEPS:
        raise TooLargeForBruteForce(f"{n} steps exceeds the cap of {_BF_MAX_STEPS}")
    if len(amb.members) > _BF_MAX_MEMBERS:
        raise TooLargeForBruteForce("too many members")
    if any(len(m.weights) > _BF_MAX_ATOMS for m in amb.members):
        raise TooLargeForBruteForce("too many atoms per member")

    pick = max if side == "upper" else min
    atoms = _atoms(amb)

    def rec(history: tuple) -> float:
        if len(history) == n:
            return _history_value(functional, history)
        candidates = []
        for values, weights in atoms:
            candidates.append(
                math.fsum(w * rec(history + (v,)) for v, w in zip(values, weights))
            )
        return pick(candidates)

    return rec(())


def policy_enumeration_value(
    amb: AmbiguitySet, functional: Functional, n: int, side: str = "upper"
) -> float:
    """Optimal value by enumerating every deterministic history-feedback policy.

    A policy assigns a member to each history prefix; its value is the plain
    expectation of the functional under the induced law. This is the most
    literal reading of 'optimize over strategies' and is only feasible for
    n <= 2, where it cross-checks brute_force_value's max-commutes recursion.
    """
    _check_side(side)
    if n > 2:
        raise TooLargeForBruteForce("policy tables explode beyond 2 steps")
    if amb.dim != 1 or not amb.is_finite_support:
        raise ValueError("policy enumeration needs scalar finite-support members")

    from itertools import product

    atoms = _atoms(amb)
    k = len(atoms)

    # Histories reachable before each step, in a fixed order.
    prefixes: list[tuple] = [()]
    all_values = sorted({v for vals, _ in atoms for v in vals})
    for step in range(1, n):
        prefixes.extend(product(all_values, repeat=step))

    def walk(table: dict, history: tuple, prob: float) -> float:
        if len(history) == n:
            return prob * _history_value(functional, history)
        values, weights = atoms[table[history]]
        return math.fsum(walk(table, history + (v,), prob * w) for v, w in zip(values, weights))

    tables = (dict(zip(prefixes, a)) for a in product(range(k), repeat=len(prefixes)))
    return (max if side == "upper" else min)(walk(t, (), 1.0) for t in tables)
