"""Model layer: member distributions, events, and ambiguity sets.

An ambiguity set is a finite family of fully specified distributions. Two
member kinds exist: finite discrete laws (exact arithmetic everywhere) and a
two-sided Pareto law (closed-form tails and truncated moments, dimension 1
only). Everything downstream -- upper expectations, capacities, samplers,
dynamic programs -- consumes these objects and nothing else.

Building a model loads no numpy: a finite law validates and sorts its atoms as
plain floats, and creates its value, weight and cumulative-weight arrays on
first use. numpy itself loads the first time any array is made, so parsing a
config never loads it, and a run loads it when a driver first touches an array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import NonLattice, NotConvergent

__all__ = [
    "AmbiguitySet",
    "Event",
    "FiniteDiscrete",
    "TwoSidedPareto",
    "lattice_offsets",
]

_WEIGHT_TOL = 1e-12
_LATTICE_TOL = 1e-9

# Smallest uniform fed to inverse CDFs; bounds a Pareto draw by
# scale * 2^(64/alpha), which is finite for alpha above about 1/16.
_U_FLOOR = 2.0 ** -64


class _LazyNumpy:
    """numpy's stand-in until its first attribute read rebinds np to numpy."""

    def __getattr__(self, name: str):
        global np
        import numpy as np

        return getattr(np, name)


np = _LazyNumpy()


def _points(values: Sequence) -> list:
    """Atom values as floats, or as tuples of floats for flat vectors (float()
    keeps every bit of a numpy scalar). Raises ValueError, naming the first
    atom at fault, unless all are numbers or all nonempty vectors of one length.
    """
    points = []
    for i, value in enumerate(values):
        try:
            point = tuple(map(float, value))
        except TypeError:
            try:
                point = float(value)
            except TypeError:
                raise ValueError(f"atom {i}: {value!r} is neither a number nor a flat "
                                 "vector of numbers") from None
        if point == ():
            raise ValueError(f"atom {i}: a vector value needs at least one number")
        points.append(point)
    shapes = [f"a vector of {len(p)} numbers" if isinstance(p, tuple) else "a number"
              for p in points]
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise ValueError(f"atom values must be all numbers or all vectors of one "
                             f"length: atom 0 is {shapes[0]}, atom {i} is {shape}")
    return points


def _key(point) -> tuple:
    return point if isinstance(point, tuple) else (point,)


@dataclass(frozen=True)
class Event:
    """One-dimensional marginal event with exact complement semantics.

    Kinds: half-lines ("ge", "gt", "le", "lt"), absolute-value half-lines
    ("abs_ge", "abs_gt", "abs_le", "abs_lt"), and intervals ("between" for
    a <= X <= b, "between_open" for a < X < b) with their complements
    ("outside", "outside_closed").
    """

    kind: str
    a: float
    b: float = math.nan

    _COMPLEMENTS = {
        "ge": "lt", "lt": "ge", "gt": "le", "le": "gt",
        "abs_ge": "abs_lt", "abs_lt": "abs_ge",
        "abs_gt": "abs_le", "abs_le": "abs_gt",
        "between": "outside", "outside": "between",
        "between_open": "outside_closed", "outside_closed": "between_open",
    }

    def __post_init__(self) -> None:
        if self.kind not in self._COMPLEMENTS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind in ("between", "outside", "between_open", "outside_closed"):
            if not (self.a <= self.b):
                raise ValueError(f"interval event needs a <= b, got [{self.a}, {self.b}]")

    def complement(self) -> "Event":
        return Event(self._COMPLEMENTS[self.kind], self.a, self.b)

    def holds(self, x):
        """Vectorized membership indicator."""
        x = np.asarray(x, dtype=float)
        k = self.kind
        if k.startswith("abs_"):
            x, k = np.abs(x), k[4:]
        if k == "ge":
            return x >= self.a
        if k == "gt":
            return x > self.a
        if k == "le":
            return x <= self.a
        if k == "lt":
            return x < self.a
        if k == "between":
            return (x >= self.a) & (x <= self.b)
        if k == "outside":
            return (x < self.a) | (x > self.b)
        if k == "between_open":
            return (x > self.a) & (x < self.b)
        # outside_closed
        return (x <= self.a) | (x >= self.b)


class FiniteDiscrete:
    """Finitely supported law given by (value, weight) atoms.

    Atom values must be pairwise distinct and weights strictly positive,
    summing to 1 within 1e-12. Values may be scalars (dimension 1) or flat
    vectors of a common dimension. Atoms are stored sorted (lexicographically
    for vectors) as plain floats, which fixes the inverse-CDF order; the
    value, weight and cumulative-weight arrays are made from them on first use.
    """

    kind = "finite"

    def __init__(self, atoms: Sequence[tuple]) -> None:
        if not atoms:
            raise ValueError("FiniteDiscrete needs at least one atom")
        points = _points([a[0] for a in atoms])
        weights = [float(a[1]) for a in atoms]
        if not all(w > 0 for w in weights):
            raise ValueError("atom weights must be strictly positive")
        total = math.fsum(weights)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
        keys = [_key(p) for p in points]
        if not all(math.isfinite(x) for key in keys for x in key):
            raise ValueError("atom values must be finite")

        # A stable sort of the value tuples: np.lexsort's order, -0.0 == 0.0 included.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if any(keys[i] == keys[j] for i, j in zip(order, order[1:])):
            raise ValueError("atom values must be pairwise distinct")
        # A list: tuple() of a generator resizes what it builds, and over the axiom
        # suite the resized tuples piled up on CPython's tuple free lists (0.2 MB).
        self._atoms = [(points[i], weights[i]) for i in order]
        self.dim = len(keys[0]) if isinstance(points[0], tuple) else 1

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_arrays(cls, values, weights) -> "FiniteDiscrete":
        """Build from parallel arrays, merging exactly equal values; a vector
        value of width 1 becomes a number."""
        points = _points(values)
        weights = [float(w) for w in weights]
        if len(points) != len(weights):
            raise ValueError(f"got {len(points)} atom values but {len(weights)} weights")
        merged: dict = {}
        for p, w in zip(points, weights):
            key = _key(p)
            merged[key] = merged.get(key, 0.0) + w
        return cls([(k if len(k) > 1 else k[0], w) for k, w in merged.items()])

    # -- arrays, made on first use --------------------------------------------

    @functools.cached_property
    def values(self) -> np.ndarray:
        return np.asarray([v for v, _ in self._atoms], dtype=float)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return np.asarray([w for _, w in self._atoms], dtype=float)

    @functools.cached_property
    def _cumw(self) -> np.ndarray:
        cumw = np.cumsum(self.weights)
        cumw[-1] = 1.0  # exact top end for searchsorted
        return cumw

    # -- exact moments --------------------------------------------------------

    def expectation(self, f: Callable) -> float:
        """Exact weighted sum of f over the atoms, accumulated with fsum.

        f maps the atom array (shape (k,), or (k, d) for vectors) to one value
        per atom; any other shape raises ValueError.
        """
        fx = f(self.values)
        if np.shape(fx) != self.weights.shape:
            raise ValueError(
                f"a test function must give one value per atom, shape "
                f"{self.weights.shape}, got {np.shape(fx)}"
            )
        return math.fsum((self.weights * fx).tolist())

    def mean(self):
        if self.values.ndim == 1:
            return self.expectation(lambda x: x)
        return np.array([self.expectation(lambda x, j=j: x[:, j]) for j in range(self.dim)])

    def second_moment(self) -> float:
        """E[X^2] in dimension 1, E[|X|^2] otherwise."""
        return self.expectation(lambda x: x ** 2 if x.ndim == 1 else np.sum(x ** 2, axis=1))

    def truncated_mean(self, c: float) -> float:
        self._require_dim1()
        return self.expectation(lambda x: np.clip(x, -c, c))

    def truncated_second(self, c: float) -> float:
        """E[X^2 /\\ c^2]."""
        self._require_dim1()
        return self.expectation(lambda x: np.minimum(x ** 2, c * c))

    # -- probabilities --------------------------------------------------------

    def prob(self, event: Event) -> float:
        self._require_dim1()
        return self.expectation(event.holds)

    def abs_survival(self, x: float) -> float:
        """P(|X| >= x)."""
        return self.prob(Event("abs_ge", x))

    # -- sampling -------------------------------------------------------------

    def icdf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse CDF in the stored atom order; u in [0, 1). Written into
        `out` when given; a u past the last cumulative weight (rounding) takes
        the last atom."""
        idx = np.searchsorted(self._cumw, u, side="right")
        return np.take(self.values, idx, axis=0, out=out, mode="clip")

    # -- derived laws ---------------------------------------------------------

    def shifted(self, b: float) -> "FiniteDiscrete":
        self._require_dim1()
        return FiniteDiscrete.from_arrays(self.values + b, self.weights)

    def _require_dim1(self) -> None:
        if self.values.ndim != 1:
            raise ValueError("operation defined for dimension 1 only")

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}:{w:g}" for v, w in zip(self.values.tolist(), self.weights.tolist()))
        return f"FiniteDiscrete({pairs})"


class TwoSidedPareto:
    """Two-sided Pareto law: |X| has tail P(|X| > x) = (scale/x)^alpha for
    x >= scale (and 1 below), the sign is +1 with probability right_mass,
    independent of the magnitude. Dimension 1 only.

    The mean exists iff alpha > 1 and equals (2*right_mass - 1)*scale*alpha/(alpha-1);
    the second moment is finite iff alpha > 2.
    """

    kind = "pareto"
    dim = 1

    def __init__(self, alpha: float, scale: float, right_mass: float = 0.5) -> None:
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if not 0.0 <= right_mass <= 1.0:
            raise ValueError(f"right_mass must lie in [0, 1], got {right_mass}")
        self.alpha = float(alpha)
        self.scale = float(scale)
        self.right_mass = float(right_mass)

    # -- tails ----------------------------------------------------------------

    def abs_survival(self, x: float) -> float:
        """P(|X| >= x) = P(|X| > x); the law is atomless."""
        if x <= self.scale:
            return 1.0
        return (self.scale / x) ** self.alpha

    def cdf(self, x: float) -> float:
        r, s, a = self.right_mass, self.scale, self.alpha
        if x <= -s:
            return (1.0 - r) * (s / -x) ** a
        if x < s:
            return 1.0 - r
        return 1.0 - r * (s / x) ** a

    def prob(self, event: Event) -> float:
        k, a, b = event.kind, event.a, event.b
        if k in ("ge", "gt"):
            return 1.0 - self.cdf(a)
        if k in ("le", "lt"):
            return self.cdf(a)
        if k in ("abs_ge", "abs_gt"):
            return self.abs_survival(a) if a > 0 else 1.0
        if k in ("abs_le", "abs_lt"):
            return 1.0 - self.abs_survival(a) if a > 0 else 0.0
        if k in ("between", "between_open"):
            return max(0.0, self.cdf(b) - self.cdf(a))
        # outside variants
        return 1.0 - max(0.0, self.cdf(b) - self.cdf(a))

    # -- moments --------------------------------------------------------------

    def abs_mean(self) -> float:
        if self.alpha <= 1:
            raise NotConvergent(f"Pareto alpha={self.alpha} <= 1: mean does not exist")
        return self.scale * self.alpha / (self.alpha - 1.0)

    def mean(self) -> float:
        return (2.0 * self.right_mass - 1.0) * self.abs_mean()

    def second_moment(self) -> float:
        if self.alpha <= 2:
            return math.inf
        return self.scale ** 2 * self.alpha / (self.alpha - 2.0)

    def truncated_abs_mean(self, c: float) -> float:
        """E[|X| /\\ c], closed form."""
        s, a = self.scale, self.alpha
        if c <= s:
            return c
        if a == 1.0:
            return s * (1.0 + math.log(c / s))
        return s + (s ** a * c ** (1.0 - a) - s) / (1.0 - a)

    def truncated_mean(self, c: float) -> float:
        """E[(-c) \\/ X /\\ c] = (2*right_mass - 1) * E[|X| /\\ c]."""
        return (2.0 * self.right_mass - 1.0) * self.truncated_abs_mean(c)

    def truncated_second(self, c: float) -> float:
        """E[X^2 /\\ c^2], closed form."""
        s, a = self.scale, self.alpha
        if c <= s:
            return c * c
        if a == 2.0:
            return s * s * (1.0 + 2.0 * math.log(c / s))
        return s * s + s ** a * (c ** (2.0 - a) - s ** (2.0 - a)) / (1.0 - a / 2.0)

    # -- sampling -------------------------------------------------------------

    def icdf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse CDF for u in [0, 1): -s (left/u)^(1/alpha) below left = 1 - r,
        s (r/(1-u))^(1/alpha) from there, with u and 1 - u floored at 2^-64.
        Written into `out` when given.

        A quantile beyond the largest float (small alpha at extreme u) is -inf
        or +inf, without an overflow warning; a verdict on such a value raises
        NonFiniteVerdict.
        """
        u = np.maximum(np.asarray(u, dtype=float), _U_FLOOR)
        r, s, a = self.right_mass, self.scale, self.alpha
        left = 1.0 - r
        out = np.empty_like(u) if out is None else out
        neg = u < left
        pos = ~neg
        with np.errstate(over="ignore"):
            if neg.any():
                out[neg] = -s * (left / u[neg]) ** (1.0 / a)
            if pos.any():
                tail = np.maximum(1.0 - u[pos], _U_FLOOR)
                out[pos] = s * (r / tail) ** (1.0 / a)
        return out

    def __repr__(self) -> str:
        return f"TwoSidedPareto(alpha={self.alpha}, scale={self.scale}, right_mass={self.right_mass})"


Distribution = FiniteDiscrete | TwoSidedPareto


class AmbiguitySet:
    """Nonempty finite family of distributions sharing one dimension."""

    def __init__(self, members: Sequence[Distribution], label: str = "") -> None:
        members = tuple(members)
        if not members:
            raise ValueError("AmbiguitySet needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"members disagree on dimension: {sorted(dims)}")
        self.members = members
        self.label = label
        self.dim = dims.pop()

    @property
    def is_finite_support(self) -> bool:
        return all(isinstance(m, FiniteDiscrete) for m in self.members)

    @functools.cached_property
    def icdf_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(thresholds, offsets, atoms) that draw any member's increments by one gather.

        atoms concatenates the finite members' atoms, member j's from
        offsets[j] on. thresholds[a, j] is member j's cumulative weight a,
        for every atom a but its last, and +inf past them. For u in [0, 1)
        the count of a with thresholds[a, j] <= u is then the index that
        `FiniteDiscrete.icdf` searches for (its last cumulative weight is
        1.0), so atoms[offsets[j] + count] is the float it takes. A Pareto
        member has no finite threshold, and its offset names a NaN atom.
        """
        k = len(self.members)
        width = max((len(m.weights) for m in self.members if m.kind == "finite"), default=1)
        thresholds = np.full((width - 1, k), np.inf)
        offsets = np.empty(k, dtype=np.intp)
        atoms, size = [], 0
        for j, m in enumerate(self.members):
            if m.kind == "finite":
                thresholds[: len(m.weights) - 1, j] = m._cumw[:-1]
                offsets[j] = size
                atoms.append(m.values)
                size += len(m.values)
        if not self.is_finite_support:
            offsets[[m.kind != "finite" for m in self.members]] = size
            atoms.append(np.array([np.nan]))
        return thresholds, offsets, np.concatenate(atoms)

    def member_means(self) -> np.ndarray:
        """Matrix of member means, shape (k,) in dimension 1 else (k, d).

        Raises NotConvergent when a Pareto member has no mean.
        """
        means = [m.mean() for m in self.members]
        return np.asarray(means, dtype=float)

    def heaviest_alpha(self) -> float:
        """Smallest Pareto tail exponent present, +inf if none."""
        alphas = [m.alpha for m in self.members if isinstance(m, TwoSidedPareto)]
        return min(alphas) if alphas else math.inf

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"AmbiguitySet({len(self.members)} members, d={self.dim}{tag})"


def lattice_offsets(member: FiniteDiscrete, pitch: float) -> tuple:
    """Integer multiples of pitch matching each coordinate of member's atoms,
    in order, within 1e-9.

    Reads the atoms as plain floats, so it makes no array. Raises NonLattice
    for the first coordinate that is off the lattice. Parsing checks a
    config's lattice_quantum with it, and the lattice DP places every member
    on its pitch.
    """
    offsets = []
    for value, _ in member._atoms:
        for v in _key(value):
            a = int(round(v / pitch))
            if abs(a * pitch - v) > _LATTICE_TOL:
                raise NonLattice(f"atom {v!r} is off the pitch {pitch!r} lattice")
            offsets.append(a)
    return tuple(offsets)
