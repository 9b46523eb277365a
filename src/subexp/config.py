"""Strict run-configuration parsing and model (de)serialization.

The schema is a flat JSON object; unknown fields anywhere are rejected with
the offending path, and parsing materializes every default so the resolved
config written next to the results is complete on its own. EXPERIMENT_TABLE
maps each experiment name to its driver's name and parameter schema; parsing,
EXPERIMENTS and the runner all read it. The table holds names, not functions:
the runner resolves each driver through the package's lazy exports and calls
it when a run starts, so parsing never loads the engines, and a run loads only
its driver's module. Parsing builds each model from plain floats, and the
schema's records are named tuples, so it loads neither numpy nor dataclasses;
a run loads numpy when a driver first uses a member's arrays. An error in a
finite member names the member's path.

Schema:
    {
      "model": {"label": str, "members": [member, ...]},
      "experiment": one of EXPERIMENTS,
      "parameters": {...},          # per-experiment, see EXPERIMENT_TABLE
      "seeds": [int, ...],          # default [1, 2, 3]
      "output_dir": str,            # default "."
      "lattice_quantum": float      # optional consistency check
    }

member (finite):  {"kind": "finite", "atoms": [[value, weight], ...]}
                  value is a number (d=1) or a list of numbers (vector)
member (pareto):  {"kind": "pareto", "alpha": a, "scale": s, "right_mass": r}
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, NamedTuple

from .distributions import AmbiguitySet, FiniteDiscrete, TwoSidedPareto, lattice_offsets
from .errors import NonLattice, SchemaError


def _num(x: Any, path: str) -> float:
    if not (isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)):
        raise SchemaError(f"{path}: expected a finite number, got {x!r}")
    return float(x)


def _int(x: Any, path: str) -> int:
    if not (isinstance(x, int) and not isinstance(x, bool)):
        raise SchemaError(f"{path}: expected an integer, got {x!r}")
    return x


def _str(x: Any, path: str) -> str:
    if not isinstance(x, str):
        raise SchemaError(f"{path}: expected a string")
    return x


def _list_of(item: Callable, noun: str) -> Callable:
    def validate(x: Any, path: str) -> list:
        if not isinstance(x, list) or not x:
            raise SchemaError(f"{path}: expected a nonempty list of {noun}")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(x)]

    return validate


_num_list = _list_of(_num, "numbers")
_int_list = _list_of(_int, "integers")
_str_list = _list_of(_str, "strings")


def check_seed(x: int, path: str) -> None:
    """Reject a seed outside [0, 2^64), the range of the sampler's counter hash."""
    if not 0 <= x < 2 ** 64:
        raise SchemaError(f"{path}: seed {x} outside [0, 2^64)")


def _optional_num(x: Any, path: str):
    return None if x is None else _num(x, path)


def _mode(x: Any, path: str) -> str:
    if x not in ("exact", "mc"):
        raise SchemaError(f"{path}: expected 'exact' or 'mc', got {x!r}")
    return x


class Experiment(NamedTuple):
    """A driver, named by its public name in the subexp package, and its
    parameter schema, name -> (default, validator).

    The runner calls the driver with the parameters as keywords of the same
    name, plus the run's seeds and worker count where its signature takes them.
    """

    driver: str
    schema: dict


EXPERIMENT_TABLE: dict[str, Experiment] = {
    "slln": Experiment("run_slln", {
        "N": (1_000_000, _int),
        "tol": (0.01, _num),
        "m_targets": (5, _int),
        "tol_outer": (0.05, _num),
    }),
    "marcinkiewicz": Experiment("run_marcinkiewicz", {
        "p": (1.5, _num),
        "N": (1_000_000, _int),
        "envelope": (0.5, _num),
    }),
    "weak_lln": Experiment("run_weak_lln", {
        "ns": ([32, 64, 128, 256], _int_list),
        "epsilon": (0.1, _num),
        "mode": ("exact", _mode),
        "threshold": (0.05, _num),
        "interior_b": (None, _optional_num),
        "interior_threshold": (0.9, _num),
        "mc_replicas": (200, _int),
    }),
    "three_series": Experiment("run_three_series", {
        "scale_exponent": (2.0, _num),
        "c": (1.0, _num),
        "N": (10_000, _int),
        "N0": (1_000, _int),
        "fluct_tol": (0.01, _num),
    }),
    "cluster_set": Experiment("run_cluster_set", {
        "m_targets": (5, _int),
        "N": (1_000_000, _int),
        "tol_outer": (0.05, _num),
        "tol_hausdorff": (0.15, _num),
        "delta": (0.05, _num),
    }),
    "inequality_grid": Experiment("run_inequality_grid", {
        "whichs": (["kolmogorov_upper", "kolmogorov_lower", "exponential"], _str_list),
        "ns": ([4, 8, 16], _int_list),
        "xs": ([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0], _num_list),
        "levy_alphas": ([0.3, 0.5], _num_list),
    }),
    "choquet_series": Experiment("run_choquet_series", {
        "p": (1.0, _num),
        "M": (1.0, _num),
        "K": (100_000, _int),
    }),
    "axioms": Experiment("run_axioms", {
        "trials": (1_000, _int),
        "axiom_seed": (20240, _int),
    }),
}
EXPERIMENTS = tuple(EXPERIMENT_TABLE)


class RunConfig(NamedTuple):
    model: AmbiguitySet
    experiment: str
    parameters: dict
    seeds: tuple
    output_dir: str
    lattice_quantum: float | None

    def resolved(self) -> dict:
        """Fully materialized config, suitable for resolved_config.json."""
        return {
            "model": model_to_spec(self.model),
            "experiment": self.experiment,
            "parameters": self.parameters,
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "lattice_quantum": self.lattice_quantum,
        }


def member_to_spec(member) -> dict:
    if isinstance(member, TwoSidedPareto):
        return {
            "kind": "pareto",
            "alpha": member.alpha,
            "scale": member.scale,
            "right_mass": member.right_mass,
        }
    atoms = [[v, w] for v, w in zip(member.values.tolist(), member.weights.tolist())]
    return {"kind": "finite", "atoms": atoms}


def model_to_spec(amb: AmbiguitySet) -> dict:
    return {"label": amb.label, "members": [member_to_spec(m) for m in amb.members]}


def _member_from_spec(spec: Any, path: str):
    if not isinstance(spec, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = spec.get("kind")
    if kind == "finite":
        _reject_unknown(spec, {"kind", "atoms"}, path)
        atoms = spec.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise SchemaError(f"{path}.atoms: expected a nonempty list")
        values, weights = [], []
        for i, atom in enumerate(atoms):
            if not (isinstance(atom, list) and len(atom) == 2):
                raise SchemaError(f"{path}.atoms[{i}]: expected [value, weight]")
            value, weight = atom
            if isinstance(value, list):
                value = [_num(v, f"{path}.atoms[{i}].value[{j}]") for j, v in enumerate(value)]
            else:
                value = _num(value, f"{path}.atoms[{i}].value")
            values.append(value)
            weights.append(_num(weight, f"{path}.atoms[{i}].weight"))
        try:
            return FiniteDiscrete(values, weights)
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    if kind == "pareto":
        _reject_unknown(spec, {"kind", "alpha", "scale", "right_mass"}, path)
        return TwoSidedPareto(
            alpha=_num(spec.get("alpha"), f"{path}.alpha"),
            scale=_num(spec.get("scale"), f"{path}.scale"),
            right_mass=_num(spec.get("right_mass", 0.5), f"{path}.right_mass"),
        )
    raise SchemaError(f"{path}.kind: expected 'finite' or 'pareto', got {kind!r}")


def model_from_spec(spec: Any, path: str = "model") -> AmbiguitySet:
    if not isinstance(spec, dict):
        raise SchemaError(f"{path}: expected an object")
    _reject_unknown(spec, {"label", "members"}, path)
    members = spec.get("members")
    if not isinstance(members, list) or not members:
        raise SchemaError(f"{path}.members: expected a nonempty list")
    label = spec.get("label", "")
    if not isinstance(label, str):
        raise SchemaError(f"{path}.label: expected a string")
    if "\r" in label:
        # csv.writer leaves a lone \r unquoted, and csv.reader rejects the row.
        raise SchemaError(f"{path}.label: a carriage return cannot go into results.csv")
    parsed = tuple(
        _member_from_spec(m, f"{path}.members[{i}]") for i, m in enumerate(members)
    )
    return AmbiguitySet(parsed, label=label)


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}: unknown field")


_TOP_LEVEL = {"model", "experiment", "parameters", "seeds", "output_dir", "lattice_quantum"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; all defaults come back materialized."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")
    _reject_unknown(raw, _TOP_LEVEL, "config")

    if "model" not in raw:
        raise SchemaError("config.model: required field missing")
    if "experiment" not in raw:
        raise SchemaError("config.experiment: required field missing")

    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise SchemaError(
            f"config.experiment: unknown id {experiment!r}; expected one of {list(EXPERIMENTS)}"
        )

    model = model_from_spec(raw["model"], "model")

    schema = EXPERIMENT_TABLE[experiment].schema
    given = raw.get("parameters", {})
    if not isinstance(given, dict):
        raise SchemaError("config.parameters: expected an object")
    _reject_unknown(given, set(schema), "parameters")
    parameters = {}
    for name, (default, validator) in schema.items():
        if name in given:
            parameters[name] = validator(given[name], f"parameters.{name}")
        else:
            parameters[name] = default

    seeds_raw = raw.get("seeds", [1, 2, 3])
    seeds = tuple(_int_list(seeds_raw, "seeds"))
    for i, s in enumerate(seeds):
        check_seed(s, f"seeds[{i}]")

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise SchemaError("config.output_dir: expected a string")

    quantum = raw.get("lattice_quantum")
    if quantum is not None:
        quantum = _num(quantum, "config.lattice_quantum")
        if quantum <= 0:
            raise SchemaError(f"config.lattice_quantum: must be positive, got {quantum}")
        _check_quantum(model, quantum)

    return RunConfig(
        model=model,
        experiment=experiment,
        parameters=parameters,
        seeds=seeds,
        output_dir=output_dir,
        lattice_quantum=quantum,
    )


def _check_quantum(model: AmbiguitySet, q: float) -> None:
    """Every finite atom must sit on the declared lattice within 1e-9."""
    for i, member in enumerate(model.members):
        if isinstance(member, FiniteDiscrete):
            try:
                lattice_offsets(member, q)
            except NonLattice as exc:
                raise NonLattice(f"model.members[{i}]: {exc}") from None
