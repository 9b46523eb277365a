"""Numerical laboratory for sub-linear expectations over finite ambiguity sets.

Exact expectation calculus (max over a finite member family), convex mean
sets via support functions, adversarial path sampling, exact optimal-value
dynamic programming for path capacities, maximal-inequality checkers, and
law-of-large-numbers experiment drivers.

Importing the package loads no submodule. Each public name below is imported
from its home module on first access (PEP 562), so parse_config loads only the
schema layer, and a run loads only its driver's module and the engines that
module imports. This table is also how a run finds its driver by name, and it
is the only list of public names: no submodule keeps an `__all__`. The schema
layer is pure Python: parsing loads no numpy, and a run loads it when a
driver first uses an array.
"""

import importlib as _importlib

_EXPORTS = {
    name: module
    for module, names in {
        "distributions": (
            "AmbiguitySet",
            "Event",
            "FiniteDiscrete",
            "TwoSidedPareto",
        ),
        "errors": (
            "DimensionTooLarge",
            "NonFiniteVerdict",
            "NonLattice",
            "NotConvergent",
            "QuadratureNotConverged",
            "SchemaError",
            "StateSpaceTooLarge",
            "SubexpError",
            "TargetOutOfRange",
            "TooLargeForBruteForce",
        ),
        "expectation": (
            "choquet_integral",
            "event_upper_capacity",
            "lower_expectation",
            "mean_interval",
            "truncated_expectation",
            "upper_expectation",
        ),
        "meanset": (
            "MeanSet",
            "build_direction_net",
            "build_mean_set",
            "distance_to_mean_set",
            "support_function",
        ),
        "sampler": (
            "BlockSchedule",
            "Path",
            "oscillation_schedule",
            "sample_path",
            "stationary_for_target",
            "target_chasing_schedule",
        ),
        "lattice_dp": (
            "AllBlocksHit",
            "LatticeModel",
            "RunningMax",
            "brute_force_value",
            "dp_value",
            "lattice_model",
            "policy_enumeration_value",
        ),
        "inequalities": (
            "exponential_bound",
            "kolmogorov_lower_capacity_bound",
            "kolmogorov_upper_bound",
            "run_inequality_grid",
        ),
        "axioms": ("random_ambiguity_set", "random_max_affine", "run_axioms"),
        "experiments": ("run_cluster_set", "run_marcinkiewicz", "run_slln", "run_weak_lln"),
        "series": ("run_choquet_series", "run_three_series"),
        "config": (
            "EXPERIMENTS",
            "RunConfig",
            "member_to_spec",
            "model_from_spec",
            "model_to_spec",
            "parse_config",
        ),
        "parallel": ("parallel_map",),
        "runner": ("ExperimentResult", "Row", "run", "write_outputs"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
