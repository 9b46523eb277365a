"""Numerical laboratory for sub-linear expectations over finite ambiguity sets.

Exact expectation calculus (max over a finite member family), convex mean
sets via support functions, adversarial path sampling, exact optimal-value
dynamic programming for path capacities, maximal-inequality checkers, and
law-of-large-numbers experiment drivers.
"""

from .distributions import (
    AmbiguitySet,
    Event,
    FiniteDiscrete,
    TestFunction,
    TwoSidedPareto,
)
from .errors import (
    DimensionTooLarge,
    MuNotAttainable,
    NonFiniteVerdict,
    NonIntegrable,
    NonLattice,
    NotConvergent,
    QuadratureNotConverged,
    SchemaError,
    StateSpaceTooLarge,
    SubexpError,
    TargetOutOfRange,
    TargetOutsideM,
    TooLargeForBruteForce,
)
from .expectation import (
    MomentReport,
    PositivePart,
    PowerAbs,
    choquet_integral,
    event_lower_capacity,
    event_upper_capacity,
    lower_expectation,
    mean_interval,
    truncated_expectation,
    upper_abs_excess,
    upper_abs_survival,
    upper_expectation,
    upper_second_truncated,
)
from .meanset import (
    DirectionNet,
    MeanSet,
    build_direction_net,
    build_mean_set,
    contains,
    distance_to_mean_set,
    support_function,
)
from .sampler import (
    BlockSchedule,
    Path,
    Stationary,
    TargetChasing,
    mixture_for_target,
    oscillation_schedule,
    sample_path,
    stationary_for_target,
    target_chasing_schedule,
)
from .lattice_dp import (
    AllBlocksHit,
    LatticeModel,
    RunningMax,
    TerminalEvent,
    TerminalSum,
    brute_force_value,
    dp_value,
    lattice_model,
    policy_enumeration_value,
)
from .inequalities import (
    BoundReport,
    SeriesReport,
    borel_cantelli_diagnostic,
    check_inequality,
    choquet_series_test,
    exponential_bound,
    inequality_grid,
    kolmogorov_lower_capacity_bound,
    kolmogorov_upper_bound,
    levy_bound_check,
)
from .axioms import (
    AxiomSuiteReport,
    PropertyCheck,
    random_ambiguity_set,
    random_max_affine,
    run_axiom_suite,
)
from .experiments import (
    ExperimentResult,
    Row,
    run_axioms,
    run_choquet_series,
    run_cluster_set,
    run_inequality_grid,
    run_marcinkiewicz,
    run_slln,
    run_three_series,
    run_weak_lln,
)
from .config import (
    EXPERIMENTS,
    RunConfig,
    member_to_spec,
    model_from_spec,
    model_to_spec,
    parse_config,
)
from .parallel import parallel_map
from .runner import run, run_config_file, write_outputs

__version__ = "0.1.0"
