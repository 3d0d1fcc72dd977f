"""Coevolutionary minimal substrates with landscape reconstruction.

Simulates two real-valued populations that evaluate each other (test-based
scoring or compositional slices of a shared landscape), rebuilds each
generation's subjective fitness landscape next to the static objective one,
and quantifies their divergence with three profile measures.
"""

from .substrate import (
    CrispLinear,
    InteractionMode,
    ObjectiveKind,
    Ridge,
    Sinusoid,
    SmoothUnimodalPair,
    Task,
    best_of,
    draw_sample,
    eval_objective_shared,
    eval_objective_test,
    kind_from_name,
    objective_min,
    reference_partner,
    subjective_compositional,
    subjective_test,
)
from .evolution import (
    CoevoState,
    Population,
    bootstrap_state,
    evaluate_test,
    init_population,
    mutate,
    run_trajectory,
    step_generation,
    tournament_select,
)
from .landscape import (
    bhatt,
    dist,
    kld,
    make_grid,
    measure_generation,
    objective_profile,
    run_profiles,
    subjective_profile_comp,
    subjective_profile_test,
    to_distribution,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    MeasureSeries,
    ci95,
    run_batch,
    trajectory_seed,
)

__version__ = "0.2.0"

__all__ = [
    "CrispLinear",
    "SmoothUnimodalPair",
    "Ridge",
    "Sinusoid",
    "ObjectiveKind",
    "Task",
    "InteractionMode",
    "kind_from_name",
    "eval_objective_test",
    "eval_objective_shared",
    "objective_min",
    "reference_partner",
    "subjective_test",
    "subjective_compositional",
    "best_of",
    "draw_sample",
    "Population",
    "CoevoState",
    "init_population",
    "evaluate_test",
    "tournament_select",
    "mutate",
    "step_generation",
    "bootstrap_state",
    "run_trajectory",
    "make_grid",
    "objective_profile",
    "subjective_profile_test",
    "subjective_profile_comp",
    "run_profiles",
    "dist",
    "kld",
    "bhatt",
    "to_distribution",
    "measure_generation",
    "ConfigError",
    "ExperimentConfig",
    "MeasureSeries",
    "ci95",
    "run_batch",
    "trajectory_seed",
    "__version__",
]
