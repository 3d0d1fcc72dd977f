"""Coevolutionary minimal substrates with landscape reconstruction.

Simulates two real-valued populations that evaluate each other (test-based
scoring or compositional slices of a shared landscape), rebuilds each
generation's subjective fitness landscape next to the static objective one,
and quantifies their divergence with three profile measures.
"""

from .substrate import (
    CrispLinear,
    ObjectiveKind,
    Ridge,
    Sinusoid,
    SmoothUnimodalPair,
    Task,
    eval_objective_shared,
    eval_objective_test,
    kind_from_name,
    subjective_compositional,
    subjective_test,
)
from .evolution import Trajectories, run_trajectory
from .landscape import (
    bhatt,
    dist,
    kld,
    make_grid,
    measure_generation,
    objective_profile,
    objective_side,
    subjective_profiles,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    MeasureSeries,
    ci95,
    run_batch,
    trajectory_seed,
)

__version__ = "0.3.0"

__all__ = [
    "CrispLinear",
    "SmoothUnimodalPair",
    "Ridge",
    "Sinusoid",
    "ObjectiveKind",
    "Task",
    "kind_from_name",
    "eval_objective_test",
    "eval_objective_shared",
    "subjective_test",
    "subjective_compositional",
    "Trajectories",
    "run_trajectory",
    "make_grid",
    "objective_profile",
    "objective_side",
    "subjective_profiles",
    "dist",
    "kld",
    "bhatt",
    "measure_generation",
    "ConfigError",
    "ExperimentConfig",
    "MeasureSeries",
    "ci95",
    "run_batch",
    "trajectory_seed",
    "__version__",
]
