"""Landscape reconstruction and similarity measures.

A landscape profile is the vector of fitness values over a fixed grid of
search-space points. Per generation, the objective profile is static while
the subjective profile is rebuilt from what the run actually used: the
retained evaluator samples (test-based, averaged into an ensemble mean) or
the opposing representative (compositional, an exact slice of the shared
landscape).

Three measures compare an objective profile against a subjective one:

    dist   normalized Euclidean distance, 0 for identical profiles, and
           within [0, 1] whenever the subjective values stay inside the
           objective profile's range;
    kld    Kullback-Leibler divergence (base 2) between the profiles
           viewed as distributions: shifted non-negative, floored at a
           tiny epsilon, normalized to sum 1; >= 0, asymmetric;
    bhatt  Hellinger-style overlap distance between the same two
           distributions, in [0, 1], 0 for identical ones. A verbatim
           variant sqrt(1 - sum(p*q)) is available for comparison; note it
           does not vanish for identical distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import CoevoState
from .substrate import (
    ObjectiveKind,
    Task,
    eval_objective_shared,
    eval_objective_test,
    objective_min,
    reference_partner,
)

# Floor applied after shifting profiles non-negative, before normalizing;
# keeps every bin positive so the divergence is always finite.
DISTRIBUTION_EPS = 1e-12

BHATT_MODES = ("hellinger", "verbatim")


@dataclass
class LandscapeProfile:
    """Fitness values over a fixed grid."""

    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class MeasureTriple:
    """The three profile-similarity values for one population at one generation."""

    dist: float
    kld: float
    bhatt: float


def make_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Equally spaced grid of `count` points including both endpoints."""
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if not (lo < hi):
        raise ValueError(f"grid bounds must satisfy lo < hi, got ({lo}, {hi})")
    return np.linspace(lo, hi, count)


def objective_profile(kind: ObjectiveKind, grid: np.ndarray,
                      task: Task = Task.MAXIMIZE) -> LandscapeProfile:
    """Objective reference profile over the grid.

    Test-based kinds evaluate directly (task is irrelevant). Compositional
    kinds are sliced at the partner coordinate of the global optimum
    matching `task`, so the profile contains the task-relevant optimum.
    """
    grid = np.asarray(grid, dtype=float)
    if kind.test_based:
        values = eval_objective_test(kind, grid)
    else:
        values = eval_objective_shared(kind, grid, reference_partner(kind, task))
    return LandscapeProfile(grid=grid, values=values)


def subjective_profile_test(grid: np.ndarray, samples: np.ndarray,
                            kind: ObjectiveKind) -> LandscapeProfile:
    """Mean subjective landscape over one generation's evaluator samples.

    `samples` is the (pop_size, sample_size) array retained by the
    generation's evaluation; the profile at each grid point is the mean over
    all per-individual landscapes, i.e. the fraction of all drawn evaluators
    the point strictly beats.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no evaluator samples to average over")
    grid = np.asarray(grid, dtype=float)
    f_grid = eval_objective_test(kind, grid)
    f_samples = np.atleast_2d(eval_objective_test(kind, samples))
    values = (f_grid[:, None, None] > f_samples[None, :, :]).mean(axis=(1, 2))
    return LandscapeProfile(grid=grid, values=values)


def subjective_profile_comp(grid: np.ndarray, partner_best: float,
                            kind: ObjectiveKind) -> LandscapeProfile:
    """Subjective landscape of a compositional generation: the exact slice of
    the shared objective at the opposing representative."""
    grid = np.asarray(grid, dtype=float)
    values = eval_objective_shared(kind, grid, partner_best)
    return LandscapeProfile(grid=grid, values=values)


def _check_same_grid(obj: LandscapeProfile, sub: LandscapeProfile) -> None:
    if not np.array_equal(obj.grid, sub.grid):
        raise ValueError("profiles must share the same grid")


def dist(obj: LandscapeProfile, sub: LandscapeProfile, *,
         grid_factor: bool = True) -> float:
    """Normalized Euclidean distance between two profiles on one grid.

    The norm of the pointwise difference is divided by the objective
    profile's value range times sqrt(grid size), making the result a
    unitary quantity independent of grid resolution. Set grid_factor=False
    for the plain range normalization.

    Raises:
        ValueError: the objective profile is flat (zero range).
    """
    _check_same_grid(obj, sub)
    value_range = float(np.max(obj.values) - np.min(obj.values))
    if value_range == 0.0:
        raise ValueError("objective profile is flat; distance normalization undefined")
    dist_max = value_range * (np.sqrt(obj.grid.size) if grid_factor else 1.0)
    return float(np.linalg.norm(obj.values - sub.values) / dist_max)


def to_distribution(values: np.ndarray, fitness_min: float = 0.0) -> np.ndarray:
    """Turn a profile into a distribution over grid points: shift by the
    objective function's global minimum, floor at a tiny epsilon, normalize."""
    w = np.maximum(np.asarray(values, dtype=float) - fitness_min, DISTRIBUTION_EPS)
    return w / w.sum()


def kld(obj: LandscapeProfile, sub: LandscapeProfile, *,
        fitness_min: float = 0.0) -> float:
    """Kullback-Leibler divergence (bits) from the objective profile to the
    subjective one, both normalized via to_distribution."""
    _check_same_grid(obj, sub)
    p = to_distribution(obj.values, fitness_min)
    q = to_distribution(sub.values, fitness_min)
    return float(np.sum(p * np.log2(p / q)))


def bhatt(obj: LandscapeProfile, sub: LandscapeProfile, *,
          fitness_min: float = 0.0, mode: str = "hellinger") -> float:
    """Overlap distance between the two normalized profiles.

    "hellinger" (default): sqrt(1 - sum(sqrt(p*q))), computed in the
    algebraically equivalent form sqrt(0.5 * sum((sqrt(p)-sqrt(q))^2)) so
    identical distributions give exactly 0. "verbatim": sqrt(1 - sum(p*q)),
    with the radicand clamped at 0 against floating-point overshoot.
    """
    if mode not in BHATT_MODES:
        raise ValueError(f"bhatt mode must be one of {BHATT_MODES}, got {mode!r}")
    _check_same_grid(obj, sub)
    p = to_distribution(obj.values, fitness_min)
    q = to_distribution(sub.values, fitness_min)
    if mode == "verbatim":
        return float(np.sqrt(max(0.0, 1.0 - np.sum(p * q))))
    h = np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))
    return float(min(1.0, h))


def _subjective_of(state: CoevoState, which: int, grid: np.ndarray,
                   kind: ObjectiveKind) -> LandscapeProfile:
    if kind.test_based:
        return subjective_profile_test(grid, (state.samples1, state.samples2)[which], kind)
    return subjective_profile_comp(grid, (state.partner1, state.partner2)[which], kind)


def snapshot_profiles(state: CoevoState, grid: np.ndarray, kind: ObjectiveKind
                      ) -> tuple[LandscapeProfile, LandscapeProfile, LandscapeProfile]:
    """Row material for one landscape snapshot: the objective profile (sliced
    for P1's task when the kinds disagree) and both subjective profiles."""
    obj = objective_profile(kind, grid, state.pop1.task)
    return obj, _subjective_of(state, 0, grid, kind), _subjective_of(state, 1, grid, kind)


def measure_generation(state: CoevoState, grid: np.ndarray, kind: ObjectiveKind, *,
                       grid_factor: bool = True, bhatt_mode: str = "hellinger"
                       ) -> tuple[MeasureTriple, MeasureTriple]:
    """All three measures for both populations of one evaluated state.

    Each population's subjective profile is rebuilt from what its current
    fitnesses were computed with (retained samples or partner value), and
    compared against the objective reference profile for its own task.
    """
    fitness_min = objective_min(kind)
    triples = []
    for which, pop in enumerate((state.pop1, state.pop2)):
        obj = objective_profile(kind, grid, pop.task)
        sub = _subjective_of(state, which, grid, kind)
        triples.append(MeasureTriple(
            dist=dist(obj, sub, grid_factor=grid_factor),
            kld=kld(obj, sub, fitness_min=fitness_min),
            bhatt=bhatt(obj, sub, fitness_min=fitness_min, mode=bhatt_mode),
        ))
    return triples[0], triples[1]
