"""Landscape reconstruction and similarity measures.

A landscape profile is a plain array of fitness values over a fixed grid of
search-space points (one grid per batch, `ExperimentConfig.grid()`). Per
generation, the objective profile is static while the subjective profile is
rebuilt from what the run actually used: the evaluators it picked from the
opposing population (test-based, averaged into an ensemble mean) or the
opposing representative (compositional, an exact slice of the shared
landscape). A batch builds its objective side once (`objective_side`: both
objective profiles and what the measures derive from them) and its runs'
subjective profiles a few runs at a time (`subjective_profiles`); the
landscape snapshots write P1's objective row next to those same arrays.

Three measures compare an objective profile against a subjective one of the
same shape:

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

import math
from dataclasses import dataclass

import numpy as np

from .evolution import Trajectories
from .substrate import (
    ObjectiveKind,
    Task,
    eval_objective_shared,
    eval_objective_test,
    flat_picks,
    objective_min,
    reference_partner,
)

# Floor applied after shifting profiles non-negative, before normalizing;
# keeps every bin positive so the divergence is always finite.
DISTRIBUTION_EPS = 1e-12

BHATT_MODES = ("hellinger", "verbatim")


def make_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Equally spaced grid of `count` points including both endpoints."""
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if not (lo < hi):
        raise ValueError(f"grid bounds must satisfy lo < hi, got ({lo}, {hi})")
    return np.linspace(lo, hi, count)


def objective_profile(kind: ObjectiveKind, grid: np.ndarray,
                      task: Task = Task.MAXIMIZE) -> np.ndarray:
    """Objective reference profile over the grid.

    Test-based kinds evaluate directly (task is irrelevant). Compositional
    kinds are sliced at the partner coordinate of the global optimum
    matching `task`, so the profile contains the task-relevant optimum.
    """
    grid = np.asarray(grid, dtype=float)
    if kind.test_based:
        return eval_objective_test(kind, grid)
    return eval_objective_shared(kind, grid, reference_partner(kind, task))


def subjective_profile_test(grid: np.ndarray, samples: np.ndarray, kind: ObjectiveKind,
                            picks: np.ndarray | None = None) -> np.ndarray:
    """Mean subjective landscape over one generation's evaluator samples.

    `samples` is the (pop_size, sample_size) array of evaluators a
    generation was scored against, or a stack of them, shape (..., pop_size,
    sample_size); the profile at each grid point is the mean over all
    per-individual landscapes, i.e. the subjective fitness of the point
    against all drawn evaluators pooled (`subjective_test` against the
    flattened sample). Gives one profile per generation, (..., grid points).

    With `picks`, `samples` is instead the population each sample was drawn
    from, shape (..., members), and `picks` (..., pop_size, sample_size)
    holds the drawn members' indices into it, as `Trajectories.picks` does:
    the pooled sample is `samples[..., picks]`, never built.

    A point's wins are counted, not compared one by one: each evaluator's
    value is placed among the grid's ascending objective values, weighted by
    how often it was picked, and a cumulative sum gives each point's count
    of strictly smaller pooled values. The count over the pooled size is
    the same float the mean of strict wins gives.
    """
    values = eval_objective_test(kind, np.asarray(samples, dtype=float))
    weights = None
    if picks is None:
        values = values.reshape(*values.shape[:-2], -1)  # every value picked once
        pooled = values.shape[-1]
    else:
        # how often each member of each row was picked
        weights = np.bincount(flat_picks(picks, values).ravel(), minlength=values.size)
        pooled = math.prod(np.shape(picks)[-2:])
    if values.size == 0 or pooled == 0:
        raise ValueError("empty evaluator sample: evaluation is disengaged")
    fx = eval_objective_test(kind, np.asarray(grid, dtype=float))
    lead, members, points = values.shape[:-1], values.shape[-1], fx.size
    rows = math.prod(lead)
    order = np.argsort(fx, axis=None, kind="stable")
    # bin b of row r counts the values, times their picks, that b grid values do not beat
    at = np.searchsorted(fx.ravel()[order], values.reshape(rows, members), side="right")
    at += np.arange(0, rows * (points + 1), points + 1)[:, None]
    counts = np.bincount(at.ravel(), weights, minlength=rows * (points + 1))
    # below[r, b]: the values, times their picks, that the grid value of rank b
    # beats, summed in place (whole numbers, so exact as floats too)
    below = counts.reshape(rows, points + 1).astype(float, copy=False)
    np.cumsum(below, axis=-1, out=below)
    rank = np.empty_like(order)
    rank[order] = np.arange(points)
    # gathered, not scattered: the profile stays C-contiguous, which the
    # measures' sums along it depend on bit for bit
    profile = below.take(rank, axis=-1)
    return np.divide(profile, pooled, out=profile).reshape(lead + fx.shape)


def subjective_profile_comp(grid: np.ndarray, partner_best,
                            kind: ObjectiveKind) -> np.ndarray:
    """Subjective landscape of a compositional generation: the exact slice of
    the shared objective at the opposing representative. An array of
    representatives, shape (...), gives one slice each, (..., grid points)."""
    return eval_objective_shared(kind, np.asarray(grid, dtype=float),
                                 np.asarray(partner_best, dtype=float)[..., None])


def _check_same_shape(obj: np.ndarray, sub: np.ndarray) -> None:
    if obj.shape != sub.shape:
        raise ValueError(f"profiles must have the same shape, got {obj.shape} and {sub.shape}")


def _dist_scale(obj: np.ndarray, *, grid_factor: bool = True) -> np.ndarray:
    """`dist`'s normaliser for each objective profile of shape (..., grid
    points): its value range, times sqrt(grid size) with grid_factor.

    Raises:
        ValueError: an objective profile is flat (zero range).
    """
    value_range = np.max(obj, axis=-1) - np.min(obj, axis=-1)
    if np.any(value_range == 0.0):
        raise ValueError("objective profile is flat; distance normalization undefined")
    return value_range * (np.sqrt(obj.shape[-1]) if grid_factor else 1.0)


def dist(obj: np.ndarray, sub: np.ndarray, *, grid_factor: bool = True):
    """Normalized Euclidean distance between two profiles on one grid.

    The norm of the pointwise difference is divided by the objective
    profile's value range times sqrt(grid size), making the result a
    unitary quantity independent of grid resolution. Set grid_factor=False
    for the plain range normalization. Profiles of shape (..., grid points)
    give one distance per row; a single pair gives a float.

    Raises:
        ValueError: the profiles differ in shape, or an objective profile
            is flat (zero range).
    """
    _check_same_shape(obj, sub)
    out = _dist(obj - sub, _dist_scale(obj, grid_factor=grid_factor))
    return float(out) if out.ndim == 0 else out


def _dist(d: np.ndarray, scale: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # each row's sum of squares as a dot product, as np.linalg.norm takes it
    # for one row, so a run's distances equal the per-row norms bit for bit
    norms = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0], out=out)
    return np.divide(norms, scale, out=out)


def to_distribution(values: np.ndarray, fitness_min: float = 0.0) -> np.ndarray:
    """Turn a profile into a distribution over grid points: shift by the
    objective function's global minimum, floor at a tiny epsilon, normalize.
    Each row of a (..., grid points) array is normalized on its own."""
    w = np.asarray(values, dtype=float) - fitness_min
    np.maximum(w, DISTRIBUTION_EPS, out=w)
    return np.divide(w, w.sum(axis=-1, keepdims=True), out=w)


# The row-wise kernels below take `out` for their (...,) results and `work`
# for one (..., grid points) temporary, so `measure_generation` can reuse
# both; given neither, they allocate, as `kld` and `bhatt` let them.
def _kld(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None,
         work: np.ndarray | None = None) -> np.ndarray:
    work = np.divide(p, q, out=work)
    np.log2(work, out=work)
    np.multiply(p, work, out=work)
    return np.maximum(0.0, work.sum(axis=-1, out=out), out=out)


def _bhatt(p: np.ndarray, q: np.ndarray, mode: str, sqrt_p: np.ndarray | None = None,
           out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    if mode not in BHATT_MODES:
        raise ValueError(f"bhatt mode must be one of {BHATT_MODES}, got {mode!r}")
    if mode == "verbatim":
        work = np.multiply(p, q, out=work)
        radicand = np.subtract(1.0, work.sum(axis=-1, out=out), out=out)
        return np.sqrt(np.maximum(0.0, radicand, out=out), out=out)
    if sqrt_p is None:
        sqrt_p = np.sqrt(p)
    work = np.sqrt(q, out=work)
    np.subtract(sqrt_p, work, out=work)
    np.square(work, out=work)
    h = np.multiply(0.5, work.sum(axis=-1, out=out), out=out)
    return np.minimum(1.0, np.sqrt(h, out=out), out=out)


def kld(obj: np.ndarray, sub: np.ndarray, *, fitness_min: float = 0.0):
    """Kullback-Leibler divergence (bits) from the objective profile to the
    subjective one, both normalized via to_distribution, row-wise like dist.
    Clamped at 0: two profiles that normalize to the same distribution up to
    rounding would otherwise give a tiny negative sum."""
    _check_same_shape(obj, sub)
    out = _kld(to_distribution(obj, fitness_min), to_distribution(sub, fitness_min))
    return float(out) if out.ndim == 0 else out


def bhatt(obj: np.ndarray, sub: np.ndarray, *,
          fitness_min: float = 0.0, mode: str = "hellinger"):
    """Overlap distance between the two normalized profiles, row-wise like dist.

    "hellinger" (default): sqrt(1 - sum(sqrt(p*q))), computed in the
    algebraically equivalent form sqrt(0.5 * sum((sqrt(p)-sqrt(q))^2)) so
    identical distributions give exactly 0. "verbatim": sqrt(1 - sum(p*q)),
    with the radicand clamped at 0 against floating-point overshoot.
    """
    _check_same_shape(obj, sub)
    out = _bhatt(to_distribution(obj, fitness_min), to_distribution(sub, fitness_min), mode)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ObjectiveSide:
    """The objective half of the measures, shared by every run and generation
    of a batch: the objective profiles, shape (..., grid points), and what
    `measure_generation` derives from them.

        distribution   to_distribution(profiles, fitness_min)
        sqrt           its square root, for bhatt's hellinger form
        scale          dist's normaliser of each row
    """

    profiles: np.ndarray
    fitness_min: float
    distribution: np.ndarray
    sqrt: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, profiles: np.ndarray, kind: ObjectiveKind, *,
           grid_factor: bool = True) -> ObjectiveSide:
        """The objective side of the given objective profiles."""
        fitness_min = objective_min(kind)
        distribution = to_distribution(profiles, fitness_min)
        return cls(profiles, fitness_min, distribution, np.sqrt(distribution),
                   _dist_scale(profiles, grid_factor=grid_factor))


def objective_side(kind: ObjectiveKind, grid: np.ndarray, tasks: tuple[Task, Task], *,
                   grid_factor: bool = True) -> ObjectiveSide:
    """A batch's objective side: rows (P1, P2), each population's static
    reference profile for its own task."""
    profiles = np.stack([objective_profile(kind, grid, task) for task in tasks])
    return ObjectiveSide.of(profiles, kind, grid_factor=grid_factor)


def subjective_profiles(traj: Trajectories, run: int | slice, grid: np.ndarray,
                        kind: ObjectiveKind) -> np.ndarray:
    """Subjective profiles of run `run` of a block, shape (generations+1, 2,
    grid points): per generation, P1's and P2's, rebuilt from what their
    fitnesses were computed with (evaluator picks or partner value). A slice
    of runs gives theirs in one call, shape (runs, generations+1, 2, grid
    points), each run's the same bytes as on its own."""
    if kind.test_based:
        genotypes = traj.genotypes[run]
        # generation k was scored against the opponent's generation max(k-1, 0)
        previous = np.maximum(np.arange(genotypes.shape[-3]) - 1, 0)
        opponents = genotypes[..., previous, ::-1, :]
        return subjective_profile_test(grid, opponents, kind, traj.picks[run])
    return subjective_profile_comp(grid, traj.partners[run], kind)


def measure_generation(objective: ObjectiveSide, sub: np.ndarray, *,
                       bhatt_mode: str = "hellinger") -> np.ndarray:
    """(dist, kld, bhatt) of P1 and of P2 for every generation of a run:
    subjective profiles `sub` of shape (..., 2, grid points), as
    `subjective_profiles` gives them, against the objective side's rows,
    which `sub` repeats along its leading axes. Returns (..., 2, 3), so a
    run (generations+1, 2, grid points) gives (generations+1, 2, 3).

    The subjective rows are normalized once and shared by kld and bhatt,
    and the three measures are written straight into the result through one
    reused temporary.
    """
    q = to_distribution(sub, objective.fitness_min)
    work = np.subtract(objective.profiles, sub)
    out = np.empty(work.shape[:-1] + (3,))
    _dist(work, objective.scale, out=out[..., 0])
    _kld(objective.distribution, q, out=out[..., 1], work=work)
    _bhatt(objective.distribution, q, bhatt_mode, objective.sqrt, out=out[..., 2], work=work)
    return out
