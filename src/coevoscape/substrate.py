"""Objective fitness functions and subjective-fitness rules for two-population
coevolution on real-valued number games.

Two families of benchmark functions are provided:

    Test-based functions map a single search-space point to fitness. An
    individual's subjective fitness is the fraction of evaluators (a random
    sample drawn from the opposing population) whose objective fitness it
    strictly exceeds, so the subjective landscape is a unitary function
    with values in {0, 1/mu, ..., 1}.

    Compositional functions map a pair of points, one coordinate per
    population, to a shared fitness. An individual's subjective fitness is
    the shared value at its own coordinate paired with the opposing
    population's representative, i.e. a one-dimensional slice of the shared
    landscape.

All four functions level off to a mid-range value away from their optima,
so search needs no domain bounds and genotypes are never clipped.

Everything here is pure: randomness (the evaluator sample) is an input,
never drawn internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Union

import numpy as np

# Diagonal coordinate and fitness of the sinusoid's global extrema: the
# maximum sits at (+c, +c) with value +v, the minimum at (-c, -c) with -v.
SINUSOID_OPT_COORD = 0.4925
SINUSOID_OPT_VALUE = 0.5611


class Task(Enum):
    """Search direction assigned to one population for a whole run."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class CrispLinear:
    """Piecewise linear benchmark: f(x) = x on [0, 1], 0.5 elsewhere.

    Minimum 0 at x=0, maximum 1 at x=1; flat mid-level 0.5 outside the
    unit interval keeps both optima away from any domain boundary.
    """

    test_based: ClassVar[bool] = True


@dataclass(frozen=True)
class SmoothUnimodalPair:
    """Smooth benchmark: f(x) = 1/2 + x / (1 + x^2).

    Minimum 0 at x=-1, maximum 1 at x=+1, tending to 0.5 for |x| large.
    """

    test_based: ClassVar[bool] = True


@dataclass(frozen=True)
class Ridge:
    """Shared two-input landscape with a single diagonal ridge.

    Inside the square 0 <= x, y <= n the fitness is
    n + 2*min(x, y) - max(x, y); outside it is the mid-level value n.
    The ridge runs from (0, 0) at height n to the unique maximum 2n at
    (n, n); the two minima with value 0 sit at (0, n) and (n, 0).

    Args:
        n: Ridge size parameter, sets both the extent of the square and
            the height of the landscape. Must be positive.
    """

    n: float = 8.0
    test_based: ClassVar[bool] = False

    def __post_init__(self):
        if not (self.n > 0):
            raise ValueError(f"ridge parameter n must be positive, got {self.n}")


@dataclass(frozen=True)
class Sinusoid:
    """Shared two-input landscape: f(x, y) = sin(x + y) / (1 + x^2 + y^2).

    Global maximum ~0.5611 at (0.4925, 0.4925), global minimum ~-0.5611 at
    (-0.4925, -0.4925); levels off to 0 for (x, y) large in magnitude.
    """

    test_based: ClassVar[bool] = False


ObjectiveKind = Union[CrispLinear, SmoothUnimodalPair, Ridge, Sinusoid]

_KIND_NAMES = {
    "crisp": CrispLinear,
    "smooth": SmoothUnimodalPair,
    "ridge": Ridge,
    "sinusoid": Sinusoid,
}


def kind_from_name(name: str, ridge_n: float = 8.0) -> ObjectiveKind:
    """Build an ObjectiveKind from its config name (crisp|smooth|ridge|sinusoid)."""
    try:
        cls = _KIND_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective function {name!r}; expected one of {sorted(_KIND_NAMES)}"
        ) from None
    return cls(ridge_n) if cls is Ridge else cls()


def eval_objective_test(kind: ObjectiveKind, x):
    """Objective fitness of a test-based function at x.

    Accepts a scalar or an ndarray; returns the same shape (floats for
    scalars). Raises TypeError for compositional kinds.
    """
    if not kind.test_based:
        raise TypeError(
            f"{type(kind).__name__} is compositional; use eval_objective_shared"
        )
    x = np.asarray(x, dtype=float)
    if isinstance(kind, CrispLinear):
        out = np.where((x >= 0.0) & (x <= 1.0), x, 0.5)
    else:
        out = 0.5 + x / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out


def eval_objective_shared(kind: ObjectiveKind, x, y):
    """Shared objective fitness of a compositional function at (x, y).

    Broadcasts over ndarray inputs; raises TypeError for test-based kinds.
    """
    if kind.test_based:
        raise TypeError(
            f"{type(kind).__name__} is test-based; use eval_objective_test"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(kind, Ridge):
        n = kind.n
        inside = (x >= 0.0) & (x <= n) & (y >= 0.0) & (y <= n)
        out = np.where(inside, n + 2.0 * np.minimum(x, y) - np.maximum(x, y), n)
    else:
        out = np.sin(x + y) / (1.0 + x * x + y * y)
    return float(out) if out.ndim == 0 else out


def objective_min(kind: ObjectiveKind) -> float:
    """Global minimum of the objective function (used to shift profiles
    non-negative before distribution-style normalization)."""
    if isinstance(kind, Sinusoid):
        return -SINUSOID_OPT_VALUE
    return 0.0


def reference_partner(kind: ObjectiveKind, task: Task) -> float:
    """Partner coordinate of the global optimum matching `task`.

    Fixing the second input of a compositional function to this value gives
    the one-dimensional objective reference slice that contains the
    task-relevant global optimum.
    """
    if kind.test_based:
        raise TypeError(f"{type(kind).__name__} has no partner coordinate")
    if isinstance(kind, Ridge):
        return kind.n if task is Task.MAXIMIZE else 0.0
    return SINUSOID_OPT_COORD if task is Task.MAXIMIZE else -SINUSOID_OPT_COORD


def subjective_test(x, samples, kind: ObjectiveKind, picks=None):
    """Subjective fitness of x: the fraction of evaluators it strictly beats.

    The mean of f(x)[..., None] > f(samples) over the last axis, so every
    value is a multiple of 1/samples.shape[-1] in [0, 1]; the wins are
    counted as a sum of zeros and ones, which is exact, and divided by the
    sample size, so the floats are the mean's. A scalar against a
    1-D sample gives a float; a population (pop,) against its per-individual
    rows (pop, sample) gives one fitness each; a grid against the pooled
    samples of a generation gives its subjective profile (which
    `landscape.subjective_profile_test` counts from the evaluator picks,
    weighting each opponent by how often it was picked).

    With `picks`, `samples` is instead the opposing population each sample
    was drawn from, shape (..., members), and `picks` (..., pop_size,
    sample_size) holds the drawn members' indices into it, as
    `Trajectories.picks` does: the objective is evaluated once per member
    and each sample's values are gathered from those (`flat_picks`), so
    the sample `samples[..., picks]` is never built. The result is the same
    float as against that sample.

    Raises:
        ValueError: empty sample (nothing to evaluate against), or picks
            whose leading shape does not match the populations'.
        IndexError: a pick outside the population it indexes.
    """
    values = np.asarray(eval_objective_test(kind, np.asarray(samples, dtype=float)))
    if picks is not None:
        values = values.take(flat_picks(picks, values))
    if values.size == 0:
        raise ValueError("empty evaluator sample: evaluation is disengaged")
    fx = np.asarray(eval_objective_test(kind, x))
    out = ((fx[..., None] > values) @ np.ones(values.shape[-1])) / values.shape[-1]
    return float(out) if out.ndim == 0 else out


def flat_picks(picks, populations: np.ndarray) -> np.ndarray:
    """Evaluator picks as flat indices into a stack of populations.

    `populations` has shape (..., members) and `picks` (..., pop_size,
    sample_size) indexes the population with the same leading index, as
    `Trajectories.picks` indexes each generation's opponents. Returns
    `flat_index(picks, populations)`, np.intp indices into
    `populations.ravel()` of the same shape as `picks`.

    Raises:
        ValueError: the picks' leading shape is not the populations'.
        IndexError: a pick outside the population it indexes, which a flat
            index would otherwise read from the next row.
    """
    picks = np.asarray(picks)
    lead, members = populations.shape[:-1], populations.shape[-1]
    if picks.ndim < 2 or picks.shape[:-2] != lead:
        raise ValueError(f"picks of shape {picks.shape} do not match populations of "
                         f"shape {populations.shape}")
    if not picks.size:
        return picks.astype(np.intp)
    if picks.max() >= members or (picks.dtype.kind != "u" and picks.min() < 0):
        raise IndexError(f"evaluator picks must index the {members} members they are "
                         f"drawn from")
    return flat_index(picks, populations)


def flat_index(index, stack: np.ndarray) -> np.ndarray:
    """Indices along the last axis of a non-empty `stack` (..., members) as
    np.intp indices into `stack.ravel()`.

    `index` has the stack's leading shape, then any trailing axes, and each
    entry indexes the row with the same leading index. The result is that
    entry plus its row's offset, row * members, added in np.intp, never in
    the index's own (possibly narrow) type. Nothing is range-checked: an
    entry of `members` or more reads the next row.
    """
    index = np.asarray(index)
    lead, members = stack.shape[:-1], stack.shape[-1]
    rows = np.arange(0, stack.size, members, dtype=np.intp)
    return np.add(index, rows.reshape(lead + (1,) * (index.ndim - len(lead))), dtype=np.intp)


def subjective_compositional(x, partner_best: float, kind: ObjectiveKind):
    """Subjective fitness of x given the opposing population's representative.

    Exactly the shared objective along the slice y = partner_best.
    """
    return eval_objective_shared(kind, x, partner_best)


def best_of(genotypes, fitnesses, task: Task):
    """Genotype with maximal (Task.MAXIMIZE) or minimal fitness along the last
    axis: a float for one population, one value per row for a stack of them.

    Ties break to the lowest index so runs stay reproducible.
    """
    genotypes = np.asarray(genotypes, dtype=float)
    fitnesses = np.asarray(fitnesses, dtype=float)
    if genotypes.size == 0:
        raise ValueError("empty population has no best member")
    if genotypes.shape != fitnesses.shape:
        raise ValueError("genotypes and fitnesses must have equal length")
    pick = fitnesses.argmax(axis=-1) if task is Task.MAXIMIZE else fitnesses.argmin(axis=-1)
    out = genotypes.take(flat_index(pick, genotypes))
    return float(out) if out.ndim == 0 else out


def draw_sample(n: int, rows: int, size: int, rng: np.random.Generator,
                with_replacement: bool = False) -> np.ndarray:
    """Draw `rows` independent evaluator samples of `size` members each from
    an opposing population of `n`, as one (rows, size) block of member
    indices.

    Without replacement by default: each row is the first `size` entries of
    its own random permutation of the population, so its members are
    distinct; requires size <= n. With replacement, every entry is an
    independent uniform index.
    """
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    if with_replacement:
        return rng.integers(0, n, (rows, size))
    if size > n:
        raise ValueError(
            f"cannot draw {size} distinct evaluators from a population of {n}"
        )
    return rng.permuted(np.broadcast_to(np.arange(n), (rows, n)), axis=1)[:, :size]
