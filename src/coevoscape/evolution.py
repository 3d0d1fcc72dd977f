"""Two-population synchronous coevolutionary algorithm, a block of runs at a time.

Both populations run an ordinary generational loop (fitness evaluation,
tournament selection, Gaussian mutation, no recombination) and are coupled
only through fitness: the populations of generation k+1 are evaluated
against the opposing population as it stood, evaluated, at the end of
generation k. A run keeps which opposing members each individual was scored
against (test-based: the indices of its evaluator sample) or the partner
representative (compositional), so any fitness value can be recomputed
afterwards from those and the genotypes.

Runs are independent, so a block of them advances together: each generation
is one numpy pass over `(runs, 2, pop_size)` arrays. Only the random draws
loop over runs: each run draws its whole trajectory's randomness from its own
generator in six calls, in a fixed order, before the first generation, so a
run's numbers do not depend on the block it is part of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .substrate import (
    Task,
    best_of,
    draw_sample,
    flat_index,
    subjective_compositional,
    subjective_test,
)

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import ExperimentConfig


@dataclass
class Trajectories:
    """A block of runs, every generation evaluated (k = 0 included).

    Arrays are indexed [run, generation, population, ...], populations in
    (P1, P2) order; `tasks` holds their tasks. `fitnesses` are subjective.
    Test-based runs keep each individual's evaluator sample in `picks`, as
    indices into the opposing population of generation max(k-1, 0): member
    j of population i at generation k was scored against
    `genotypes[r, max(k-1, 0), 1-i][picks[r, k, i, j]]`. The indices are
    held in the smallest unsigned type that fits pop_size - 1. Compositional
    runs keep the opposing representative each population was scored
    against in `partners`. The other of the two is None.

        genotypes, fitnesses   (runs, generations+1, 2, pop_size)
        best                   (runs, generations+1, 2)
        picks                  (runs, generations+1, 2, pop_size, sample_size)
        partners               (runs, generations+1, 2)
    """

    tasks: tuple[Task, Task]
    genotypes: np.ndarray
    fitnesses: np.ndarray
    best: np.ndarray
    picks: np.ndarray | None = None
    partners: np.ndarray | None = None


def _layout(config: ExperimentConfig, runs: int) -> dict[str, tuple[tuple[int, ...], type]]:
    """Shape and dtype of every array `run_trajectory` holds for a block of
    `runs` runs: the `Trajectories` fields and the up-front draws. Indices
    into a population (tournament contestants, evaluator picks) are held in
    the smallest unsigned type that fits pop_size - 1."""
    gens, n = config.generations, config.pop_size
    m, t = config.sample_size, config.tournament_size
    index = np.min_scalar_type(n - 1).type
    shape = (runs, gens + 1, 2)
    if config.objective_kind().test_based:
        used = {"picks": (shape + (n, m), index)}
    else:
        used = {"partners": (shape, float)}
    return {"genotypes": (shape + (n,), float), "fitnesses": (shape + (n,), float),
            "best": (shape, float), **used,
            "contests": ((runs, gens, 2, n, t), index),
            "mutated": ((runs, gens, 2, n), bool),
            "noise": ((runs, gens, 2, n), float)}


def run_bytes(config: ExperimentConfig) -> int:
    """Bytes `run_trajectory` holds in its arrays for each run of a block."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize
               for shape, dtype in _layout(config, 1).values())


def run_trajectory(config: ExperimentConfig, seeds) -> Trajectories:
    """Run one trajectory per seed, deterministically, as one block.

    Each seed is anything numpy's default_rng accepts (int or SeedSequence)
    and gives one run its own generator. No draw depends on the run's state,
    so a run draws all its randomness before the first generation, in this
    order (RNG stream 0.3.0; G generations, n = pop_size, t =
    tournament_size, m = sample_size):

    1. P1's and P2's initial genotypes, `uniform(lo, hi, n)` each;
    2. the tournaments of generations 1..G, `integers(0, n, (G, 2, n, t))`;
    3. the mutation mask, `random((G, 2, n)) < mutation_prob`;
    4. the mutation noise, `normal(0, mutation_sigma, (G, 2, n))`;
    5. for test-based kinds, the evaluator samples of generations 0..G as
       one `draw_sample(n, (G+1)*2*n, m, rng, sample_with_replacement)`,
       read as [generation, population, individual, member]; for
       compositional kinds, the generation-0 partners of P1 and P2 as
       members of the opponent's initial population, `integers(0, n, 2)`.

    `config` was checked when it was made, so nothing is checked here. A
    numeric overflow or invalid operation (e.g. from an enormous
    mutation_sigma) raises FloatingPointError instead of producing inf or nan.
    """
    kind = config.objective_kind()
    tasks = config.tasks()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    gens, n, m, t = (config.generations, config.pop_size, config.sample_size,
                     config.tournament_size)
    arrays = {name: np.empty(shape, dtype)
              for name, (shape, dtype) in _layout(config, len(rngs)).items()}
    traj = Trajectories(tasks, arrays["genotypes"], arrays["fitnesses"], arrays["best"],
                        arrays.get("picks"), arrays.get("partners"))
    contests, mutated, noise = arrays["contests"], arrays["mutated"], arrays["noise"]
    intervals = [config.init_interval(p) for p in ("P1", "P2")]
    for b, rng in enumerate(rngs):
        for i, (lo, hi) in enumerate(intervals):
            traj.genotypes[b, 0, i] = rng.uniform(lo, hi, n)
        # int64 draws, stored narrower: the values, and so the stream, are the same
        contests[b] = rng.integers(0, n, (gens, 2, n, t))
        mutated[b] = rng.random((gens, 2, n)) < config.mutation_prob
        noise[b] = rng.normal(0.0, config.mutation_sigma, (gens, 2, n))
        if kind.test_based:
            sample = draw_sample(n, (gens + 1) * 2 * n, m, rng, config.sample_with_replacement)
            traj.picks[b] = sample.reshape(traj.picks.shape[1:])
        else:
            # no fitness yet to pick a best member by: P1's partner is a member
            # of P2's initial population, P2's one of P1's
            traj.partners[b, 0] = traj.genotypes[b, 0, (1, 0), rng.integers(0, n, 2)]
    with np.errstate(over="raise", invalid="raise"):
        for k in range(gens + 1):
            genotypes = traj.genotypes[:, k]
            if k > 0:
                _breed(traj, k, contests[:, k - 1], mutated[:, k - 1], noise[:, k - 1])
            # P1 is scored against P2's previous generation, P2 against P1's
            if kind.test_based:
                opponents = traj.genotypes[:, max(k - 1, 0), ::-1]
                traj.fitnesses[:, k] = subjective_test(genotypes, opponents, kind,
                                                       traj.picks[:, k])
            else:
                if k > 0:
                    traj.partners[:, k] = traj.best[:, k - 1, ::-1]
                traj.fitnesses[:, k] = subjective_compositional(
                    genotypes, traj.partners[:, k, :, None], kind)
            for i, task in enumerate(tasks):
                traj.best[:, k, i] = best_of(genotypes[:, i], traj.fitnesses[:, k, i], task)
    return traj


def _breed(traj: Trajectories, k: int, contests: np.ndarray, mutated: np.ndarray,
           noise: np.ndarray) -> None:
    """Fill generation k's genotypes from generation k-1's by tournament
    selection, then Gaussian mutation, from the block's draws for generation
    k: `contests` (runs, 2, pop_size, tournament_size) holds each
    tournament's contestants, `mutated` and `noise` (runs, 2, pop_size) each
    winner's mutation.

    The winner of a tournament is the contestant best under the population's
    task, ties going to the first drawn. Each winner then gains its noise
    where `mutated`, else passes through bit-exactly.
    """
    contests = flat_index(contests, traj.genotypes[:, k - 1])
    genotypes = traj.genotypes[:, k - 1].take(contests)
    fitnesses = traj.fitnesses[:, k - 1].take(contests)
    # mutated in a contiguous array: a masked add is slow on the strided slice
    children = np.stack([best_of(genotypes[:, i], fitnesses[:, i], task)
                         for i, task in enumerate(traj.tasks)], axis=1)
    np.add(children, noise, out=children, where=mutated)
    traj.genotypes[:, k] = children
