"""Two-population synchronous coevolutionary algorithm, a block of runs at a time.

Both populations run an ordinary generational loop (fitness evaluation,
tournament selection, Gaussian mutation, no recombination) and are coupled
only through fitness: the populations of generation k+1 are evaluated
against the opposing population as it stood, evaluated, at the end of
generation k. A run keeps the evaluator samples (test-based) or the partner
representative (compositional) actually used, so any fitness value can be
recomputed afterwards.

Runs are independent, so a block of them advances together: each generation
is one numpy pass over `(runs, 2, pop_size)` arrays. Only the random draws
loop over runs, each run drawing from its own generator in a fixed order, so
a run's numbers do not depend on the block it is part of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .substrate import (
    Task,
    best_of,
    draw_sample,
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
    Test-based runs keep each individual's evaluator sample in `samples`;
    compositional runs keep the opposing representative each population was
    scored against in `partners`. The other of the two is None.

        genotypes, fitnesses   (runs, generations+1, 2, pop_size)
        best                   (runs, generations+1, 2)
        samples                (runs, generations+1, 2, pop_size, sample_size)
        partners               (runs, generations+1, 2)
    """

    tasks: tuple[Task, Task]
    genotypes: np.ndarray
    fitnesses: np.ndarray
    best: np.ndarray
    samples: np.ndarray | None = None
    partners: np.ndarray | None = None


def run_trajectory(config: ExperimentConfig, seeds) -> Trajectories:
    """Run one trajectory per seed, deterministically, as one block.

    Each seed is anything numpy's default_rng accepts (int or SeedSequence)
    and gives one run its own generator. Per run, generation 0 draws P1's
    and P2's initial genotypes (`uniform`), then P1's and P2's evaluator
    samples or, for compositional kinds, a uniformly drawn member of the
    opponent's initial population as partner (`integers`). Every later
    generation draws P1's tournaments (`integers`), mutation mask (`random`)
    and noise (`normal`), the same for P2, then P1's and P2's samples.

    A numeric overflow or invalid operation (e.g. from an enormous
    mutation_sigma) raises FloatingPointError instead of producing inf or nan.
    """
    config.validate()
    kind = config.objective_kind()
    mode = config.interaction_mode()
    tasks = (mode.task_p1, mode.task_p2)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n, m = config.pop_size, config.sample_size
    shape = (len(rngs), config.generations + 1, 2)
    traj = Trajectories(tasks, np.empty(shape + (n,)), np.empty(shape + (n,)),
                        np.empty(shape))
    if kind.test_based:
        traj.samples = np.empty(shape + (n, m))
    else:
        traj.partners = np.empty(shape)
    intervals = [config.init_interval(p) for p in ("P1", "P2")]
    with np.errstate(over="raise", invalid="raise"):
        for k in range(config.generations + 1):
            genotypes = traj.genotypes[:, k]
            if k == 0:
                genotypes[...] = [[rng.uniform(lo, hi, n) for lo, hi in intervals]
                                  for rng in rngs]
            else:
                _breed(traj, k, rngs, config)
            # P1 is scored against P2's previous generation, P2 against P1's
            opponents = traj.genotypes[:, max(k - 1, 0), ::-1]
            if kind.test_based:
                picks = np.array([[draw_sample(n, n, m, rng, config.sample_with_replacement)
                                   for _ in tasks] for rng in rngs])
                samples = np.take_along_axis(opponents[:, :, None], picks, axis=-1)
                traj.samples[:, k] = samples
                traj.fitnesses[:, k] = subjective_test(genotypes, samples, kind)
            else:
                if k == 0:
                    # no fitness yet to pick a best member by
                    picks = np.array([[rng.integers(0, n) for _ in tasks] for rng in rngs])
                    partners = np.take_along_axis(opponents, picks[..., None], axis=-1)[..., 0]
                else:
                    partners = traj.best[:, k - 1, ::-1]
                traj.partners[:, k] = partners
                traj.fitnesses[:, k] = subjective_compositional(genotypes, partners[..., None],
                                                                kind)
            for i, task in enumerate(tasks):
                traj.best[:, k, i] = best_of(genotypes[:, i], traj.fitnesses[:, k, i], task)
    return traj


def _breed(traj: Trajectories, k: int, rngs: list[np.random.Generator],
           config: ExperimentConfig) -> None:
    """Fill generation k's genotypes from generation k-1's by tournament
    selection, then Gaussian mutation.

    Each of pop_size tournaments draws tournament_size contestants uniformly
    with replacement; the winner is the contestant best under the
    population's task, ties going to the first drawn. Each winner then gains
    N(0, mutation_sigma) noise with probability mutation_prob, else passes
    through bit-exactly.
    """
    n, t = config.pop_size, config.tournament_size
    contests = np.empty((len(rngs), 2, n, t), dtype=np.int64)
    mutated = np.empty((len(rngs), 2, n), dtype=bool)
    noise = np.empty((len(rngs), 2, n))
    for b, rng in enumerate(rngs):
        for i in range(2):
            contests[b, i] = rng.integers(0, n, size=(n, t))
            mutated[b, i] = rng.random(n) < config.mutation_prob
            noise[b, i] = rng.normal(0.0, config.mutation_sigma, n)
    flat = contests.reshape(len(rngs), 2, n * t)
    genotypes = np.take_along_axis(traj.genotypes[:, k - 1], flat, axis=-1).reshape(contests.shape)
    fitnesses = np.take_along_axis(traj.fitnesses[:, k - 1], flat, axis=-1).reshape(contests.shape)
    children = traj.genotypes[:, k]
    for i, task in enumerate(traj.tasks):
        children[:, i] = best_of(genotypes[:, i], fitnesses[:, i], task)
    np.add(children, noise, out=children, where=mutated)
