"""Two-population synchronous coevolutionary algorithm.

Both populations run an ordinary generational loop (fitness evaluation,
tournament selection, Gaussian mutation, no recombination) and are coupled
only through fitness: the populations of generation k+1 are evaluated
against the opposing population as it stood, evaluated, at the end of
generation k. Each state keeps the evaluator samples (test-based) or the
partner representative (compositional) actually used, so any fitness value
can be recomputed afterwards.

A trajectory is sequential; distinct trajectories own their RNG and may run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .substrate import (
    ObjectiveKind,
    Task,
    best_of,
    draw_sample,
    subjective_compositional,
    subjective_test,
)

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import ExperimentConfig


@dataclass
class Population:
    """One population: genotypes plus their subjective fitnesses.

    fitnesses is None until the population has been evaluated; it always
    holds subjective values, never objective ones.
    """

    genotypes: np.ndarray
    task: Task
    label: str = "P1"
    fitnesses: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.genotypes.size)

    @property
    def evaluated(self) -> bool:
        return self.fitnesses is not None

    def best(self) -> float:
        """Representative this population presents: its best member under
        its own task."""
        if not self.evaluated:
            raise ValueError(f"population {self.label} has no fitnesses yet")
        return best_of(self.genotypes, self.fitnesses, self.task)


@dataclass
class CoevoState:
    """Both populations at one generation, fully evaluated.

    samples1/samples2 hold the per-individual evaluator draws used in a
    test-based evaluation, shape (pop_size, sample_size); partner1/partner2
    hold the opposing representative used in a compositional evaluation.
    Exactly one of the two mechanisms is populated per run, and the stored
    values suffice to recompute every fitness in the state.
    """

    pop1: Population
    pop2: Population
    generation: int
    best1: float
    best2: float
    samples1: np.ndarray | None = None
    samples2: np.ndarray | None = None
    partner1: float | None = None
    partner2: float | None = None


def init_population(config: ExperimentConfig, task: Task, rng: np.random.Generator,
                    label: str = "P1") -> Population:
    """Draw pop_size genotypes i.i.d. uniform on the population's init interval."""
    lo, hi = config.init_interval(label)
    genotypes = rng.uniform(lo, hi, config.pop_size)
    return Population(genotypes=genotypes, task=task, label=label)


def evaluate_test(pop: Population, opponent_prev: Population, config: ExperimentConfig,
                  kind: ObjectiveKind, rng: np.random.Generator
                  ) -> tuple[Population, np.ndarray]:
    """Assign test-based subjective fitness to every individual.

    Each individual gets a fresh, independent evaluator sample of
    sample_size members drawn from the opposing population's genotypes; the
    whole population's samples are drawn in one call, row i for individual
    i, and scored in one call. Returns the evaluated population and the
    (pop_size, sample_size) array of samples so the per-generation landscape
    can be rebuilt from them.
    """
    samples = draw_sample(opponent_prev.genotypes, len(pop), config.sample_size, rng,
                          config.sample_with_replacement)
    return replace(pop, fitnesses=subjective_test(pop.genotypes, samples, kind)), samples


def tournament_select(pop: Population, config: ExperimentConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Fill pop_size offspring slots by independent tournaments.

    Each tournament draws tournament_size contestants uniformly with
    replacement; the winner is the contestant better under the population's
    task, ties going to the first drawn.
    """
    if not pop.evaluated:
        raise ValueError(f"population {pop.label} has no fitnesses yet")
    n = len(pop)
    idx = rng.integers(0, n, size=(n, config.tournament_size))
    contest = pop.fitnesses[idx]
    # argmax/argmin return the first occurrence, i.e. the first-drawn winner
    if pop.task is Task.MAXIMIZE:
        win = np.argmax(contest, axis=1)
    else:
        win = np.argmin(contest, axis=1)
    return pop.genotypes[idx[np.arange(n), win]]


def mutate(genotypes, config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Gaussian mutation: each genotype independently gains N(0, sigma) noise
    with probability mutation_prob, else passes through bit-exactly."""
    g = np.array(genotypes, dtype=float)
    mask = rng.random(g.size) < config.mutation_prob
    noise = rng.normal(0.0, config.mutation_sigma, g.size)
    g[mask] += noise[mask]
    return g


def _evaluate(generation: int, pop1: Population, pop2: Population,
              prev1: Population, prev2: Population, config: ExperimentConfig,
              kind: ObjectiveKind, rng: np.random.Generator) -> CoevoState:
    """Score pop1 against P2's previous generation prev2, and pop2 against
    P1's previous generation prev1, into the state of `generation`.

    Test-based kinds give every individual a fresh evaluator sample; P1 draws
    all of its samples before P2 draws any. Compositional kinds score along
    the slice at the opponent's best member. Generation 0 has no fitness to
    pick a best member by, so a uniformly drawn member of the opponent's
    initial population stands in, P1's partner drawn first.
    """
    samples1 = samples2 = partner1 = partner2 = None
    if kind.test_based:
        pop1, samples1 = evaluate_test(pop1, prev2, config, kind, rng)
        pop2, samples2 = evaluate_test(pop2, prev1, config, kind, rng)
    else:
        if generation == 0:
            partner1 = float(rng.choice(prev2.genotypes))
            partner2 = float(rng.choice(prev1.genotypes))
        else:
            partner1, partner2 = prev2.best(), prev1.best()
        pop1 = replace(pop1, fitnesses=subjective_compositional(pop1.genotypes, partner1, kind))
        pop2 = replace(pop2, fitnesses=subjective_compositional(pop2.genotypes, partner2, kind))
    return CoevoState(
        pop1=pop1, pop2=pop2, generation=generation,
        best1=pop1.best(), best2=pop2.best(),
        samples1=samples1, samples2=samples2,
        partner1=partner1, partner2=partner2,
    )


def step_generation(state: CoevoState, config: ExperimentConfig, kind: ObjectiveKind,
                    rng: np.random.Generator) -> CoevoState:
    """Advance both populations one generation.

    Selection then mutation runs independently per population; the new
    populations are evaluated against the opposing population exactly as it
    stood at generation k (its evaluated, pre-selection form).
    """
    child1 = replace(state.pop1, genotypes=mutate(
        tournament_select(state.pop1, config, rng), config, rng), fitnesses=None)
    child2 = replace(state.pop2, genotypes=mutate(
        tournament_select(state.pop2, config, rng), config, rng), fitnesses=None)
    return _evaluate(state.generation + 1, child1, child2, state.pop1, state.pop2,
                     config, kind, rng)


def bootstrap_state(config: ExperimentConfig, kind: ObjectiveKind,
                    rng: np.random.Generator) -> CoevoState:
    """Create and evaluate the generation-0 state.

    Both initial populations, with the config's tasks, are evaluated against
    each other's initial genotypes.
    """
    mode = config.interaction_mode()
    pop1 = init_population(config, mode.task_p1, rng, "P1")
    pop2 = init_population(config, mode.task_p2, rng, "P2")
    return _evaluate(0, pop1, pop2, pop1, pop2, config, kind, rng)


def run_trajectory(config: ExperimentConfig, seed) -> list[CoevoState]:
    """Run one full coevolutionary trajectory, deterministically from seed.

    Returns generations+1 evaluated states (k = 0 included). `seed` is
    anything numpy's default_rng accepts (int or SeedSequence). A numeric
    overflow or invalid operation (e.g. from an enormous mutation_sigma)
    raises FloatingPointError instead of producing inf or nan values.
    """
    config.validate()
    kind = config.objective_kind()
    rng = np.random.default_rng(seed)
    with np.errstate(over="raise", invalid="raise"):
        states = [bootstrap_state(config, kind, rng)]
        for _ in range(config.generations):
            states.append(step_generation(states[-1], config, kind, rng))
    return states
