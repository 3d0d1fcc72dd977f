"""Unit tests for the coevolutionary loop."""

from __future__ import annotations

import numpy as np
import pytest

from coevoscape.evolution import (
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
from coevoscape.experiment import ExperimentConfig
from coevoscape.substrate import (
    CrispLinear,
    Ridge,
    Sinusoid,
    SmoothUnimodalPair,
    Task,
    eval_objective_shared,
    subjective_test,
)

CRISP = CrispLinear()
SMOOTH = SmoothUnimodalPair()
RIDGE8 = Ridge(8.0)
SIN = Sinusoid()


def _pop(genotypes, task=Task.MAXIMIZE, fitnesses=None, label="P1"):
    g = np.asarray(genotypes, dtype=float)
    f = None if fitnesses is None else np.asarray(fitnesses, dtype=float)
    return Population(genotypes=g, task=task, label=label, fitnesses=f)


def test_init_population_within_interval():
    config = ExperimentConfig(pop_size=24, init_interval_p1=(0.0, 1.0))
    pop = init_population(config, Task.MAXIMIZE, np.random.default_rng(0))
    assert len(pop) == 24
    assert np.all((pop.genotypes >= 0.0) & (pop.genotypes <= 1.0))
    assert not pop.evaluated


def test_init_population_nearly_degenerate_interval():
    eps = 1e-9
    config = ExperimentConfig(pop_size=1, init_interval_p2=(0.5, 0.5 + eps))
    pop = init_population(config, Task.MAXIMIZE, np.random.default_rng(0), "P2")
    assert abs(pop.genotypes[0] - 0.5) <= eps


def test_init_population_deterministic():
    config = ExperimentConfig()
    a = init_population(config, Task.MAXIMIZE, np.random.default_rng(99))
    b = init_population(config, Task.MAXIMIZE, np.random.default_rng(99))
    assert np.array_equal(a.genotypes, b.genotypes)


def test_evaluate_test_forced_full_sample():
    # sample_size equal to the opponent size forces the sample to be the
    # whole opponent population, making the fitness hand-checkable
    config = ExperimentConfig(pop_size=1, sample_size=3)
    pop = _pop([0.8])
    opponent = _pop([0.1, 0.5, 0.9], label="P2")
    evaluated, samples = evaluate_test(pop, opponent, config, CRISP,
                                       np.random.default_rng(0))
    assert evaluated.fitnesses[0] == pytest.approx(2.0 / 3.0)
    assert samples.shape == (1, 3)
    assert sorted(samples[0].tolist()) == [0.1, 0.5, 0.9]


def test_evaluate_test_extremes():
    config = ExperimentConfig(pop_size=2, sample_size=3)
    pop = _pop([0.9, 0.0])
    opponent = _pop([0.0, 0.0, 0.0], label="P2")
    evaluated, _ = evaluate_test(pop, opponent, config, CRISP,
                                 np.random.default_rng(1))
    # beats every opponent at the global minimum
    assert evaluated.fitnesses[0] == 1.0
    # identical objective value everywhere scores zero under strict inequality
    assert evaluated.fitnesses[1] == 0.0


def test_evaluate_test_rejects_oversized_sample():
    config = ExperimentConfig(pop_size=2, sample_size=4)
    pop = _pop([0.1, 0.2])
    opponent = _pop([0.3, 0.4, 0.5], label="P2")
    with pytest.raises(ValueError):
        evaluate_test(pop, opponent, config, CRISP, np.random.default_rng(0))


def _compositional_step(genotype, opponent, kind):
    """Fitness and partner of a one-member P1 holding `genotype` after one
    generation step against the evaluated P2 `opponent`. With one member and
    no mutation, selection leaves the genotype as it is."""
    own = _pop([genotype], fitnesses=[0.0])
    state = CoevoState(pop1=own, pop2=opponent, generation=1,
                       best1=genotype, best2=opponent.best())
    nxt = step_generation(state, ExperimentConfig(mutation_prob=0.0), kind,
                          np.random.default_rng(0))
    assert nxt.pop1.genotypes[0] == genotype
    return nxt.pop1.fitnesses[0], nxt.partner1


def test_evaluate_compositional_examples():
    opponent = _pop([8.0, 1.0], Task.MAXIMIZE, fitnesses=[16.0, 2.0], label="P2")
    assert _compositional_step(8.0, opponent, RIDGE8) == (16.0, 8.0)

    opponent = _pop([2.0, 7.0], Task.MINIMIZE, fitnesses=[1.0, 9.0], label="P2")
    assert _compositional_step(4.0, opponent, RIDGE8) == (8.0, 2.0)


def test_evaluate_compositional_sinusoid_zero():
    opponent = _pop([1.3], fitnesses=[0.5], label="P2")
    fitness, _ = _compositional_step(-1.3, opponent, SIN)
    assert fitness == 0.0


def test_evaluate_compositional_requires_evaluated_opponent():
    # the opponent's best member, which compositional scoring uses, needs fitnesses
    with pytest.raises(ValueError):
        _pop([2.0], label="P2").best()


def test_tournament_uniform_when_fitness_flat():
    config = ExperimentConfig(pop_size=6)
    pop = _pop(np.arange(6.0), fitnesses=np.ones(6))
    out = tournament_select(pop, config, np.random.default_rng(2))
    assert out.shape == (6,)
    assert set(out.tolist()) <= set(pop.genotypes.tolist())


def test_tournament_win_rate_size_two():
    """With two individuals the better one fills 3/4 of the slots: it wins
    unless never drawn, and P(drawn at least once in two draws) = 3/4."""
    config = ExperimentConfig(pop_size=2, tournament_size=2)
    rng = np.random.default_rng(17)
    wins = 0
    slots = 0
    pop_max = _pop([10.0, 20.0], Task.MAXIMIZE, fitnesses=[0.0, 1.0])
    for _ in range(5000):
        out = tournament_select(pop_max, config, rng)
        wins += int(np.sum(out == 20.0))
        slots += 2
    assert abs(wins / slots - 0.75) < 0.02


def test_tournament_minimize_mirrors_maximize():
    config = ExperimentConfig(pop_size=2, tournament_size=2)
    pop_min = _pop([10.0, 20.0], Task.MINIMIZE, fitnesses=[0.0, 1.0])
    pop_max = _pop([10.0, 20.0], Task.MAXIMIZE, fitnesses=[1.0, 0.0])
    a = tournament_select(pop_min, config, np.random.default_rng(3))
    b = tournament_select(pop_max, config, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_selection_raises_mean_fitness():
    """Post-selection mean fitness should not fall below the pre-selection
    mean (one-sided check at 3 standard errors over 1000 repetitions)."""
    config = ExperimentConfig(pop_size=24)
    rng = np.random.default_rng(29)
    fitnesses = rng.uniform(size=24)
    pop = _pop(np.arange(24.0), fitnesses=fitnesses)
    diffs = np.empty(1000)
    for i in range(1000):
        selected = tournament_select(pop, config, rng)
        diffs[i] = fitnesses[selected.astype(int)].mean() - fitnesses.mean()
    stderr = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert diffs.mean() >= -3.0 * stderr
    assert diffs.mean() > 0.0


def test_mutate_prob_zero_is_identity():
    config = ExperimentConfig(mutation_prob=0.0)
    g = np.random.default_rng(4).normal(size=50)
    out = mutate(g, config, np.random.default_rng(5))
    assert np.array_equal(out, g)


def test_mutate_tiny_sigma_close_to_identity():
    config = ExperimentConfig(mutation_prob=1.0, mutation_sigma=1e-12)
    g = np.random.default_rng(4).normal(size=50)
    out = mutate(g, config, np.random.default_rng(5))
    assert np.allclose(out, g, atol=1e-10)


def test_mutate_untouched_genes_pass_through_bit_exact():
    config = ExperimentConfig(mutation_prob=0.5)
    g = np.random.default_rng(6).normal(size=1000)
    out = mutate(g, config, np.random.default_rng(7))
    changed = out != g
    assert 350 < changed.sum() < 650
    assert np.array_equal(out[~changed], g[~changed])


def test_mutate_gaussian_moments():
    config = ExperimentConfig(mutation_prob=1.0, mutation_sigma=0.1)
    n = 100_000
    g = np.zeros(n)
    out = mutate(g, config, np.random.default_rng(8))
    assert abs(out.mean()) <= 3.0 * 0.1 / np.sqrt(n)
    assert abs(out.std(ddof=1) - 0.1) < 0.005


def _competitive_config(**kw):
    return ExperimentConfig(**kw)


def test_step_generation_increments_and_keeps_size():
    cfg = _competitive_config()
    rng = np.random.default_rng(9)
    state = bootstrap_state(cfg, SMOOTH, rng)
    nxt = step_generation(state, cfg, SMOOTH, rng)
    assert nxt.generation == state.generation + 1
    assert len(nxt.pop1) == len(state.pop1) == 24
    assert len(nxt.pop2) == len(state.pop2) == 24
    assert nxt.samples1.shape == (24, 12)


def test_fitness_recomputable_from_logged_samples():
    """Causality: every stored test-based fitness equals a recomputation
    from the genotype and its logged evaluator sample."""
    cfg = _competitive_config(generations=5)
    states = run_trajectory(cfg, 123)
    for state in states:
        for pop, samples in ((state.pop1, state.samples1), (state.pop2, state.samples2)):
            for i, x in enumerate(pop.genotypes):
                assert pop.fitnesses[i] == subjective_test(float(x), samples[i], SMOOTH)


def test_compositional_fitness_is_slice_at_opponent_best():
    cfg = _competitive_config(function="ridge", generations=6)
    states = run_trajectory(cfg, 31)
    for prev, cur in zip(states, states[1:]):
        assert cur.partner1 == prev.pop2.best()
        assert cur.partner2 == prev.pop1.best()
        for pop, partner in ((cur.pop1, cur.partner1), (cur.pop2, cur.partner2)):
            expect = eval_objective_shared(RIDGE8, pop.genotypes, partner)
            assert np.array_equal(pop.fitnesses, expect)


def test_bootstrap_compositional_partner_comes_from_opponent():
    cfg = _competitive_config(function="sinusoid")
    rng = np.random.default_rng(12)
    state = bootstrap_state(cfg, SIN, rng)
    assert state.partner1 in state.pop2.genotypes
    assert state.partner2 in state.pop1.genotypes
    expect = eval_objective_shared(SIN, state.pop1.genotypes, state.partner1)
    assert np.array_equal(state.pop1.fitnesses, expect)


def test_run_trajectory_lengths():
    assert len(run_trajectory(_competitive_config(generations=0), 1)) == 1
    assert len(run_trajectory(_competitive_config(generations=10), 1)) == 11


def test_run_trajectory_deterministic():
    cfg = _competitive_config(generations=4)
    a = run_trajectory(cfg, 77)
    b = run_trajectory(cfg, 77)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.pop1.genotypes, sb.pop1.genotypes)
        assert np.array_equal(sa.pop2.fitnesses, sb.pop2.fitnesses)
        assert np.array_equal(sa.samples1, sb.samples1)
        assert sa.best1 == sb.best1 and sa.best2 == sb.best2


def test_run_trajectory_rejects_bad_config_before_running():
    cfg = _competitive_config(sample_size=30)
    with pytest.raises(ValueError):
        run_trajectory(cfg, 1)


@pytest.mark.parametrize("function", ["smooth", "sinusoid"])
def test_run_trajectory_raises_on_overflow(function):
    cfg = _competitive_config(function=function, mutation_sigma=1e300, generations=3)
    with pytest.raises(FloatingPointError, match="overflow"):
        run_trajectory(cfg, 1)


def test_genotypes_are_never_clipped():
    # a large mutation step must be able to carry genotypes far outside the
    # initialization interval
    cfg = _competitive_config(mutation_sigma=5.0, generations=5)
    states = run_trajectory(cfg, 13)
    all_g = np.concatenate([s.pop1.genotypes for s in states]
                           + [s.pop2.genotypes for s in states])
    assert np.any(np.abs(all_g) > 3.0)
    assert np.all(np.isfinite(all_g))
