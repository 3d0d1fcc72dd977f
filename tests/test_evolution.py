"""Unit tests for the coevolutionary loop."""

from __future__ import annotations

import numpy as np
import pytest

from coevoscape import evolution
from coevoscape.evolution import run_trajectory
from coevoscape.experiment import ExperimentConfig
from coevoscape.substrate import (
    Ridge,
    Sinusoid,
    SmoothUnimodalPair,
    Task,
    best_of,
    draw_sample,
    eval_objective_shared,
    subjective_test,
)

SMOOTH = SmoothUnimodalPair()
RIDGE8 = Ridge(8.0)
SIN = Sinusoid()


def _sample(traj, r, k, i):
    """The evaluators member by member of population i at generation k of run
    r was scored against: its picks from the opponent's generation k - 1."""
    return traj.genotypes[r, max(k - 1, 0), 1 - i][traj.picks[r, k, i]]


def test_init_population_within_interval():
    config = ExperimentConfig(pop_size=24, init_interval_p1=(0.0, 1.0), generations=0)
    genotypes = run_trajectory(config, [0]).genotypes[0, 0, 0]
    assert genotypes.shape == (24,)
    assert np.all((genotypes >= 0.0) & (genotypes <= 1.0))


def test_init_population_nearly_degenerate_interval():
    eps = 1e-9
    config = ExperimentConfig(pop_size=1, sample_size=1, generations=0,
                              init_interval_p2=(0.5, 0.5 + eps))
    assert abs(run_trajectory(config, [0]).genotypes[0, 0, 1, 0] - 0.5) <= eps


def test_init_population_deterministic():
    config = ExperimentConfig(generations=0)
    a = run_trajectory(config, [99])
    b = run_trajectory(config, [99])
    assert np.array_equal(a.genotypes, b.genotypes)


def test_evaluate_test_forced_full_sample():
    # sample_size equal to the opponent size forces the sample to be the
    # whole opponent population, making the fitness hand-checkable: crisp
    # is f(x) = x on the unit interval
    config = ExperimentConfig(function="crisp", pop_size=3, sample_size=3, generations=0,
                              init_interval_p1=(0.0, 1.0), init_interval_p2=(0.0, 1.0))
    traj = run_trajectory(config, [0])
    assert traj.picks.shape == (1, 1, 2, 3, 3)
    opponents = traj.genotypes[0, 0, 1]
    for x, sample, fitness in zip(traj.genotypes[0, 0, 0], _sample(traj, 0, 0, 0),
                                  traj.fitnesses[0, 0, 0]):
        assert sorted(sample.tolist()) == sorted(opponents.tolist())
        assert fitness == np.count_nonzero(x > opponents) / 3


def _crisp_fitnesses(init_p1):
    """P1's generation-0 fitnesses against opponents that all sit on crisp's
    flat 0.5 level."""
    config = ExperimentConfig(function="crisp", pop_size=2, sample_size=2, generations=0,
                              init_interval_p1=init_p1, init_interval_p2=(-2.0, -1.0))
    return run_trajectory(config, [1]).fitnesses[0, 0, 0].tolist()


def test_evaluate_test_extremes():
    # beats every opponent
    assert _crisp_fitnesses((0.9, 0.95)) == [1.0, 1.0]
    # identical objective value everywhere scores zero under strict inequality
    assert _crisp_fitnesses((2.0, 3.0)) == [0.0, 0.0]


def test_evaluate_test_rejects_oversized_sample():
    with pytest.raises(ValueError):
        run_trajectory(ExperimentConfig(pop_size=2, sample_size=4), [0])
    with pytest.raises(ValueError):
        draw_sample(3, 2, 4, np.random.default_rng(0))


def _compositional_step(init_p1, init_p2, function):
    """Fitness and partner of a one-member P1 at generation 1, against a
    one-member P2. With one member and no mutation, selection leaves the
    genotype as it is, and P2's only member is its best."""
    config = ExperimentConfig(function=function, pop_size=1, sample_size=1,
                              mutation_prob=0.0, generations=1,
                              init_interval_p1=init_p1, init_interval_p2=init_p2)
    traj = run_trajectory(config, [0])
    assert traj.genotypes[0, 1, 0, 0] == traj.genotypes[0, 0, 0, 0]
    assert traj.partners[0, 1, 0] == traj.best[0, 0, 1] == traj.genotypes[0, 0, 1, 0]
    return traj.fitnesses[0, 1, 0, 0], traj.partners[0, 1, 0]


def test_evaluate_compositional_examples():
    # intervals just inside the ridge square, around the hand-checked points
    near = lambda v: (v - 1e-9, v)  # noqa: E731
    assert _compositional_step(near(8.0), near(8.0), "ridge") == pytest.approx((16.0, 8.0))
    assert _compositional_step(near(4.0), near(2.0), "ridge") == pytest.approx((8.0, 2.0))


def test_evaluate_compositional_sinusoid_zero():
    fitness, _ = _compositional_step((-1.3, -1.3 + 1e-12), (1.3, 1.3 + 1e-12), "sinusoid")
    assert fitness == pytest.approx(0.0, abs=1e-11)


def test_evaluate_compositional_requires_evaluated_opponent():
    # the opponent's best member, which compositional scoring uses, needs fitnesses
    with pytest.raises(ValueError):
        best_of([2.0], [], Task.MAXIMIZE)


def test_tournament_uniform_when_fitness_flat():
    # every member of both populations sits on crisp's flat level: fitness 0
    config = ExperimentConfig(function="crisp", pop_size=6, sample_size=6, mutation_prob=0.0,
                              generations=1, init_interval_p1=(2.0, 3.0),
                              init_interval_p2=(2.0, 3.0))
    traj = run_trajectory(config, [2])
    assert np.all(traj.fitnesses[0, 0] == 0.0)
    out = traj.genotypes[0, 1, 0]
    assert out.shape == (6,)
    assert set(out.tolist()) <= set(traj.genotypes[0, 0, 0].tolist())


def test_tournament_win_rate_size_two():
    """With two individuals the better one fills 3/4 of the slots: it wins
    unless never drawn, and P(drawn at least once in two draws) = 3/4."""
    config = ExperimentConfig(function="ridge", pop_size=2, sample_size=1, tournament_size=2,
                              mutation_prob=0.0, generations=1)
    traj = run_trajectory(config, range(4000))
    fitnesses = traj.fitnesses[:, 0, 0]
    distinct = fitnesses[:, 0] != fitnesses[:, 1]
    better = traj.best[distinct, 0, 0]
    slots = traj.genotypes[distinct, 1, 0]
    assert distinct.sum() > 3900
    assert abs(np.mean(slots == better[:, None]) - 0.75) < 0.02


def _replayed_contests(config, seed):
    """P1's generation-1 tournaments of a run, drawn from the run's generator
    in the engine's documented order."""
    rng = np.random.default_rng(seed)
    for population in ("P1", "P2"):
        rng.uniform(*config.init_interval(population), config.pop_size)
    contests = rng.integers(0, config.pop_size, (config.generations, 2, config.pop_size,
                                                 config.tournament_size))
    return contests[0, 0]


def test_tournament_minimize_mirrors_maximize():
    children = {}
    for task in ("minimize", "maximize"):
        config = ExperimentConfig(function="ridge", pop_size=6, sample_size=1,
                                  tournament_size=3, mutation_prob=0.0, generations=1,
                                  task_p1=task)
        traj = run_trajectory(config, [3])
        contests = _replayed_contests(config, 3)
        genotypes = traj.genotypes[0, 0, 0][contests]
        fitnesses = traj.fitnesses[0, 0, 0][contests]
        children[task] = traj.genotypes[0, 1, 0]
    # both runs share generation 0; minimizing f picks what maximizing -f picks
    assert np.array_equal(children["minimize"], best_of(genotypes, -fitnesses, Task.MAXIMIZE))
    assert np.array_equal(children["maximize"], best_of(genotypes, fitnesses, Task.MAXIMIZE))


def _replayed_draws(config, seed):
    """A run's randomness drawn by hand from its generator, in the documented
    order of RNG stream 0.3.0: initial genotypes (2, n), tournaments
    (G, 2, n, t), mutation mask and noise (G, 2, n), then the sample indices
    (G+1, 2, n, m) or the generation-0 partner indices (2,)."""
    rng = np.random.default_rng(seed)
    n, m, t, gens = (config.pop_size, config.sample_size, config.tournament_size,
                     config.generations)
    init = np.array([rng.uniform(*config.init_interval(p), n) for p in ("P1", "P2")])
    contests = rng.integers(0, n, (gens, 2, n, t))
    mutated = rng.random((gens, 2, n)) < config.mutation_prob
    noise = rng.normal(0.0, config.mutation_sigma, (gens, 2, n))
    if not config.objective_kind().test_based:
        return init, contests, mutated, noise, rng.integers(0, n, 2)
    rows = (gens + 1) * 2 * n
    if config.sample_with_replacement:
        picks = rng.integers(0, n, (rows, m))
    else:
        picks = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)[:, :m]
    return init, contests, mutated, noise, picks.reshape(gens + 1, 2, n, m)


def _assert_replays(config, seed):
    """Every generation of the run seeded `seed` follows from its hand-drawn
    int64 draws: its evaluator samples or generation-0 partners, and its
    tournament winners with their mutations."""
    traj = run_trajectory(config, [seed])
    init, contests, mutated, noise, picks = _replayed_draws(config, seed)
    genotypes, fitnesses = traj.genotypes[0], traj.fitnesses[0]
    assert np.array_equal(genotypes[0], init)
    for k in range(config.generations + 1):
        for i, task in enumerate(traj.tasks):
            # generation k is scored against the opponent's generation k - 1
            opponent = genotypes[max(k - 1, 0), 1 - i]
            if traj.picks is not None:
                assert np.array_equal(_sample(traj, 0, k, i), opponent[picks[k, i]])
            elif k == 0:
                assert traj.partners[0, 0, i] == opponent[picks[i]]
            if k > 0:
                entrants = contests[k - 1, i]
                winners = best_of(genotypes[k - 1, i][entrants], fitnesses[k - 1, i][entrants],
                                  task)
                assert np.array_equal(genotypes[k, i], np.where(
                    mutated[k - 1, i], winners + noise[k - 1, i], winners))


@pytest.mark.parametrize("function, with_replacement", [
    ("smooth", False), ("crisp", True), ("ridge", False)])
def test_run_replays_by_hand_in_documented_order(function, with_replacement):
    config = ExperimentConfig(function=function, pop_size=6, sample_size=4,
                              tournament_size=3, generations=2,
                              sample_with_replacement=with_replacement)
    _assert_replays(config, np.random.SeedSequence(8, spawn_key=(5,)))


@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("function", ["smooth", "sinusoid"])
@pytest.mark.parametrize("pop_size, index_type", [
    (1, np.uint8), (24, np.uint8), (300, np.uint16)])
def test_narrow_indices_replay_int64_draws(pop_size, index_type, function, with_replacement):
    """The engine holds its index draws in the smallest type that fits
    pop_size - 1; its runs still equal the int64 draws bit for bit."""
    config = ExperimentConfig(function=function, pop_size=pop_size,
                              sample_size=min(pop_size, 5), tournament_size=3,
                              generations=3, sample_with_replacement=with_replacement)
    layout = evolution._layout(config, 1)
    assert layout["contests"][1] is index_type
    if config.objective_kind().test_based:
        assert layout["picks"][1] is index_type
    else:
        assert "picks" not in layout
    _assert_replays(config, np.random.SeedSequence(9, spawn_key=(pop_size,)))


def test_selection_raises_mean_fitness():
    """Post-selection mean fitness should not fall below the pre-selection
    mean (one-sided check at 3 standard errors over 1000 runs)."""
    config = ExperimentConfig(function="ridge", task_p1="maximize", pop_size=24,
                              mutation_prob=0.0, generations=1)
    traj = run_trajectory(config, range(1000))
    parents, children = traj.genotypes[:, 0, 0], traj.genotypes[:, 1, 0]
    fitnesses = traj.fitnesses[:, 0, 0]
    chosen = np.argmax(children[:, :, None] == parents[:, None, :], axis=-1)
    diffs = (np.take_along_axis(fitnesses, chosen, axis=-1).mean(axis=-1)
             - fitnesses.mean(axis=-1))
    stderr = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert diffs.mean() >= -3.0 * stderr
    assert diffs.mean() > 0.0


def _one_member(mutation_prob, mutation_sigma=0.1, runs=1, generations=1):
    """Genotypes of a one-member P1: selection keeps it, so generation k+1
    differs from generation k by mutation only. Shape (runs, generations+1)."""
    config = ExperimentConfig(pop_size=1, sample_size=1, mutation_prob=mutation_prob,
                              mutation_sigma=mutation_sigma, generations=generations)
    return run_trajectory(config, range(runs)).genotypes[:, :, 0, 0]


def test_mutate_prob_zero_is_identity():
    g = _one_member(0.0, runs=50)
    assert np.array_equal(g[:, 1], g[:, 0])


def test_mutate_tiny_sigma_close_to_identity():
    g = _one_member(1.0, mutation_sigma=1e-12, runs=50)
    assert np.allclose(g[:, 1], g[:, 0], atol=1e-10)


def test_mutate_untouched_genes_pass_through_bit_exact():
    g = _one_member(0.5, runs=1000)
    changed = g[:, 1] != g[:, 0]
    assert 350 < changed.sum() < 650
    assert np.array_equal(g[~changed, 1], g[~changed, 0])


def test_mutate_gaussian_moments():
    steps = np.diff(_one_member(1.0, runs=5, generations=2000), axis=1).ravel()
    n = steps.size
    assert abs(steps.mean()) <= 3.0 * 0.1 / np.sqrt(n)
    assert abs(steps.std(ddof=1) - 0.1) < 0.005


def test_step_generation_increments_and_keeps_size():
    traj = run_trajectory(ExperimentConfig(generations=1), [9])
    assert traj.genotypes.shape == traj.fitnesses.shape == (1, 2, 2, 24)
    assert traj.best.shape == (1, 2, 2)
    assert traj.picks.shape == (1, 2, 2, 24, 12)
    assert traj.picks.dtype == np.uint8
    assert traj.partners is None
    # no float copy of the evaluator samples: they are rebuilt from the picks
    floats = {name for name, value in vars(traj).items()
              if isinstance(value, np.ndarray) and value.dtype.kind == "f"}
    assert floats == {"genotypes", "fitnesses", "best"}


def test_fitness_recomputable_from_logged_samples():
    """Causality: every stored test-based fitness equals a recomputation
    from the genotype and its logged evaluator sample."""
    traj = run_trajectory(ExperimentConfig(generations=5), [123])
    for r, k, i, j in np.ndindex(traj.fitnesses.shape):
        x = float(traj.genotypes[r, k, i, j])
        assert traj.fitnesses[r, k, i, j] == subjective_test(x, _sample(traj, r, k, i)[j],
                                                             SMOOTH)


def test_compositional_fitness_is_slice_at_opponent_best():
    traj = run_trajectory(ExperimentConfig(function="ridge", generations=6), [31])
    for k in range(1, 7):
        for i, task in enumerate(traj.tasks):
            assert traj.best[0, k - 1, i] == best_of(traj.genotypes[0, k - 1, i],
                                                     traj.fitnesses[0, k - 1, i], task)
        assert traj.partners[0, k, 0] == traj.best[0, k - 1, 1]
        assert traj.partners[0, k, 1] == traj.best[0, k - 1, 0]
        for i in range(2):
            expect = eval_objective_shared(RIDGE8, traj.genotypes[0, k, i],
                                           traj.partners[0, k, i])
            assert np.array_equal(traj.fitnesses[0, k, i], expect)


def test_bootstrap_compositional_partner_comes_from_opponent():
    traj = run_trajectory(ExperimentConfig(function="sinusoid", generations=0), [12])
    assert traj.partners[0, 0, 0] in traj.genotypes[0, 0, 1]
    assert traj.partners[0, 0, 1] in traj.genotypes[0, 0, 0]
    expect = eval_objective_shared(SIN, traj.genotypes[0, 0, 0], traj.partners[0, 0, 0])
    assert np.array_equal(traj.fitnesses[0, 0, 0], expect)


def test_run_trajectory_lengths():
    assert run_trajectory(ExperimentConfig(generations=0), [1]).genotypes.shape[1] == 1
    assert run_trajectory(ExperimentConfig(generations=10), [1]).genotypes.shape[1] == 11


def test_run_trajectory_deterministic():
    cfg = ExperimentConfig(generations=4)
    a = run_trajectory(cfg, [77])
    b = run_trajectory(cfg, [77])
    assert np.array_equal(a.genotypes, b.genotypes)
    assert np.array_equal(a.fitnesses, b.fitnesses)
    assert np.array_equal(a.picks, b.picks)
    assert np.array_equal(a.best, b.best)


@pytest.mark.parametrize("function", ["crisp", "smooth", "ridge", "sinusoid"])
@pytest.mark.parametrize("with_replacement", [False, True])
def test_block_equals_one_run_blocks(function, with_replacement):
    """A run's arrays do not depend on the block it is advanced in."""
    cfg = ExperimentConfig(function=function, generations=4,
                           sample_with_replacement=with_replacement)
    seeds = [np.random.SeedSequence(5, spawn_key=(r,)) for r in range(7)]
    block = run_trajectory(cfg, seeds)
    for r, seed in enumerate(seeds):
        one = run_trajectory(cfg, [seed])
        for name in ("genotypes", "fitnesses", "best", "picks", "partners"):
            whole, alone = getattr(block, name), getattr(one, name)
            assert (whole is None) == (alone is None)
            if whole is not None:
                assert np.array_equal(whole[r], alone[0])


def test_run_trajectory_rejects_bad_config_before_running():
    """The config is checked when it is made, so no bad one reaches a run."""
    with pytest.raises(ValueError):
        run_trajectory(ExperimentConfig(sample_size=30), [1])


@pytest.mark.parametrize("function", ["smooth", "sinusoid"])
def test_run_trajectory_raises_on_overflow(function):
    cfg = ExperimentConfig(function=function, mutation_sigma=1e300, generations=3)
    with pytest.raises(FloatingPointError, match="overflow"):
        run_trajectory(cfg, [1])


def test_genotypes_are_never_clipped():
    # a large mutation step must be able to carry genotypes far outside the
    # initialization interval
    traj = run_trajectory(ExperimentConfig(mutation_sigma=5.0, generations=5), [13])
    assert np.any(np.abs(traj.genotypes) > 3.0)
    assert np.all(np.isfinite(traj.genotypes))
