"""Unit tests for the objective functions and subjective-fitness rules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coevoscape.landscape import subjective_profile_test
from coevoscape.substrate import (
    CrispLinear,
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

CRISP = CrispLinear()
SMOOTH = SmoothUnimodalPair()
RIDGE8 = Ridge(8.0)
SIN = Sinusoid()


def test_crisp_values():
    assert eval_objective_test(CRISP, 1.0) == 1.0
    assert eval_objective_test(CRISP, 2.0) == 0.5
    assert eval_objective_test(CRISP, -0.3) == 0.5
    assert eval_objective_test(CRISP, 0.25) == 0.25
    assert eval_objective_test(CRISP, 0.0) == 0.0


def test_smooth_values():
    assert eval_objective_test(SMOOTH, -1.0) == 0.0
    assert eval_objective_test(SMOOTH, 0.0) == 0.5
    assert eval_objective_test(SMOOTH, 1.0) == 1.0


def test_test_eval_accepts_arrays():
    x = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
    out = eval_objective_test(CRISP, x)
    assert out.tolist() == [0.5, 0.0, 0.5, 1.0, 0.5]
    out = eval_objective_test(SMOOTH, x)
    for xi, oi in zip(x, out):
        assert oi == eval_objective_test(SMOOTH, float(xi))


def test_ridge_values():
    assert eval_objective_shared(RIDGE8, 8.0, 8.0) == 16.0
    assert eval_objective_shared(RIDGE8, 0.0, 8.0) == 0.0
    assert eval_objective_shared(RIDGE8, 8.0, 0.0) == 0.0
    assert eval_objective_shared(RIDGE8, -1.0, 4.0) == 8.0
    assert eval_objective_shared(RIDGE8, 4.0, 2.0) == 8.0  # 8 + 2*2 - 4


def test_ridge_corner_continuity():
    # the inside formula and the outside constant agree at the (0, 0) corner
    for n in (1.0, 8.0, 12.5):
        assert eval_objective_shared(Ridge(n), 0.0, 0.0) == n


def test_sinusoid_values():
    assert eval_objective_shared(SIN, 0.0, 0.0) == 0.0
    assert abs(eval_objective_shared(SIN, 0.4925, 0.4925) - 0.5611) < 1e-3
    assert abs(eval_objective_shared(SIN, -0.4925, -0.4925) + 0.5611) < 1e-3


def test_eval_rejects_wrong_family():
    with pytest.raises(TypeError):
        eval_objective_test(RIDGE8, 1.0)
    with pytest.raises(TypeError):
        eval_objective_shared(CRISP, 1.0, 1.0)


def test_ridge_requires_positive_n():
    with pytest.raises(ValueError):
        Ridge(0.0)
    with pytest.raises(ValueError):
        Ridge(-2.0)


def test_kind_from_name():
    assert kind_from_name("crisp") == CRISP
    assert kind_from_name("smooth") == SMOOTH
    assert kind_from_name("ridge", ridge_n=4.0) == Ridge(4.0)
    assert kind_from_name("sinusoid") == SIN
    with pytest.raises(ValueError):
        kind_from_name("plateau")


def test_score_strict_inequality():
    # one evaluator: subjective fitness is 1 for a strict win, else 0
    assert subjective_test(0.9, [0.1], CRISP) == 1.0
    assert subjective_test(0.5, [0.5], CRISP) == 0.0
    # both outside [0, 1] map to 0.5, a tie
    assert subjective_test(2.0, [3.0], CRISP) == 0.0


def test_subjective_test_enumeration():
    sample = [0.1, 0.5, 0.9]
    assert subjective_test(0.8, sample, CRISP) == pytest.approx(2.0 / 3.0)
    assert subjective_test(0.0, sample, CRISP) == 0.0
    assert subjective_test(1.0, sample, CRISP) == 1.0


def test_subjective_test_rejects_empty_sample():
    with pytest.raises(ValueError):
        subjective_test(0.5, [], CRISP)
    with pytest.raises(ValueError):
        subjective_test(np.zeros(3), np.empty((3, 0)), CRISP)


# crisp genotypes with many exact objective ties: everything outside [0, 1]
# and the point 0.5 all score 0.5
TIED_GENOTYPES = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
                           st.floats(-3.0, 3.0))


@given(st.tuples(st.integers(1, 30), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(arrays(float, shape[0], elements=TIED_GENOTYPES),
                            arrays(float, shape, elements=TIED_GENOTYPES))))
def test_subjective_test_population_equals_per_row_calls(pop_and_samples):
    """Scoring a population (pop,) against its rows (pop, sample) in one call
    gives exactly the per-individual scalar results."""
    genotypes, samples = pop_and_samples
    fitnesses = subjective_test(genotypes, samples, CRISP)
    assert fitnesses.shape == genotypes.shape
    assert fitnesses.tolist() == [subjective_test(float(x), row, CRISP)
                                  for x, row in zip(genotypes, samples)]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([CRISP, SMOOTH]),
       sizes=st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       runs=st.integers(1, 3), with_replacement=st.booleans(),
       pool=st.lists(TIED_GENOTYPES, min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(kind=CRISP, sizes=(1, 1), runs=1, with_replacement=False, pool=[0.5], seed=0)
@example(kind=CRISP, sizes=(256, 256), runs=1, with_replacement=False,
         pool=[-1.0, 0.5, 2.0], seed=1)
@example(kind=CRISP, sizes=(257, 3), runs=2, with_replacement=True,
         pool=[0.0, 0.25, 1.0], seed=2)
def test_scoring_from_picks_equals_scoring_the_gathered_sample(
        kind, sizes, runs, with_replacement, pool, seed):
    """A stack (runs, 2, pop_size) of populations scored from its opponents
    and evaluator picks gets bit for bit the fitnesses `subjective_test`
    gives against the gathered samples `opponents[..., picks]`: crisp ties,
    duplicate opponents, either sampling, uint8 and uint16 picks, and the
    reversed view of the generation the engine passes as opponents."""
    pop_size, sample_size = sizes
    rng = np.random.default_rng(seed)
    # a few distinct values only: duplicate opponents, and on crisp many ties
    genotypes = rng.choice(pool, size=(runs, 2, pop_size))
    opponents = rng.choice(pool, size=(runs, 2, pop_size))[:, ::-1]
    picks = draw_sample(pop_size, runs * 2 * pop_size, sample_size, rng, with_replacement)
    picks = picks.astype(np.min_scalar_type(pop_size - 1)).reshape(
        runs, 2, pop_size, sample_size)
    scored = subjective_test(genotypes, opponents, kind, picks)
    assert scored.shape == genotypes.shape
    samples = np.take_along_axis(opponents[..., None, :], picks, axis=-1)
    assert np.array_equal(scored, subjective_test(genotypes, samples, kind))
    wins = eval_objective_test(kind, genotypes)[..., None] > eval_objective_test(kind, samples)
    assert np.array_equal(scored, wins.mean(axis=-1))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 8), st.integers(1, 300)).flatmap(
    lambda shape: st.tuples(arrays(float, shape[0], elements=TIED_GENOTYPES),
                            arrays(float, shape, elements=TIED_GENOTYPES))))
def test_subjective_test_counted_wins_equal_their_mean(pop_and_samples):
    """Wins counted as a sum of zeros and ones, over samples of 1 to 300 crisp
    genotypes with many ties, give bit for bit the mean of the strict-win
    matrix: a float for a scalar, one value per row for a 1-D population."""
    genotypes, samples = pop_and_samples
    wins = eval_objective_test(CRISP, genotypes)[:, None] > eval_objective_test(CRISP, samples)
    fitnesses = subjective_test(genotypes, samples, CRISP)
    assert type(fitnesses) is np.ndarray and fitnesses.shape == genotypes.shape
    assert np.array_equal(fitnesses, wins.mean(axis=-1))
    scalar = subjective_test(float(genotypes[0]), samples[0], CRISP)
    assert type(scalar) is float and scalar == wins[0].mean()


@pytest.mark.parametrize("pick", [-1, 3])
def test_scoring_from_picks_rejects_picks_outside_the_population(pick):
    # a pick of 3 would read the next population's first member as a flat index
    picks = np.array([[[0, 1], [2, pick]], [[0, 0], [1, 1]]])
    with pytest.raises(IndexError):
        subjective_test(np.zeros((2, 2)), np.zeros((2, 3)), CRISP, picks)


def test_scoring_from_picks_rejects_picks_for_other_populations():
    with pytest.raises(ValueError, match="do not match"):
        subjective_test(np.zeros((4, 2)), np.zeros((2, 3)), CRISP,
                        np.zeros((4, 2, 2), dtype=np.uint8))


@given(arrays(float, st.integers(0, 30), elements=TIED_GENOTYPES),
       arrays(float, st.integers(1, 40), elements=TIED_GENOTYPES))
def test_subjective_test_sorted_count_equals_broadcast_mean(x, sample):
    """Against a 1-D sample, the profile's sorted count gives bit for bit the
    mean of the strict-win matrix, ties included, as do points and scalars."""
    fx = eval_objective_test(CRISP, x)
    reference = (fx[:, None] > eval_objective_test(CRISP, sample)).mean(axis=-1)
    assert np.array_equal(subjective_profile_test(x, sample, CRISP, np.arange(sample.size)[None]),
                          reference)
    assert np.array_equal(subjective_test(x, sample, CRISP), reference)
    for point, expected in zip(x, reference):
        assert subjective_test(float(point), sample, CRISP) == expected


def test_subjective_test_discretization():
    """Values land exactly on the k/mu lattice (mu = 12)."""
    rng = np.random.default_rng(42)
    allowed = {k / 12.0 for k in range(13)}
    for kind in (CRISP, SMOOTH):
        for _ in range(2000):
            x = float(rng.uniform(-3, 3))
            sample = rng.uniform(-3, 3, size=12)
            assert subjective_test(x, sample, kind) in allowed


def test_subjective_test_monotone_in_objective():
    rng = np.random.default_rng(7)
    for kind in (CRISP, SMOOTH):
        sample = rng.uniform(-3, 3, size=12)
        for _ in range(500):
            x1, x2 = rng.uniform(-3, 3, size=2)
            f1, f2 = eval_objective_test(kind, np.array([x1, x2]))
            if f1 < f2:
                x1, x2 = x2, x1
            assert subjective_test(x1, sample, kind) >= subjective_test(x2, sample, kind)


def test_subjective_test_converges_to_objective():
    """With a huge uniform evaluator sample on [0, 1], the crisp subjective
    fitness approaches the objective identity line."""
    rng = np.random.default_rng(3)
    sample = rng.uniform(0.0, 1.0, size=10_000)
    grid = np.linspace(0.0, 1.0, 101)
    errs = [abs(subjective_test(float(x), sample, CRISP) - eval_objective_test(CRISP, float(x)))
            for x in grid]
    assert max(errs) <= 0.03


def test_subjective_compositional_is_exact_slice():
    rng = np.random.default_rng(11)
    for kind in (RIDGE8, SIN):
        for _ in range(200):
            x, b = rng.uniform(-5, 13, size=2)
            assert subjective_compositional(x, b, kind) == eval_objective_shared(kind, x, b)


def test_subjective_compositional_examples():
    assert subjective_compositional(8.0, 8.0, RIDGE8) == 16.0
    assert subjective_compositional(4.0, 2.0, RIDGE8) == 8.0
    assert abs(subjective_compositional(0.4925, 0.4925, SIN) - 0.5611) < 1e-3
    assert subjective_compositional(-1.7, 1.7, SIN) == 0.0


def test_best_of_directions_and_ties():
    genotypes = [1.0, 2.0, 3.0]
    fitnesses = [0.1, 0.9, 0.5]
    assert best_of(genotypes, fitnesses, Task.MAXIMIZE) == 2.0
    assert best_of(genotypes, fitnesses, Task.MINIMIZE) == 1.0
    # tie broken by lowest index
    assert best_of([1.0, 2.0], [0.7, 0.7], Task.MAXIMIZE) == 1.0
    assert best_of([1.0, 2.0], [0.7, 0.7], Task.MINIMIZE) == 1.0
    # a stack (runs, 2, n), as a block of runs holds its populations, with
    # ties under both tasks: each row's best is the 1-D call's
    genotypes = np.arange(12.0).reshape(2, 2, 3)
    fitnesses = np.array([[[0.1, 0.9, 0.5], [0.7, 0.7, 0.2]],
                          [[0.3, 0.3, 0.3], [0.0, 0.8, 0.0]]])
    assert best_of(genotypes, fitnesses, Task.MAXIMIZE).tolist() == [[1.0, 3.0], [6.0, 10.0]]
    assert best_of(genotypes, fitnesses, Task.MINIMIZE).tolist() == [[0.0, 5.0], [6.0, 9.0]]
    for task in Task:
        best = best_of(genotypes, fitnesses, task)
        for index in np.ndindex(2, 2):
            assert best[index] == best_of(genotypes[index], fitnesses[index], task)


@given(arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6)),
              elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])),
       st.sampled_from(list(Task)))
def test_best_of_rows_equal_per_row_calls(fitnesses, task):
    """A stack of populations gives each row's own best member, ties (-0.0
    against 0.0 included) going to the lowest index as for one population."""
    genotypes = np.arange(fitnesses.size, dtype=float).reshape(fitnesses.shape)
    best = best_of(genotypes, fitnesses, task)
    assert best.shape == fitnesses.shape[:-1]
    for index in np.ndindex(best.shape):
        assert best[index] == best_of(genotypes[index], fitnesses[index], task)


def test_best_of_rejects_bad_input():
    with pytest.raises(ValueError):
        best_of([], [], Task.MAXIMIZE)
    with pytest.raises(ValueError):
        best_of([1.0, 2.0], [0.5], Task.MAXIMIZE)


def test_best_of_invariant_under_monotone_transform():
    rng = np.random.default_rng(23)
    for _ in range(100):
        genotypes = rng.normal(size=10)
        fitnesses = rng.normal(size=10)
        transformed = np.exp(fitnesses) + 3.0 * fitnesses
        for task in (Task.MAXIMIZE, Task.MINIMIZE):
            assert best_of(genotypes, fitnesses, task) == best_of(genotypes, transformed, task)


def test_draw_sample_without_replacement():
    rng = np.random.default_rng(5)
    pool = np.arange(24, dtype=float)
    sample = pool[draw_sample(pool.size, 24, 12, rng)]
    assert sample.shape == (24, 12)
    for row in sample.tolist():
        assert len(set(row)) == 12
        assert set(row) <= set(pool.tolist())
    with pytest.raises(ValueError):
        draw_sample(pool.size, 24, 25, rng)
    with pytest.raises(ValueError):
        draw_sample(pool.size, 24, 0, rng)


@given(st.integers(1, 30), st.integers(1, 30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))), st.integers(0, 2**32 - 1))
def test_draw_sample_rows_hold_distinct_members(rows, pop_and_size, seed):
    """Without replacement, every row of a (rows, size) block holds distinct
    members of the opponent."""
    n, size = pop_and_size
    pool = np.arange(n, dtype=float) - 0.5
    sample = pool[draw_sample(n, rows, size, np.random.default_rng(seed))]
    assert sample.shape == (rows, size)
    assert all(len(set(row)) == size for row in sample.tolist())
    assert np.isin(sample, pool).all()


def test_draw_sample_with_replacement_allows_oversampling():
    rng = np.random.default_rng(5)
    pool = np.array([1.0, 2.0])
    sample = pool[draw_sample(pool.size, 3, 10, rng, with_replacement=True)]
    assert sample.shape == (3, 10)
    assert set(sample.ravel().tolist()) <= {1.0, 2.0}
    with pytest.raises(ValueError):
        draw_sample(pool.size, 3, 0, rng, with_replacement=True)


@pytest.mark.parametrize("with_replacement", [False, True])
def test_draw_sample_members_are_drawn_uniformly(with_replacement):
    """Each opponent member appears in a row sample_size/pop times on average."""
    rng = np.random.default_rng(31)
    pop, size, draws = 24, 12, 400
    counts = np.zeros(pop)
    for _ in range(draws):
        block = draw_sample(pop, pop, size, rng, with_replacement)
        counts += np.bincount(block.ravel(), minlength=pop)
    frequency = counts / (draws * pop)
    # five standard deviations of a member's mean count per row
    assert np.abs(frequency - size / pop).max() < 0.04


def test_reference_partner():
    assert reference_partner(RIDGE8, Task.MAXIMIZE) == 8.0
    assert reference_partner(RIDGE8, Task.MINIMIZE) == 0.0
    assert reference_partner(SIN, Task.MAXIMIZE) == 0.4925
    assert reference_partner(SIN, Task.MINIMIZE) == -0.4925
    with pytest.raises(TypeError):
        reference_partner(CRISP, Task.MAXIMIZE)


def test_objective_min():
    assert objective_min(CRISP) == 0.0
    assert objective_min(SMOOTH) == 0.0
    assert objective_min(RIDGE8) == 0.0
    assert objective_min(SIN) == -0.5611


def test_smooth_is_antisymmetric():
    # f(-x) = 1 - f(x); the competitive roles on this substrate are mirror
    # images of each other, which matters for interpreting gap statistics
    xs = np.linspace(-3, 3, 50)
    assert np.allclose(eval_objective_test(SMOOTH, -xs), 1.0 - eval_objective_test(SMOOTH, xs))
