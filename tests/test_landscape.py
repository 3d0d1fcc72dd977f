"""Unit tests for landscape profiles and the three similarity measures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coevoscape import experiment
from coevoscape.evolution import run_trajectory
from coevoscape.experiment import ExperimentConfig, run_batch
from coevoscape.landscape import (
    BHATT_MODES,
    DISTRIBUTION_EPS,
    bhatt,
    dist,
    kld,
    make_grid,
    ObjectiveSide,
    measure_generation,
    objective_profile,
    objective_side,
    subjective_profile_comp,
    subjective_profile_test,
    subjective_profiles,
    to_distribution,
)
from coevoscape.substrate import (
    CrispLinear,
    Ridge,
    Sinusoid,
    SmoothUnimodalPair,
    Task,
    draw_sample,
    eval_objective_shared,
    eval_objective_test,
    objective_min,
    subjective_test,
)

CRISP = CrispLinear()
SMOOTH = SmoothUnimodalPair()
RIDGE8 = Ridge(8.0)
SIN = Sinusoid()

# hand-evaluated reference values for p = {0.5, 0.5} against q = {0.25, 0.75}
KLD_HALF_QUARTER = 0.20751874963942185
BHATT_HALF_QUARTER = 0.18459191128251476
BHATT_VERBATIM_HALF_QUARTER = 0.7071067811865476


def _profile(values):
    return np.asarray(values, dtype=float)


def test_make_grid():
    assert make_grid(0.0, 1.0, 3).tolist() == [0.0, 0.5, 1.0]
    g = make_grid(-3.0, 3.0, 301)
    assert g.size == 301
    assert g[0] == -3.0 and g[-1] == 3.0
    assert np.allclose(np.diff(g), 0.02)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1)


def test_objective_profile_test_based():
    grid = make_grid(-3.0, 3.0, 301)
    prof = objective_profile(SMOOTH, grid)
    assert prof[np.argwhere(grid == 1.0)[0, 0]] == 1.0
    assert np.array_equal(prof, eval_objective_test(SMOOTH, grid))


def test_objective_profile_compositional_slices():
    grid = make_grid(-2.0, 10.0, 301)
    prof = objective_profile(RIDGE8, grid, Task.MAXIMIZE)
    assert prof.max() == 16.0
    assert grid[np.argmax(prof)] == 8.0

    grid = np.array([-0.4925, 0.0, 1.0])
    prof = objective_profile(SIN, grid, Task.MINIMIZE)
    assert abs(prof[0] + 0.5611) < 1e-3
    assert np.argmin(prof) == 0


def test_subjective_profile_single_sample_matches_pointwise():
    grid = make_grid(-3.0, 3.0, 61)
    sample = np.array([[0.1, 0.5, 0.9]])
    prof = subjective_profile_test(grid, sample, CRISP)
    expect = [subjective_test(float(x), sample[0], CRISP) for x in grid]
    assert prof.tolist() == expect


def test_subjective_profile_identical_samples_average_is_noop():
    grid = make_grid(0.0, 1.0, 11)
    one = np.array([[0.2, 0.6]])
    many = np.repeat(one, 5, axis=0)
    a = subjective_profile_test(grid, one, CRISP)
    b = subjective_profile_test(grid, many, CRISP)
    assert np.array_equal(a, b)


def test_subjective_profile_matches_bruteforce_enumeration():
    grid = np.array([0.05, 0.55, 0.95])
    samples = np.array([[0.1, 0.9], [0.4, 0.6]])
    prof = subjective_profile_test(grid, samples, CRISP)
    for j, x in enumerate(grid):
        fx = eval_objective_test(CRISP, float(x))
        scores = []
        for row in samples:
            for s in row:
                scores.append(1 if fx > eval_objective_test(CRISP, float(s)) else 0)
        assert prof[j] == pytest.approx(np.mean(scores))


def test_subjective_profile_values_on_lattice():
    # averaging pop_size samples of sample_size members keeps values on a
    # 1/(pop_size*sample_size) lattice
    rng = np.random.default_rng(20)
    samples = rng.uniform(-3, 3, size=(24, 12))
    grid = make_grid(-3.0, 3.0, 301)
    prof = subjective_profile_test(grid, samples, SMOOTH)
    allowed = {k / 288.0 for k in range(289)}
    assert all(v in allowed for v in prof.tolist())


def test_subjective_profile_rejects_empty():
    with pytest.raises(ValueError):
        subjective_profile_test(make_grid(0, 1, 3), np.empty((0, 0)), CRISP)


# crisp genotypes with many exact objective ties: everything outside [0, 1]
# and the point 0.5 all score 0.5
TIED_GENOTYPES = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
                           st.floats(-3.0, 3.0))


@given(arrays(float, st.integers(1, 30), elements=TIED_GENOTYPES),
       arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=TIED_GENOTYPES))
def test_subjective_profile_equals_grid_pop_sample_tensor(grid, samples):
    """The pooled-sample rule reproduces, bit for bit, the mean over a
    (grid, pop, sample) tensor of strict wins."""
    f_grid = eval_objective_test(CRISP, grid)
    f_samples = eval_objective_test(CRISP, samples)
    reference = (f_grid[:, None, None] > f_samples[None, :, :]).mean(axis=(1, 2))
    assert np.array_equal(subjective_profile_test(grid, samples, CRISP), reference)


@given(arrays(float, st.integers(1, 30), elements=TIED_GENOTYPES),
       arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6),
                               st.integers(1, 6)), elements=TIED_GENOTYPES))
def test_subjective_profile_stack_equals_per_generation_calls(grid, samples):
    """A stack of generations' samples gives each generation's own profile."""
    stacked = subjective_profile_test(grid, samples, CRISP)
    assert stacked.shape == samples.shape[:2] + grid.shape
    for index in np.ndindex(samples.shape[:2]):
        assert np.array_equal(stacked[index], subjective_profile_test(grid, samples[index], CRISP))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([CRISP, SMOOTH]),
       sizes=st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       generations=st.integers(1, 3), with_replacement=st.booleans(),
       pool=st.lists(TIED_GENOTYPES, min_size=1, max_size=8),
       grid=arrays(float, st.integers(1, 30), elements=TIED_GENOTYPES),
       seed=st.integers(0, 2**32 - 1))
@example(kind=CRISP, sizes=(1, 1), generations=1, with_replacement=False, pool=[0.5],
         grid=np.array([0.5]), seed=0)
@example(kind=CRISP, sizes=(256, 256), generations=1, with_replacement=False,
         pool=[-1.0, 0.5, 2.0], grid=np.array([0.25, 0.5]), seed=1)
@example(kind=CRISP, sizes=(257, 3), generations=2, with_replacement=True,
         pool=[0.0, 0.25, 1.0], grid=np.array([-1.0, 0.25, 0.5, 1.0]), seed=2)
def test_counted_profile_equals_subjective_test_of_the_picked_sample(
        kind, sizes, generations, with_replacement, pool, grid, seed):
    """Counted from picks into the opposing populations, each generation's
    profile equals `subjective_test` of the grid against its pooled picked
    sample bit for bit, and so does the same sample passed explicitly:
    crisp ties, duplicate opponents, either sampling, uint8 and uint16 picks."""
    pop_size, sample_size = sizes
    rng = np.random.default_rng(seed)
    # a few distinct values only: duplicate opponents, and on crisp many ties
    opponents = rng.choice(pool, size=(generations, 2, pop_size))
    grid = np.concatenate([grid, pool])
    picks = draw_sample(pop_size, generations * 2 * pop_size, sample_size, rng, with_replacement)
    picks = picks.astype(np.min_scalar_type(pop_size - 1)).reshape(
        generations, 2, pop_size, sample_size)
    counted = subjective_profile_test(grid, opponents, kind, picks)
    assert counted.shape == (generations, 2, grid.size)
    samples = np.take_along_axis(opponents[..., None, :], picks, axis=-1)
    assert np.array_equal(counted, subjective_profile_test(grid, samples, kind))
    for index in np.ndindex(generations, 2):
        assert np.array_equal(counted[index], subjective_test(grid, samples[index].ravel(), kind))


@pytest.mark.parametrize("function", ["smooth", "ridge"])
def test_profiles_are_c_contiguous(function, monkeypatch):
    """`measure_generation` sums each profile along the grid, and numpy
    rounds such a sum differently over strided rows than over contiguous
    ones, so its bytes hold only while the profiles it is given, directly
    and by a batch a chunk of runs at a time, stay C-contiguous."""
    cfg = ExperimentConfig(function=function, generations=3, runs=30)
    traj = run_trajectory(cfg, [1, 2, 3])
    for run in (1, slice(1, 3)):
        assert subjective_profiles(traj, run, cfg.grid(),
                                   cfg.objective_kind()).flags.c_contiguous
    layouts = []

    def measure(objective, sub, **kwargs):
        layouts.append((sub.flags.c_contiguous, len(sub)))
        return measure_generation(objective, sub, **kwargs)

    monkeypatch.setattr(experiment, "measure_generation", measure)
    run_batch(cfg)
    assert len(layouts) > 1  # chunks of 13 runs at these sizes
    assert all(contiguous for contiguous, _ in layouts)
    assert sum(runs for _, runs in layouts) == cfg.runs


@pytest.mark.parametrize("pick", [-1, 3])
def test_counted_profile_rejects_picks_outside_the_population(pick):
    picks = np.array([[[0, 1], [2, pick]], [[0, 0], [1, 1]]])
    with pytest.raises(IndexError):
        subjective_profile_test(make_grid(0, 1, 5), np.zeros((2, 3)), CRISP, picks)


def test_counted_profile_rejects_picks_for_other_populations():
    with pytest.raises(ValueError, match="do not match"):
        subjective_profile_test(make_grid(0, 1, 5), np.zeros((2, 3)), CRISP,
                                np.zeros((4, 2, 2), dtype=np.uint8))


def test_subjective_profile_comp_is_bit_exact_slice():
    grid = make_grid(-2.0, 10.0, 301)
    prof = subjective_profile_comp(grid, 8.0, RIDGE8)
    assert np.array_equal(prof, eval_objective_shared(RIDGE8, grid, 8.0))
    assert prof.max() == 16.0

    grid = make_grid(-3.0, 3.0, 301)
    prof = subjective_profile_comp(grid, 0.0, SIN)
    assert np.array_equal(prof, np.sin(grid) / (1.0 + grid * grid))


def test_dist_identity_and_hand_value():
    a = _profile([0.0, 1.0])
    assert dist(a, a) == 0.0
    flipped = _profile([1.0, 0.0])
    assert dist(a, flipped) == pytest.approx(1.0, abs=1e-12)


def test_dist_without_grid_factor():
    a = _profile([0.0, 1.0])
    flipped = _profile([1.0, 0.0])
    assert dist(a, flipped, grid_factor=False) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_dist_rejects_flat_objective():
    flat = _profile([0.7, 0.7, 0.7])
    other = _profile([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        dist(flat, other)


def test_dist_rejects_mismatched_grids():
    a = _profile([0.0, 1.0])
    b = _profile([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="same shape"):
        dist(a, b)


def test_dist_symmetric_for_equal_range_profiles():
    rng = np.random.default_rng(21)
    values = rng.uniform(size=20)
    a = _profile(values)
    b = _profile(rng.permutation(values))
    assert dist(a, b) == dist(b, a)


def test_dist_in_unit_interval_for_contained_profiles():
    rng = np.random.default_rng(22)
    for _ in range(300):
        obj = rng.uniform(size=30)
        obj[0], obj[1] = 0.0, 1.0  # pin the range
        sub = rng.uniform(size=30)
        d = dist(_profile(obj), _profile(sub))
        assert 0.0 <= d <= 1.0


def test_to_distribution():
    w = to_distribution(np.array([1.0, 1.0]))
    assert w.tolist() == [0.5, 0.5]
    w = to_distribution(np.array([0.0, -0.5611]), fitness_min=-0.5611)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0.0)


def test_kld_identity_and_hand_value():
    a = _profile([1.0, 1.0])
    assert kld(a, a) == 0.0
    b = _profile([0.5, 1.5])  # normalizes to {0.25, 0.75}
    assert kld(a, b) == pytest.approx(KLD_HALF_QUARTER, abs=1e-12)


def test_kld_nonnegative_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = _profile(rng.uniform(size=15))
        b = _profile(rng.uniform(size=15))
        assert kld(a, b) >= 0.0


def test_kld_asymmetric():
    a = _profile([1.0, 1.0])
    b = _profile([0.5, 1.5])
    assert kld(a, b) != kld(b, a)


def test_bhatt_identity_and_hand_value():
    a = _profile([1.0, 1.0])
    assert bhatt(a, a) == 0.0
    b = _profile([0.5, 1.5])
    assert bhatt(a, b) == pytest.approx(BHATT_HALF_QUARTER, abs=1e-12)


def test_bhatt_disjoint_support_close_to_one():
    a = _profile([1.0, 0.0])
    b = _profile([0.0, 1.0])
    assert bhatt(a, b) == pytest.approx(1.0, abs=1e-5)


def test_bhatt_symmetric_and_bounded():
    rng = np.random.default_rng(24)
    for _ in range(300):
        a = _profile(rng.uniform(size=15))
        b = _profile(rng.uniform(size=15))
        v = bhatt(a, b)
        assert 0.0 <= v <= 1.0
        assert v == bhatt(b, a)


def test_bhatt_verbatim_mode():
    a = _profile([1.0, 1.0])
    b = _profile([0.5, 1.5])
    assert bhatt(a, b, mode="verbatim") == pytest.approx(BHATT_VERBATIM_HALF_QUARTER, abs=1e-12)
    # the printed formula does not vanish for identical distributions,
    # which is why it is not the default
    assert bhatt(a, a, mode="verbatim") == pytest.approx(np.sqrt(0.5), abs=1e-12)
    with pytest.raises(ValueError):
        bhatt(a, b, mode="euclid")


def _measures(traj, cfg):
    """(P1, P2) measures of every generation of the block's first run."""
    kind = cfg.objective_kind()
    return measure_generation(objective_side(kind, cfg.grid(), traj.tasks),
                              subjective_profiles(traj, 0, cfg.grid(), kind))


def test_measure_generation_zero_dist_at_reference_partner():
    cfg = ExperimentConfig(function="ridge", generations=0)
    traj = run_trajectory(cfg, [55])
    # force the recorded representative onto the task-matched optimum slice
    traj.partners[0, 0, 1] = 8.0  # P2 maximizes; its reference slice is y* = n
    t1, t2 = _measures(traj, cfg)[0]
    assert t2.tolist() == [0.0, 0.0, 0.0]
    assert t1[0] > 0.0


def test_measure_generation_symmetric_state():
    cfg = ExperimentConfig(task_p1="maximize", task_p2="maximize", generations=2)
    traj = run_trajectory(cfg, [66])
    # mirror P1's evaluators onto P2: the same picks from the same genotypes
    traj.genotypes[:, :, 0] = traj.genotypes[:, :, 1]
    traj.picks[:, :, 1] = traj.picks[:, :, 0]
    t1, t2 = _measures(traj, cfg)[-1]
    assert np.array_equal(t1, t2)


def test_measure_generation_all_finite_in_range():
    for fn in ("crisp", "smooth", "ridge", "sinusoid"):
        cfg = ExperimentConfig(function=fn, generations=3)
        for generation in _measures(run_trajectory(cfg, [77]), cfg):
            for d, k, b in generation:
                assert 0.0 <= d <= 1.0
                assert k >= 0.0 and np.isfinite(k)
                assert 0.0 <= b <= 1.0


def test_subjective_profiles_shapes_and_slice():
    cfg = ExperimentConfig(function="sinusoid", generations=2)
    traj = run_trajectory(cfg, [88, 89])
    grid = cfg.grid()
    profiles = subjective_profiles(traj, slice(0, 2), grid, SIN)
    assert profiles.shape == (2, 3, 2, grid.size)
    obj1, obj2 = objective_side(SIN, grid, traj.tasks).profiles
    assert np.array_equal(obj1, objective_profile(SIN, grid, traj.tasks[0]))
    assert np.array_equal(obj2, objective_profile(SIN, grid, traj.tasks[1]))
    for r in range(2):
        assert np.array_equal(profiles[r], subjective_profiles(traj, r, grid, SIN))
    for r, k in np.ndindex(2, 3):
        sub1, sub2 = profiles[r, k]
        assert np.array_equal(sub1, eval_objective_shared(SIN, grid, traj.partners[r, k, 0]))
        assert np.array_equal(sub2, eval_objective_shared(SIN, grid, traj.partners[r, k, 1]))


@pytest.mark.parametrize("function", ["crisp", "smooth", "ridge", "sinusoid"])
@pytest.mark.parametrize("grid_factor, mode", [(True, "hellinger"), (False, "verbatim")])
def test_batch_objective_side_measures_like_each_generations_rows(function, grid_factor,
                                                                   mode):
    """Measures against the batch's objective side, built once, equal those
    of each generation's own objective rows, bit for bit."""
    cfg = ExperimentConfig(function=function, generations=3, task_p1="maximize")
    traj = run_trajectory(cfg, [91, 92])
    kind, grid = cfg.objective_kind(), cfg.grid()
    objective = objective_side(kind, grid, traj.tasks, grid_factor=grid_factor)
    # each generation's own objective rows: each population's for its task
    rows = np.array([[objective_profile(kind, grid, task) for task in traj.tasks]
                     for _ in range(cfg.generations + 1)])
    assert np.array_equal(np.broadcast_to(objective.profiles, rows.shape), rows)
    per_generation = ObjectiveSide.of(rows, kind, grid_factor=grid_factor)
    profiles = subjective_profiles(traj, slice(0, 2), grid, kind)
    for r in range(2):
        sub = subjective_profiles(traj, r, grid, kind)
        assert np.array_equal(sub, profiles[r])
        assert np.array_equal(measure_generation(objective, sub, bhatt_mode=mode),
                              measure_generation(per_generation, sub, bhatt_mode=mode))


def test_subjective_profiles_test_based_uses_retained_samples():
    cfg = ExperimentConfig(function="smooth", generations=1)
    traj = run_trajectory(cfg, [89, 90])
    grid = cfg.grid()
    profiles = subjective_profiles(traj, slice(0, 2), grid, SMOOTH)
    obj1, obj2 = objective_side(SMOOTH, grid, traj.tasks).profiles
    assert np.array_equal(obj1, eval_objective_test(SMOOTH, grid))
    assert np.array_equal(obj2, obj1)
    for r, k in np.ndindex(2, 2):
        for i, sub in enumerate(profiles[r, k]):
            samples = traj.genotypes[r, max(k - 1, 0), 1 - i][traj.picks[r, k, i]]
            assert np.array_equal(sub, subjective_profile_test(grid, samples, SMOOTH))
            assert np.array_equal(sub, subjective_test(grid, samples.ravel(), SMOOTH))


# -- properties of the measures on arbitrary profiles ------------------------

# fitness values of the shipped substrates stay within a few units of 0
VALUES = st.floats(-20.0, 20.0, allow_nan=False)


def _profiles(shape):
    return arrays(float, shape, elements=VALUES)


LENGTHS = st.integers(2, 40)
PROFILE_PAIRS = LENGTHS.flatmap(lambda n: st.tuples(_profiles(n), _profiles(n)))


@given(_profiles(LENGTHS))
def test_dist_of_profile_with_itself_is_zero(x):
    assume(np.ptp(x) > 0.0)
    assert dist(x, x) == 0.0


@given(PROFILE_PAIRS, st.floats(-20.0, 0.0))
def test_kld_nonnegative_and_zero_on_identity(pair, fitness_min):
    x, y = pair
    assert kld(x, y, fitness_min=fitness_min) >= 0.0
    assert kld(x, x, fitness_min=fitness_min) == 0.0


@given(PROFILE_PAIRS, st.floats(-20.0, 0.0))
def test_bhatt_in_unit_interval_and_zero_on_identity(pair, fitness_min):
    x, y = pair
    assert 0.0 <= bhatt(x, y, fitness_min=fitness_min) <= 1.0
    assert bhatt(x, x, fitness_min=fitness_min) == 0.0


@given(_profiles(LENGTHS), _profiles(LENGTHS), st.sampled_from((dist, kld, bhatt)))
def test_measures_reject_shape_mismatch(x, y, measure):
    assume(x.shape != y.shape)
    with pytest.raises(ValueError, match="same shape"):
        measure(x, y)


# -- row-wise measures against the one-pair expressions ----------------------

def _reference_measures(obj, sub, fitness_min, grid_factor, mode):
    """(dist, kld, bhatt) of one objective/subjective pair, written as the
    one-pair expressions the row-wise measures replaced."""
    def distribution(values):
        w = np.maximum(values - fitness_min, DISTRIBUTION_EPS)
        return w / w.sum()

    value_range = float(np.max(obj) - np.min(obj))
    dist_max = value_range * (np.sqrt(obj.size) if grid_factor else 1.0)
    p, q = distribution(obj), distribution(sub)
    if mode == "verbatim":
        b = float(np.sqrt(max(0.0, 1.0 - np.sum(p * q))))
    else:
        b = float(min(1.0, np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))))
    return (float(np.linalg.norm(obj - sub) / dist_max),
            max(0.0, float(np.sum(p * np.log2(p / q)))), b)


RUN_SHAPES = st.tuples(st.integers(1, 12), st.just(4), LENGTHS)


@given(_profiles(RUN_SHAPES), st.sampled_from([CRISP, SMOOTH, RIDGE8, SIN]),
       st.booleans(), st.sampled_from(BHATT_MODES))
def test_measures_of_a_run_equal_per_state_expressions(profiles, kind, grid_factor, mode):
    """measure_generation on a whole run array and dist/kld/bhatt on stacked
    rows equal, bit for bit, the one-pair expressions applied per state."""
    # a ramp keeps every objective row from being flat
    profiles[:, :2] += np.linspace(0.0, 1.0, profiles.shape[-1])
    assume(np.all(np.ptp(profiles[:, :2], axis=-1) > 0.0))
    fitness_min = objective_min(kind)
    reference = np.array([
        [_reference_measures(state[i], state[i + 2], fitness_min, grid_factor, mode)
         for i in (0, 1)]
        for state in profiles
    ])
    objective = ObjectiveSide.of(profiles[:, :2], kind, grid_factor=grid_factor)
    measured = measure_generation(objective, profiles[:, 2:], bhatt_mode=mode)
    assert measured.shape == (len(profiles), 2, 3)
    assert np.array_equal(measured, reference)
    obj, sub = profiles[:, :2], profiles[:, 2:]
    assert np.array_equal(dist(obj, sub, grid_factor=grid_factor), reference[..., 0])
    assert np.array_equal(kld(obj, sub, fitness_min=fitness_min), reference[..., 1])
    assert np.array_equal(bhatt(obj, sub, fitness_min=fitness_min, mode=mode),
                          reference[..., 2])
    first = profiles[0]
    assert (dist(first[0], first[2], grid_factor=grid_factor),
            kld(first[0], first[2], fitness_min=fitness_min),
            bhatt(first[0], first[2], fitness_min=fitness_min, mode=mode)
            ) == tuple(reference[0, 0])
