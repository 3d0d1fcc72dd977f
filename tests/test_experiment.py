"""Unit tests for configuration, CI aggregation, and batch running."""

from __future__ import annotations

import contextlib
import importlib.resources
import importlib.util
import json
import math
import os
import re
import signal
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtrit

from coevoscape import evolution, experiment, landscape
from coevoscape.evolution import run_trajectory
from coevoscape.experiment import (
    MEASURES,
    POPULATIONS,
    ConfigError,
    ExperimentConfig,
    MeasureSeries,
    ci95,
    run_batch,
    trajectory_seed,
)
from coevoscape.landscape import measure_generation, objective_side, subjective_profiles
from coevoscape.substrate import Task
from conftest import assert_no_child_process

# t(0.975, df=1) * std({0,1}, ddof=1) / sqrt(2): the df=1 t quantile is
# tan(pi*(0.975 - 0.5)) and std({0,1}) = 1/sqrt(2), so the half width is tan(0.475*pi)/2
CI_HALF_WIDTH_TWO_SAMPLES = math.tan(0.475 * math.pi) / 2


def test_ci95_degenerate_cases():
    assert ci95([5.0, 5.0, 5.0, 5.0]) == (5.0, 5.0, 5.0)
    assert ci95([3.25]) == (3.25, 3.25, 3.25)
    with pytest.raises(ValueError):
        ci95([])


def test_ci95_two_samples_hand_value():
    mean, lo, hi = ci95([0.0, 1.0])
    assert mean == 0.5
    assert hi - mean == pytest.approx(CI_HALF_WIDTH_TWO_SAMPLES, abs=1e-12)
    assert mean - lo == pytest.approx(CI_HALF_WIDTH_TWO_SAMPLES, abs=1e-12)


def test_ci95_matches_scipy_interval():
    rng = np.random.default_rng(31)
    samples = rng.normal(size=40)
    mean, lo, hi = ci95(samples)
    t = stats.t.ppf(0.975, 39)
    half = t * samples.std(ddof=1) / np.sqrt(40)
    assert lo == pytest.approx(mean - half) and hi == pytest.approx(mean + half)


def test_t975_table_equals_stdtrit():
    """Every tabulated quantile is `stdtrit(df, 0.975)` bit for bit."""
    table = experiment._t975_table()
    assert len(table) == 1000
    assert [df for df, t in enumerate(table, start=1) if t != stdtrit(df, 0.975)] == []


def test_t975_table_is_the_generator_output():
    """The committed table is what tools/tabulate_t975.py writes from the
    installed scipy, so a scipy whose quantiles moved fails here rather than
    split the table from the fallback beyond it."""
    script = Path(__file__).resolve().parents[1] / "tools" / "tabulate_t975.py"
    spec = importlib.util.spec_from_file_location("tabulate_t975", script)
    tabulate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tabulate)
    committed = importlib.resources.files("coevoscape").joinpath("t975.txt").read_text("ascii")
    assert tabulate.table_text() == committed


@pytest.mark.parametrize("n", [2, 1001, 1002])
def test_ci95_equals_inline_stdtrit_on_both_sides_of_the_table(n):
    """ci95 at 2 samples (df 1), 1,001 (the table's last df) and 1,002 (the
    scipy fallback) equals the scipy form bit for bit, for a 1-D sample and
    per column."""
    samples = np.random.default_rng(n).normal(3.0, 2.0, size=(n, 4))
    columns = np.ascontiguousarray(samples.T)  # summed in ci95's order
    half = stdtrit(n - 1, 0.975) * columns.std(axis=1, ddof=1) / np.sqrt(n)
    mean = columns.mean(axis=1)
    assert ci95(samples[:, 0]) == (mean[0], mean[0] - half[0], mean[0] + half[0])
    for got, want in zip(ci95(samples), (mean, mean - half, mean + half)):
        assert np.array_equal(got, want)


def test_config_defaults_match_standard_setup():
    cfg = ExperimentConfig()
    assert (cfg.pop_size, cfg.sample_size, cfg.tournament_size) == (24, 12, 2)
    assert (cfg.mutation_prob, cfg.mutation_sigma) == (0.5, 0.1)
    assert (cfg.runs, cfg.generations) == (100, 10)
    assert cfg.task_p1 == "minimize" and cfg.task_p2 == "maximize"
    assert cfg.tasks() == (Task.MINIMIZE, Task.MAXIMIZE)


def test_config_grid_and_interval_defaults():
    smooth = ExperimentConfig()
    g = smooth.grid()
    assert g[0] == -3.0 and g[-1] == 3.0 and g.size == 301
    assert smooth.init_interval("P1") == (-3.0, 3.0)

    ridge = ExperimentConfig(function="ridge", ridge_n=8.0)
    g = ridge.grid()
    assert g[0] == -2.0 and g[-1] == 10.0
    assert ridge.init_interval("P1") == (0.0, 8.0)
    assert ridge.init_interval("P2") == (0.0, 8.0)

    explicit = ExperimentConfig(function="ridge", grid_lo=0.0, grid_hi=8.0,
                                init_interval_p1=(1.0, 2.0))
    assert explicit.grid()[0] == 0.0 and explicit.grid()[-1] == 8.0
    assert explicit.init_interval("P1") == (1.0, 2.0)


def test_config_from_dict_sections():
    cfg = ExperimentConfig.from_dict({
        "substrate": {"function": "ridge", "ridge_n": 4.0},
        "evolution": {"pop_size": 10, "sample_size": 5, "generations": 3,
                      "init_interval_p1": [0.0, 4.0]},
        "interaction": {"task_p1": "maximize", "task_p2": "maximize"},
        "landscape": {"grid_points": 11, "bhatt_mode": "verbatim"},
        "experiment": {"runs": 2, "master_seed": 9},
    })
    assert cfg.ridge_n == 4.0
    assert cfg.init_interval_p1 == (0.0, 4.0)
    assert cfg.tasks() == (Task.MAXIMIZE, Task.MAXIMIZE)
    assert cfg.bhatt_mode == "verbatim"


def test_config_round_trip():
    cfg = ExperimentConfig(function="sinusoid", runs=7, grid_points=51)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def _interval(lo=st.floats(-100.0, 100.0)):
    return st.tuples(lo, st.floats(0.01, 100.0)).map(lambda t: (t[0], t[0] + t[1]))


@st.composite
def _scalar(draw, values):
    """A value of `values`, as a Python number or a numpy scalar that holds it."""
    value = draw(values)
    if isinstance(value, float):
        forms = [float, np.float64, np.float32]
    else:
        forms = [int, *(t for t in (np.int32, np.int64, np.uint64)
                        if np.iinfo(t).min <= value <= np.iinfo(t).max)]
    return draw(st.sampled_from(forms))(value)


@st.composite
def _drawn_interval(draw):
    """An interval as a config file or a caller could give it: a list or a
    tuple of Python or numpy numbers."""
    lo, hi = draw(_interval())
    form = draw(st.sampled_from([list, tuple]))
    return form([draw(_scalar(st.just(lo))), draw(_scalar(st.just(hi)))])


@st.composite
def valid_configs(draw):
    pop_size = draw(st.integers(1, 50))
    grid = draw(st.one_of(st.just((None, None)), _interval()))
    kwargs = dict(
        function=draw(st.sampled_from(["crisp", "smooth", "ridge", "sinusoid"])),
        ridge_n=draw(_scalar(st.floats(0.5, 20.0))),
        pop_size=draw(_scalar(st.just(pop_size))),
        sample_size=draw(_scalar(st.integers(1, pop_size))),
        tournament_size=draw(_scalar(st.integers(1, 5))),
        mutation_prob=draw(_scalar(st.floats(0.0, 1.0))),
        mutation_sigma=draw(_scalar(st.floats(1e-6, 10.0))),
        generations=draw(_scalar(st.integers(0, 30))),
        init_interval_p1=draw(st.none() | _drawn_interval()),
        init_interval_p2=draw(st.none() | _drawn_interval()),
        sample_with_replacement=draw(st.booleans()),
        task_p1=draw(st.sampled_from(["maximize", "minimize"])),
        task_p2=draw(st.sampled_from(["maximize", "minimize"])),
        grid_lo=grid[0] if grid[0] is None else draw(_scalar(st.just(grid[0]))),
        grid_hi=grid[1] if grid[1] is None else draw(_scalar(st.just(grid[1]))),
        grid_points=draw(_scalar(st.integers(2, 500))),
        dist_grid_factor=draw(st.booleans()),
        bhatt_mode=draw(st.sampled_from(["hellinger", "verbatim"])),
        runs=draw(_scalar(st.integers(1, 1000))),
        master_seed=draw(_scalar(st.integers(0, 2**63))),
        snapshots=draw(st.booleans()),
    )
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        # the drawn grid is too coarse or sits on a flat stretch of the
        # substrate: every function varies on its default grid of 5+ points
        return ExperimentConfig(**{**kwargs, "grid_lo": None, "grid_hi": None,
                                   "grid_points": max(kwargs["grid_points"], 5)})


# field annotation -> values of the wrong type, as a JSON file could hold them
MISTYPED = {
    "str": st.one_of(st.integers(), st.booleans(), st.none(), st.lists(st.text(max_size=3))),
    "bool": st.one_of(st.integers(), st.text(max_size=3), st.none()),
    "int": st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none()),
    "float": st.one_of(st.booleans(), st.text(max_size=3), st.none(),
                       st.sampled_from([math.inf, -math.inf, math.nan])),
    "float | None": st.one_of(st.booleans(), st.text(max_size=3),
                              st.sampled_from([math.inf, -math.inf, math.nan])),
    "tuple[float, float] | None": st.one_of(
        st.lists(st.floats(-1.0, 1.0), max_size=1),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=4),
        st.text(max_size=3), st.just([0.0, math.inf])),
}


# field annotation -> the type its value is kept in
PLAIN = {"str": str, "bool": bool, "int": int, "float": float, "float | None": float}


def is_plain(value, annotation: str) -> bool:
    if value is None:
        return annotation.endswith("| None")
    if annotation.startswith("tuple"):
        return type(value) is tuple and [type(x) for x in value] == [float, float]
    return type(value) is PLAIN[annotation]


@given(valid_configs())
def test_config_round_trips_through_dict_and_json(cfg):
    """However its values were given, a config keeps Python's own types,
    hashes, and equals its round trips, hash included."""
    for field in fields(cfg):
        assert is_plain(getattr(cfg, field.name), field.type), field.name
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg and hash(again) == hash(cfg)


def test_list_and_tuple_intervals_give_one_config():
    as_list = ExperimentConfig(init_interval_p1=[0.0, 1.0])
    as_tuple = ExperimentConfig(init_interval_p1=(0.0, 1.0))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert as_list.init_interval_p1 == (0.0, 1.0)
    assert replace(as_tuple, init_interval_p1=[0, 1]) == as_tuple


def test_numpy_scalars_are_kept_as_python_numbers():
    cfg = ExperimentConfig(pop_size=np.int64(24), ridge_n=np.float32(8.0), runs=np.uint8(100))
    assert json.loads(json.dumps(cfg.to_dict())) == ExperimentConfig().to_dict()
    assert cfg == ExperimentConfig() and hash(cfg) == hash(ExperimentConfig())
    assert type(cfg.pop_size) is int and type(cfg.ridge_n) is float


@given(valid_configs(), st.sampled_from(fields(ExperimentConfig)), st.data())
def test_config_rejects_mistyped_values(cfg, field, data):
    sections = cfg.to_dict()
    section = next(name for name, keys in sections.items() if field.name in keys)
    sections[section][field.name] = data.draw(MISTYPED[field.type])
    with pytest.raises(ConfigError, match=field.name):
        ExperimentConfig.from_dict(sections)


def test_config_rejects_unknown_names():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"substrte": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"substrate": {"fn": "smooth"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"substrate": "smooth"})


def test_config_validation_errors():
    for bad in (
        dict(function="bumpy"),
        dict(task_p1="descend"),
        dict(runs=0),
        dict(grid_points=1),
        dict(grid_lo=2.0, grid_hi=-2.0),
        dict(bhatt_mode="both"),
        dict(sample_size=99),
        dict(mutation_prob=1.5),
        dict(mutation_sigma=0.0),
        dict(generations=-1),
        dict(init_interval_p1=(1.0, 1.0)),
        dict(master_seed=-1),
        # mistyped values, as they arrive from a JSON config file
        dict(runs="100"),
        dict(generations=2.5),
        dict(pop_size=True),
        dict(init_interval_p1=(1.0,)),
        dict(mutation_sigma=float("inf")),
        dict(function=["smooth"]),
        # an integer beyond float's range is not a finite number
        dict(ridge_n=10**400),
        dict(init_interval_p1=(0, 10**400)),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
    ExperimentConfig()


def test_replace_checks_the_new_config():
    with pytest.raises(ConfigError, match=r"^runs must be >= 1, got 0$"):
        replace(ExperimentConfig(), runs=0)
    assert replace(ExperimentConfig(), runs=3).runs == 3


def test_config_cannot_be_changed():
    config = ExperimentConfig()
    with pytest.raises(FrozenInstanceError):
        config.runs = 0
    assert config.runs == 100


def test_config_from_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": {"runs": 3}}))
    assert ExperimentConfig.from_file(path).runs == 3
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match=f"^config file {re.escape(str(path))} is not "
                                          f"valid JSON: 'utf-8' codec can't decode"):
        ExperimentConfig.from_file(path)


def test_trajectory_seed_derivation():
    a = trajectory_seed(1, 0)
    b = trajectory_seed(1, 1)
    assert a.entropy == b.entropy == 1
    assert a.spawn_key == (0,) and b.spawn_key == (1,)
    sa = np.random.default_rng(a).random(4)
    sb = np.random.default_rng(b).random(4)
    assert not np.array_equal(sa, sb)
    assert np.array_equal(sa, np.random.default_rng(trajectory_seed(1, 0)).random(4))


def test_measure_series_cells_match_ci95():
    # every (run, generation, population, measure) cell holds its own value
    values = np.arange(2 * 11 * 2 * 3, dtype=float).reshape(2, 11, 2, 3) ** 1.5
    series = MeasureSeries.from_runs(values)
    assert series.values is values
    assert series.mean.shape == series.ci_lo.shape == series.ci_hi.shape == (11, 2, 3)
    for k, i, j in np.ndindex(11, len(POPULATIONS), len(MEASURES)):
        cell = (series.mean[k, i, j], series.ci_lo[k, i, j], series.ci_hi[k, i, j])
        assert cell == ci95(values[:, k, i, j])
        assert cell[1] < cell[0] < cell[2]


@settings(max_examples=200, deadline=None)
@given(runs=st.integers(1, 300), columns=st.integers(1, 4),
       offset=st.sampled_from([0.0, 1.0, -1e3, 1e6]),
       scale=st.sampled_from([1e-150, 1e-8, 1.0, 3.0, 1e8, 1e150]),
       seed=st.integers(0, 2**32 - 1))
def test_ci95_of_array_matches_each_column(runs, columns, offset, scale, seed):
    """ci95 over the runs axis equals the 1-D ci95 of every column, bit for bit.

    Run counts cross numpy's 8-way unrolled and 128-element pairwise blocks,
    where a sum over a strided axis would take a different order.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((runs, columns)) * rng.uniform(0.1, 1.0, columns)
    samples = (offset + noise) * scale
    mean, lo, hi = ci95(samples)
    assert mean.shape == lo.shape == hi.shape == (columns,)
    for c in range(columns):
        assert (mean[c], lo[c], hi[c]) == ci95(samples[:, c])


def test_run_batch_single_run_has_zero_width_ci():
    cfg = ExperimentConfig(runs=1, generations=2)
    series = run_batch(cfg)
    assert series.values.shape == (1, 3, 2, 3)
    assert np.array_equal(series.ci_lo, series.mean)
    assert np.array_equal(series.ci_hi, series.mean)

    # the batch mean of one run is that run's measures
    traj = run_trajectory(cfg, [trajectory_seed(cfg.master_seed, 0)])
    kind = cfg.objective_kind()
    objective = objective_side(kind, cfg.grid(), traj.tasks)
    sub = subjective_profiles(traj, 0, cfg.grid(), kind)
    t1, _ = measure_generation(objective, sub[2])
    assert series.mean[2, 0, 0] == t1[0]
    assert series.mean[2, 0, 2] == t1[2]
    assert series.values[..., 0, 1].tolist() == [
        [measure_generation(objective, s)[0][1] for s in sub]]


def test_run_batch_deterministic():
    cfg = ExperimentConfig(runs=4, generations=2)
    a = run_batch(cfg)
    b = run_batch(cfg)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.ci_lo, b.ci_lo)


def test_run_batch_blocks_do_not_change_results():
    cfg = ExperimentConfig(runs=6, generations=2)
    default = run_batch(cfg)
    for size in (1, 4):
        with mock.patch.object(experiment, "_block_runs", lambda config: size):
            assert np.array_equal(run_batch(cfg).values, default.values)


def test_block_size_at_the_defaults():
    # about 1 MiB of evolution arrays per block: 20,240 bytes a test-based run
    # holds at the defaults (its evaluator picks 6,336 of them), 14,082 a
    # compositional one, with one-byte indices for a population of 24
    for function in ("smooth", "crisp"):
        assert experiment._block_runs(ExperimentConfig(function=function)) == 51
    for function in ("ridge", "sinusoid"):
        assert experiment._block_runs(ExperimentConfig(function=function)) == 74
    assert experiment._block_runs(ExperimentConfig(generations=10_000)) == 1


# each layer a batch calls, by the module-global name the call looks up, so a
# tracer that wraps a function under that name sees every call
BATCH_CALLS = ((experiment, "run_trajectory"), (experiment, "measure_generation"),
               (landscape, "subjective_profile_test"), (landscape, "subjective_profile_comp"),
               (evolution, "draw_sample"), (evolution, "subjective_test"))


@pytest.mark.parametrize("function", ["smooth", "ridge"])
def test_run_batch_calls_each_layer_by_its_module_global_name(function):
    """Over two blocks: one evolution pass per block, one subjective profile
    and one measures call per chunk of a block's runs; a test-based run draws
    its evaluators once and its block scores them once per generation."""
    block = experiment._block_runs(ExperimentConfig(function=function))
    cfg = ExperimentConfig(function=function, runs=block + 1)
    with contextlib.ExitStack() as stack:
        mocks = {name: stack.enter_context(mock.patch.object(module, name,
                                                             wraps=getattr(module, name)))
                 for module, name in BATCH_CALLS}
        run_batch(cfg)
    test_based = cfg.objective_kind().test_based
    blocks, runs = 2, cfg.runs
    # the first block in whole chunks and a partial one, the second block's one run
    chunks = -(-block // experiment._chunk_runs(cfg)) + 1
    assert {name: m.call_count for name, m in mocks.items()} == {
        "run_trajectory": blocks, "measure_generation": chunks,
        "subjective_profile_test": chunks if test_based else 0,
        "subjective_profile_comp": 0 if test_based else chunks,
        "draw_sample": runs if test_based else 0,
        "subjective_test": blocks * (cfg.generations + 1) if test_based else 0}


@pytest.mark.parametrize("function", ["crisp", "smooth", "ridge", "sinusoid"])
def test_run_batch_memory_stays_flat_in_the_runs(function):
    """Beyond the batch's own measures, a batch's peak of traced allocations
    stays under two blocks' worth at 40 runs and at 400, however many blocks
    it takes."""
    run_batch(ExperimentConfig(function=function, runs=2))  # load what a batch loads once
    for runs in (40, 400):
        cfg = ExperimentConfig(function=function, runs=runs)
        tracemalloc.start()
        try:
            run_batch(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        measures = runs * (cfg.generations + 1) * len(POPULATIONS) * len(MEASURES) * 8
        assert peak - measures < 2 * experiment._BLOCK_BYTES, runs


@settings(max_examples=40, deadline=None)
@given(function=st.sampled_from(["crisp", "smooth", "ridge", "sinusoid"]),
       with_replacement=st.booleans(), runs=st.integers(1, 20),
       generations=st.integers(0, 3), block=st.none() | st.integers(1, 8),
       master_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_run_batch_blocks_move_no_number(function, with_replacement, runs, generations,
                                         block, master_seed, data):
    """Run r's measures equal its one-run pipeline bit for bit, whatever the
    blocks and the chunks of runs whose profiles and measures are taken in
    one call (None: the derived size, else a forced one, from one run to the
    whole block)."""
    cfg = ExperimentConfig(function=function, sample_with_replacement=with_replacement,
                           runs=runs, generations=generations, master_seed=master_seed)
    size = experiment._block_runs(cfg) if block is None else block
    chunk = data.draw(st.none() | st.integers(1, size), label="chunk")
    chunk = experiment._chunk_runs(cfg) if chunk is None else chunk
    with mock.patch.object(experiment, "_block_runs", lambda config: size), \
            mock.patch.object(experiment, "_chunk_runs", lambda config: chunk):
        series = run_batch(cfg)
    kind = cfg.objective_kind()
    for r in range(runs):
        traj = run_trajectory(cfg, [trajectory_seed(master_seed, r)])
        alone = measure_generation(objective_side(kind, cfg.grid(), traj.tasks),
                                   subjective_profiles(traj, 0, cfg.grid(), kind))
        assert np.array_equal(series.values[r], alone)


def test_run_batch_per_run_hook_sees_runs_in_order():
    cfg = ExperimentConfig(runs=5, generations=1)
    seen = []
    run_batch(cfg, per_run=lambda r, profiles: seen.append((r, len(profiles))))
    assert seen == [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2)]


def test_run_batch_hook_gets_the_measured_profiles():
    cfg = ExperimentConfig(function="ridge", runs=2, generations=2)
    seen = {}
    series = run_batch(cfg, per_run=lambda r, sub: seen.setdefault(r, sub))
    kind = cfg.objective_kind()
    assert sorted(seen) == [0, 1]
    for r, sub in seen.items():
        traj = run_trajectory(cfg, [trajectory_seed(cfg.master_seed, r)])
        assert sub.shape == (cfg.generations + 1, 2, cfg.grid_points)
        assert np.array_equal(sub, subjective_profiles(traj, 0, cfg.grid(), kind))
        objective = objective_side(kind, cfg.grid(), traj.tasks)
        # every measure of every generation, bit for bit
        assert np.array_equal(measure_generation(objective, sub), series.values[r])


def fail_runs(failing, error=ValueError("boom")):
    """`run_trajectory` that raises `error` for a block holding a run of `failing`."""
    def run(config, seeds):
        if any(seed.spawn_key[0] in failing for seed in seeds):
            raise error
        return run_trajectory(config, seeds)

    return run


# runs to a block at the defaults: run BLOCK + 1 is in the second block
BLOCK = experiment._block_runs(ExperimentConfig())


@pytest.mark.parametrize("runs, failing, workers", [
    pytest.param(4, 2, 1, id="1"),
    pytest.param(BLOCK + 3, BLOCK + 1, 1, id="second-block"),
    # slices (0-1, 2-3) and the two halves of BLOCK + 3 runs: the failing
    # run is the child's
    pytest.param(4, 2, 2, id="1-forked"),
    pytest.param(BLOCK + 3, BLOCK + 1, 2, id="second-block-forked"),
])
def test_run_batch_names_failing_run_and_seed(monkeypatch, two_cpus, runs, failing, workers):
    monkeypatch.setattr(experiment, "run_trajectory", fail_runs({failing}))
    cfg = ExperimentConfig(runs=runs)
    expected = f"run {failing} failed (seed = SeedSequence(1, spawn_key=({failing},))): boom"
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        run_batch(cfg, workers=workers)
    assert_no_child_process()


@pytest.mark.parametrize("cpus, failing, named", [
    pytest.param(2, {1, 8}, 1, id="both-slices"),
    # slices 0-3, 4-7 and 8-11: both children fail, the first is read first
    pytest.param(3, {9, 5}, 5, id="both-children"),
])
def test_run_batch_names_first_failure_in_run_order(monkeypatch, cpus, failing, named):
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiment, "run_trajectory", fail_runs(failing))
    expected = f"run {named} failed (seed = SeedSequence(1, spawn_key=({named},))): boom"
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        run_batch(ExperimentConfig(runs=12), workers=cpus)
    assert_no_child_process()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_names_the_run_whose_measures_overflow(two_cpus, workers):
    """A valid config whose subjective profiles are too large for dist's sum
    of squares: the batch names run 0 instead of measuring inf and nan."""
    cfg = ExperimentConfig(function="ridge", ridge_n=1e200, runs=3)
    expected = ("run 0 failed (seed = SeedSequence(1, spawn_key=(0,))): "
                "overflow encountered in matmul")
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        run_batch(cfg, workers=workers)
    assert_no_child_process()


def test_run_batch_names_the_range_of_a_child_that_dies(monkeypatch, two_cpus):
    parent = os.getpid()

    def die_in_child(config, seeds):
        if os.getpid() != parent:
            os._exit(3)
        return run_trajectory(config, seeds)

    monkeypatch.setattr(experiment, "run_trajectory", die_in_child)
    expected = "runs 6-11: the worker process ended without a result (exit code 3)"
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        run_batch(ExperimentConfig(runs=12), workers=2)
    assert_no_child_process()


def test_interrupt_in_the_parents_slice_kills_the_children(monkeypatch, two_cpus):
    """A `KeyboardInterrupt` in this process's slice propagates as itself, and
    the child, still busy, is killed and reaped rather than waited for."""
    parent = os.getpid()

    def interrupted(config, seeds):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return run_trajectory(config, seeds)

    monkeypatch.setattr(experiment, "run_trajectory", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_batch(ExperimentConfig(runs=4), workers=2)
    assert time.perf_counter() - start < 30
    assert_no_child_process()


@pytest.mark.parametrize("size", [0, 3 << 20], ids=["empty", "beyond-the-pipe-buffer"])
def test_forked_child_report_round_trips(size):
    """A report is read in full while the child writes it, so one larger
    than the 1 MiB pipe buffer comes back whole, and so does an empty one."""
    report = np.random.default_rng(size).bytes(size)
    pid, pipe = experiment._fork_child(lambda: report)
    assert experiment._reap_child(pid, pipe, "ended") == report
    assert_no_child_process()


def test_forked_child_failure_is_raised_with_its_text():
    def fail():
        raise ValueError("boom: run 7")

    pid, pipe = experiment._fork_child(fail)
    with pytest.raises(RuntimeError, match=r"^boom: run 7$"):
        experiment._reap_child(pid, pipe, "ended")
    assert_no_child_process()


def test_forked_child_that_exits_without_a_report_is_named_with_its_exit_code():
    pid, pipe = experiment._fork_child(lambda: os._exit(3))
    with pytest.raises(RuntimeError, match=r"^the child ended \(exit code 3\)$"):
        experiment._reap_child(pid, pipe, "the child ended")
    assert_no_child_process()


def test_killed_forked_child_is_named_with_the_signal():
    pid, pipe = experiment._fork_child(lambda: time.sleep(60) or b"")
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=r"^the child ended \(exit code -9\)$"):
        experiment._reap_child(pid, pipe, "the child ended")
    assert_no_child_process()


def test_sigint_to_a_forked_child_does_not_stop_its_report():
    """A terminal's Ctrl-C reaches the children too; they leave the
    interrupt to this process and report as usual."""
    ready_read, ready_write = os.pipe()
    go_read, go_write = os.pipe()

    def wait_for_go():
        os.write(ready_write, b".")
        os.read(go_read, 1)  # the SIGINT arrives while the child waits here
        return b"done"

    try:
        pid, pipe = experiment._fork_child(wait_for_go)
        os.read(ready_read, 1)
        os.kill(pid, signal.SIGINT)
        time.sleep(0.1)
        os.write(go_write, b".")
        assert experiment._reap_child(pid, pipe, "ended") == b"done"
    finally:
        for fd in (ready_read, ready_write, go_read, go_write):
            os.close(fd)
    assert_no_child_process()


def test_refused_fork_closes_the_report_pipe(monkeypatch):
    def refuse():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    fds = Path("/proc/self/fd")
    before = len(list(fds.iterdir())) if fds.is_dir() else None
    with pytest.raises(OSError, match="^fork refused$"):
        experiment._fork_child(lambda: b"")
    if before is not None:
        assert len(list(fds.iterdir())) == before


@settings(max_examples=60, deadline=None)
@given(runs=st.integers(1, 2_000), workers=st.integers(1, 10_000), cpus=st.integers(1, 64))
def test_slices_cut_runs_in_order_up_to_the_cpu_cap(runs, workers, cpus):
    with mock.patch.object(experiment, "_usable_cpus", lambda: cpus):
        slices = experiment._slices(runs, workers)
    assert len(slices) == min(workers, runs, cpus)
    assert [r for part in slices for r in part] == list(range(runs))
    assert max(map(len, slices)) - min(map(len, slices)) <= 1


def test_slices_at_the_edges(monkeypatch, two_cpus):
    assert experiment._slices(100, 10_000) == [range(0, 50), range(50, 100)]
    assert experiment._slices(1, 2) == [range(0, 1)]
    assert experiment._slices(7, 1) == [range(0, 7)]
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 64)
    assert experiment._slices(3, 10_000) == [range(0, 1), range(1, 2), range(2, 3)]


def test_run_batch_forks_once_per_extra_slice(monkeypatch, two_cpus):
    """10,000 workers on two CPUs fork one child (the stub refuses a second),
    give the serial values and leave no process behind."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        if len(forks) > 1:
            raise OSError("a second fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    cfg = ExperimentConfig(runs=6, generations=2)
    values = run_batch(cfg, workers=10_000).values
    assert forks == [os.getpid()]
    assert np.array_equal(values, run_batch(cfg).values)
    assert_no_child_process()


@pytest.mark.parametrize("runs, workers", [
    pytest.param(1, 2, id="one-run"),
    pytest.param(4, 1, id="one-worker"),
])
def test_run_batch_forks_nothing_for_one_slice_or_a_hook(monkeypatch, two_cpus, runs, workers):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = ExperimentConfig(runs=runs, generations=1)
    assert run_batch(cfg, workers=workers).values.shape == (runs, 2, 2, 3)


def test_run_batch_calls_the_hook_in_the_process_that_measures_the_run(tmp_path, two_cpus):
    """At `workers=2` each slice calls the hook for its own runs, once per
    run and in ascending order, in its own process: this one for the first
    half, one forked child for the second."""
    def hook(r, profiles):
        with open(tmp_path / f"run_{r}", "x") as fp:  # a second call for r fails
            fp.write(str(os.getpid()))
        with open(tmp_path / f"calls_{os.getpid()}", "a") as fp:
            fp.write(f"{r}\n")

    cfg = ExperimentConfig(runs=6, generations=1)
    series = run_batch(cfg, per_run=hook, workers=2)
    assert_no_child_process()
    assert np.array_equal(series.values, run_batch(cfg).values)
    pids = [int((tmp_path / f"run_{r}").read_text()) for r in range(cfg.runs)]
    assert pids[:3] == [os.getpid()] * 3
    assert pids[3:] == [pids[3]] * 3 and pids[3] != os.getpid()
    for pid, runs in ((pids[0], [0, 1, 2]), (pids[3], [3, 4, 5])):
        assert (tmp_path / f"calls_{pid}").read_text().split() == [str(r) for r in runs]


def test_run_batch_runs_serially_without_fork(monkeypatch, two_cpus):
    monkeypatch.delattr(os, "fork")
    cfg = ExperimentConfig(runs=4, generations=1)
    assert np.array_equal(run_batch(cfg, workers=2).values, run_batch(cfg).values)


def test_run_batch_rejects_fewer_than_one_worker():
    with pytest.raises(ValueError, match="workers must be an integer >= 1, got 0"):
        run_batch(ExperimentConfig(runs=2, generations=1), workers=0)


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("workers", [2.5, 2.0, True, "2", None])
def test_run_batch_rejects_a_worker_count_that_is_not_an_integer(monkeypatch, cpus, workers):
    """Whatever the CPU count, before any run or fork."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    expected = f"workers must be an integer >= 1, got {workers!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        run_batch(ExperimentConfig(runs=4, generations=1), workers=workers)


def test_run_batch_names_run_whose_hook_fails():
    def hook(r, states):
        if r == 1:
            raise OSError("disk full")

    expected = "run 1 failed (seed = SeedSequence(1, spawn_key=(1,))): disk full"
    with pytest.raises(RuntimeError, match=re.escape(expected)):
        run_batch(ExperimentConfig(runs=3, generations=1), per_run=hook)


def test_run_batch_calls_hook_once_per_run_up_to_the_failure():
    # a hook that keeps failing once it has failed, like writes to a full
    # disk, is still blamed on the run that failed first
    seen = []

    def hook(r, profiles):
        seen.append(r)
        if 3 in seen:
            raise OSError("writer quit")

    expected = "run 3 failed (seed = SeedSequence(1, spawn_key=(3,))): writer quit"
    with pytest.raises(RuntimeError, match=re.escape(expected)):
        run_batch(ExperimentConfig(function="ridge", runs=12), per_run=hook)
    assert seen == [0, 1, 2, 3]


def test_run_batch_numeric_failure_leaves_one_hook_call_per_earlier_run(monkeypatch):
    failing = BLOCK + 1  # the second run of the second block
    monkeypatch.setattr(experiment, "run_trajectory",
                        fail_runs({failing}, FloatingPointError("overflow encountered in multiply")))
    cfg = ExperimentConfig(runs=BLOCK + 3)
    assert experiment._block_runs(cfg) == BLOCK
    seen = []
    expected = (f"run {failing} failed (seed = SeedSequence(1, spawn_key=({failing},))): "
                "overflow encountered in multiply")
    with pytest.raises(RuntimeError, match=re.escape(expected)):
        run_batch(cfg, per_run=lambda r, profiles: seen.append(r))
    # the first block's runs once each, then run BLOCK, found good by the retry
    assert seen == list(range(failing))


@pytest.mark.parametrize("module, name", [(experiment, "run_trajectory"),
                                          (experiment, "measure_generation")])
def test_run_batch_keeps_going_when_only_the_whole_pass_fails(monkeypatch, module, name):
    """A block or chunk whose one pass fails but whose runs succeed one at a
    time, as when only the larger pass runs out of memory, gives the same
    series and hook calls as a batch whose passes succeed."""
    cfg = ExperimentConfig(function="ridge", runs=9, generations=2)
    seen = []
    expected = run_batch(cfg, per_run=lambda r, profiles: seen.append(r))
    assert seen == list(range(cfg.runs))
    original = getattr(module, name)

    def fail_when_many(config_or_objective, runs, **kwargs):
        if len(runs) > 1:
            raise MemoryError
        return original(config_or_objective, runs, **kwargs)

    monkeypatch.setattr(module, name, fail_when_many)
    seen.clear()
    series = run_batch(cfg, per_run=lambda r, profiles: seen.append(r))
    assert np.array_equal(series.values, expected.values)
    assert seen == list(range(cfg.runs))


def test_run_batch_names_the_mid_chunk_run_whose_measures_fail(monkeypatch):
    """A chunk is measured in one call; when that call fails, its runs are
    measured again one at a time, so the error names the failing run and the
    hook has seen each earlier run once."""
    cfg = ExperimentConfig(function="ridge", runs=12)
    assert experiment._chunk_runs(cfg) == 4  # chunks 0-3, 4-7 and 8-11
    failing, kind = 6, cfg.objective_kind()
    bad = subjective_profiles(run_trajectory(cfg, [trajectory_seed(1, failing)]), 0,
                              cfg.grid(), kind)
    calls = []

    def measure(objective, sub, **kwargs):
        calls.append(len(sub))
        if any(np.array_equal(rows, bad) for rows in sub):
            raise ValueError("boom")
        return measure_generation(objective, sub, **kwargs)

    monkeypatch.setattr(experiment, "measure_generation", measure)
    seen = []
    expected = f"run {failing} failed (seed = SeedSequence(1, spawn_key=({failing},))): boom"
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        run_batch(cfg, per_run=lambda r, profiles: seen.append(r))
    assert calls == [4, 4, 1, 1, 1]
    assert seen == list(range(failing))


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_checks_no_config(monkeypatch, two_cpus, workers):
    """A batch takes its config as checked when it was made: neither this
    process nor a forked child checks it again."""
    config = ExperimentConfig(runs=100)
    calls, forks = [], []

    def check(self):
        calls.append(os.getpid())
        raise AssertionError("config checked inside the batch")

    fork = os.fork
    monkeypatch.setattr(ExperimentConfig, "__post_init__", check)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert run_batch(config, workers=workers).values.shape[0] == 100
    assert calls == [] and len(forks) == workers - 1
    assert_no_child_process()


def test_run_batch_validates_config_first():
    """The config is checked when it is made, so no bad one reaches a batch."""
    with pytest.raises(ConfigError):
        run_batch(ExperimentConfig(runs=0))

