"""Batch orchestration: many independent coevolutionary runs, aggregated
per generation into means with 95% confidence intervals.

Every run r of a batch draws its RNG from
``numpy.random.SeedSequence(master_seed, spawn_key=(r,))``, so a batch is
fully determined by (config, master_seed), run streams are independent,
and results do not depend on how runs are grouped into blocks or split
across forked worker processes.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import numbers
import os
import signal
from dataclasses import dataclass, fields
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .evolution import Trajectories, run_bytes, run_trajectory
from .landscape import (BHATT_MODES, ObjectiveSide, make_grid, measure_generation,
                        objective_profile, objective_side, subjective_profiles)
from .substrate import (ObjectiveKind, Task, eval_objective_shared,
                        eval_objective_test, kind_from_name)

POPULATIONS = ("P1", "P2")
MEASURES = ("dist", "kld", "bhatt")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# config file sections -> flat ExperimentConfig field names
_SECTIONS = {
    "substrate": ("function", "ridge_n"),
    "evolution": ("pop_size", "sample_size", "tournament_size", "mutation_prob",
                  "mutation_sigma", "generations", "init_interval_p1",
                  "init_interval_p2", "sample_with_replacement"),
    "interaction": ("task_p1", "task_p2"),
    "landscape": ("grid_lo", "grid_hi", "grid_points", "dist_grid_factor",
                  "bhatt_mode"),
    "experiment": ("runs", "master_seed", "snapshots"),
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond float's range
        return False


# field annotation -> (type check, what the error message asks for, the plain
# form a value that passes is kept in)
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string", str),
    "bool": (lambda v: isinstance(v, bool), "true or false", bool),
    "int": (_is_int, "an integer", int),
    "float": (_is_real, "a finite number", float),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null",
                     lambda v: None if v is None else float(v)),
    "tuple[float, float] | None": (
        lambda v: v is None or (isinstance(v, (tuple, list)) and len(v) == 2
                                and all(_is_real(x) for x in v)),
        "a [lo, hi] pair of finite numbers or null",
        lambda v: None if v is None else (float(v[0]), float(v[1]))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch needs, in one serializable record.

    None for an init interval or grid bound means "use the substrate's
    default": intervals (0, n) and grid (-n/4, 5n/4) for the ridge function,
    intervals (-3, 3) and grid (-3, 3) for everything else.

    A config is checked when it is made, by the constructor, `from_dict`,
    `from_file` or `dataclasses.replace` alike, and cannot be changed
    afterwards: a config that exists is valid.
    """

    # substrate
    function: str = "smooth"
    ridge_n: float = 8.0
    # evolution
    pop_size: int = 24
    sample_size: int = 12
    tournament_size: int = 2
    mutation_prob: float = 0.5
    mutation_sigma: float = 0.1
    generations: int = 10
    init_interval_p1: tuple[float, float] | None = None
    init_interval_p2: tuple[float, float] | None = None
    sample_with_replacement: bool = False
    # interaction (default: competitive, P1 descends / P2 climbs)
    task_p1: str = "minimize"
    task_p2: str = "maximize"
    # landscape / measures
    grid_lo: float | None = None
    grid_hi: float | None = None
    grid_points: int = 301
    dist_grid_factor: bool = True
    bhatt_mode: str = "hellinger"
    # experiment
    runs: int = 100
    master_seed: int = 1
    snapshots: bool = False

    @classmethod
    def from_dict(cls, data: dict, *, master_seed: int | None = None) -> "ExperimentConfig":
        """Build from a sectioned mapping; unknown sections or keys are errors.
        `master_seed`, if given, replaces the mapping's before the one
        check."""
        kwargs = {}
        for section, content in data.items():
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown config section {section!r}; expected one of {sorted(_SECTIONS)}"
                )
            if not isinstance(content, dict):
                raise ConfigError(f"config section {section!r} must be a mapping")
            for key, value in content.items():
                if key not in _SECTIONS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section {section!r}; "
                        f"expected one of {sorted(_SECTIONS[section])}"
                    )
                kwargs[key] = value
        if master_seed is not None:
            kwargs["master_seed"] = master_seed
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, *, master_seed: int | None = None) -> "ExperimentConfig":
        """Load a JSON config file (see README for the exact keys), with
        `master_seed`, if given, in place of the file's."""
        with open(path, "r", encoding="utf-8") as fp:
            try:
                data = json.load(fp)
            except ValueError as e:  # not UTF-8 (UnicodeDecodeError) or not JSON
                raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
        return cls.from_dict(data, master_seed=master_seed)

    def to_dict(self) -> dict:
        """Sectioned mapping mirroring the config file layout."""
        return {section: {k: getattr(self, k) for k in keys}
                for section, keys in _SECTIONS.items()}

    def __post_init__(self) -> None:
        """Raise one ConfigError naming every problem with the values.

        Types are checked first, since the range checks compare values, and
        each value that passes is kept in its plain form from then on.
        """
        problems = []
        for f in fields(self):
            is_valid, wanted, plain = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if is_valid(value):
                object.__setattr__(self, f.name, plain(value))
            else:
                problems.append(f"{f.name} must be {wanted}, got {value!r}")
        if problems:
            raise ConfigError("; ".join(problems))

        try:
            self.objective_kind()
        except ValueError as e:
            problems.append(str(e))
        for name in ("task_p1", "task_p2"):
            if getattr(self, name) not in [task.value for task in Task]:
                problems.append(
                    f"{name} must be 'maximize' or 'minimize', got {getattr(self, name)!r}"
                )
        for name, least in (("pop_size", 1), ("tournament_size", 1), ("generations", 0),
                            ("grid_points", 2), ("runs", 1), ("master_seed", 0)):
            if getattr(self, name) < least:
                problems.append(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (1 <= self.sample_size <= self.pop_size):
            problems.append(
                f"sample_size must be in 1..pop_size, got {self.sample_size} "
                f"with pop_size={self.pop_size}"
            )
        if not (0.0 <= self.mutation_prob <= 1.0):
            problems.append(f"mutation_prob must be in [0, 1], got {self.mutation_prob}")
        if not (self.mutation_sigma > 0):
            problems.append(f"mutation_sigma must be positive, got {self.mutation_sigma}")
        for name, (lo, hi) in (("init interval for P1", self.init_interval("P1")),
                               ("init interval for P2", self.init_interval("P2")),
                               ("grid bounds", self._grid_bounds())):
            if not (lo < hi and math.isfinite(hi - lo)):
                problems.append(f"{name} must satisfy lo < hi with a finite span "
                                f"hi - lo, got ({lo}, {hi})")
        if self.bhatt_mode not in BHATT_MODES:
            problems.append(f"bhatt_mode must be one of {BHATT_MODES}, got {self.bhatt_mode!r}")
        if problems:
            raise ConfigError("; ".join(problems))
        problems = self._substrate_problems()
        if problems:
            raise ConfigError("; ".join(problems))

    def _substrate_problems(self) -> list[str]:
        """Objective values every run needs, checked before any starts: both
        objective profiles finite and not flat on the grid (the measures
        normalize by their range), and finite fitness at the init intervals'
        endpoints (paired with the other interval's, for compositional kinds)."""
        kind, grid = self.objective_kind(), self.grid()
        where = f"on the grid ({grid[0]}, {grid[-1]})"
        problems = []
        with np.errstate(over="raise", invalid="raise"):
            for (p, q), task in zip((("P1", "P2"), ("P2", "P1")), self.tasks()):
                profile = _finite(objective_profile, kind, grid, task)
                if profile is None:
                    problems.append(f"objective profile for {p} overflows {where}")
                elif profile.max() == profile.min():
                    problems.append(f"objective profile for {p} is flat {where}")
                x, y = np.array(self.init_interval(p)), np.array(self.init_interval(q))
                ends = (_finite(eval_objective_test, kind, x) if kind.test_based
                        else _finite(eval_objective_shared, kind, x[:, None], y))
                if ends is None:
                    problems.append(f"init interval for {p} {self.init_interval(p)} gives "
                                    f"non-finite fitness")
        return problems

    def objective_kind(self) -> ObjectiveKind:
        return kind_from_name(self.function, self.ridge_n)

    def tasks(self) -> tuple[Task, Task]:
        """The tasks of P1 and P2."""
        return Task(self.task_p1), Task(self.task_p2)

    def init_interval(self, population: str) -> tuple[float, float]:
        """Initialization interval of population "P1" or "P2", with the
        substrate default in place of None."""
        interval = self.init_interval_p1 if population == "P1" else self.init_interval_p2
        if interval is not None:
            return interval
        if self.function == "ridge":
            return (0.0, self.ridge_n)
        return (-3.0, 3.0)

    def _grid_bounds(self) -> tuple[float, float]:
        if self.function == "ridge":
            default = (-0.25 * self.ridge_n, 1.25 * self.ridge_n)
        else:
            default = (-3.0, 3.0)
        lo = default[0] if self.grid_lo is None else self.grid_lo
        hi = default[1] if self.grid_hi is None else self.grid_hi
        return lo, hi

    def grid(self) -> np.ndarray:
        lo, hi = self._grid_bounds()
        return make_grid(lo, hi, self.grid_points)


def _finite(evaluate, *args) -> np.ndarray | None:
    """evaluate(*args), or None where it overflows or gives a non-finite value."""
    try:
        values = evaluate(*args)
    except FloatingPointError:
        return None
    return values if np.all(np.isfinite(values)) else None


def trajectory_seed(master_seed: int, run_index: int) -> np.random.SeedSequence:
    """Seed for run r of a batch: SeedSequence(master_seed, spawn_key=(r,))."""
    return np.random.SeedSequence(master_seed, spawn_key=(run_index,))


@functools.cache
def _t975_table() -> tuple[float, ...]:
    """`scipy.special.stdtrit(df, 0.975)` at index df - 1, for df from 1 to
    the table's length, as written by tools/tabulate_t975.py."""
    text = importlib.resources.files(__package__).joinpath("t975.txt").read_text("ascii")
    return tuple(float(line) for line in text.split())


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with `df` degrees of freedom: the
    table's value, or scipy's beyond it (both are `stdtrit`, bit for bit)."""
    table = _t975_table()
    if df <= len(table):
        return table[df - 1]
    # scipy.special takes longer to import than the rest of the package
    from scipy.special import stdtrit

    return stdtrit(df, 0.975)


def ci95(samples):
    """Mean and 95% confidence interval of the mean (Student-t) over the first
    axis: three floats for a 1-D sample, three arrays for a `(runs, ...)` array.

    The runs axis is moved last and made contiguous first, so every column is
    summed in the same order as its own 1-D sample. A single sample gives a
    zero-width interval by convention.
    """
    a = np.ascontiguousarray(np.moveaxis(np.asarray(samples, dtype=float), 0, -1))
    n = a.shape[-1]
    if n == 0:
        raise ValueError("ci95 needs at least one sample")
    mean = a.mean(axis=-1)
    if n == 1:
        return mean, mean.copy(), mean.copy()
    half = _t975(n - 1) * a.std(axis=-1, ddof=1) / np.sqrt(n)
    return mean, mean - half, mean + half


@dataclass
class MeasureSeries:
    """Per-generation measure statistics for both populations of a batch.

    `values` holds the raw per-run measures, shape (runs, generations+1, 2, 3);
    `mean`, `ci_lo` and `ci_hi` hold their mean and 95% interval over the runs,
    shape (generations+1, 2, 3). The last two axes follow POPULATIONS and
    MEASURES, as in `measure_generation`.
    """

    values: np.ndarray
    mean: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray

    @classmethod
    def from_runs(cls, values: np.ndarray) -> "MeasureSeries":
        """Aggregate per-run measures, shape (runs, generations+1, 2, 3)."""
        return cls(values, *ci95(values))


# A block of runs is one `run_trajectory` pass. It holds about this many bytes
# in the arrays that pass keeps for its runs (`run_bytes`: 51 test-based or 74
# compositional runs at the defaults). Its runs' profiles and measures go a
# chunk of runs at a time, about _CHUNK_BYTES of subjective profiles (4 runs at
# the defaults), so a chunk's temporaries stay small next to the block and
# memory stays flat however many runs a batch has.
_BLOCK_BYTES = 1 << 20
_CHUNK_BYTES = 1 << 18


def _block_runs(config: ExperimentConfig) -> int:
    return max(1, _BLOCK_BYTES // run_bytes(config))


def _chunk_runs(config: ExperimentConfig) -> int:
    profile_bytes = (config.generations + 1) * len(POPULATIONS) * config.grid_points * 8
    return max(1, _CHUNK_BYTES // profile_bytes)


def _run_failed(config: ExperimentConfig, r: int, error: Exception) -> RuntimeError:
    return RuntimeError(f"run {r} failed (seed = SeedSequence("
                        f"{config.master_seed}, spawn_key=({r},))): {error}")


def _in_one_pass(config: ExperimentConfig, runs: range,
                 compute: Callable[[range], object]) -> Iterator[tuple[range, object]]:
    """(part, compute(part)) for parts of `runs` that cover it in run order.

    `runs` is computed in one pass, which is the only part. `compute` has no
    side effects, so if that pass fails the runs are computed again one at a
    time, up to the run that fails, which is then named.
    """
    try:
        result = compute(runs)
    except Exception:
        for r in runs:
            part = range(r, r + 1)
            try:
                result = compute(part)
            except Exception as e:
                raise _run_failed(config, r, e) from e
            yield part, result
    else:
        yield runs, result


def _evolve(config: ExperimentConfig, runs: range) -> Trajectories:
    return run_trajectory(config, [trajectory_seed(config.master_seed, r) for r in runs])


def _measure_chunk(config: ExperimentConfig, objective: ObjectiveSide, grid: np.ndarray,
                   traj: Trajectories, first: int, runs: range) -> tuple[np.ndarray, np.ndarray]:
    """Subjective profiles and measures of `runs`, which `traj` holds from
    its run `first` on."""
    with np.errstate(over="raise", invalid="raise"):
        sub = subjective_profiles(traj, slice(runs.start - first, runs.stop - first), grid,
                                  config.objective_kind())
        return sub, measure_generation(objective, sub, bhatt_mode=config.bhatt_mode)


def _measure_block(config: ExperimentConfig, objective: ObjectiveSide, runs: range,
                   per_run: Callable[[int, np.ndarray], None] | None,
                   out: np.ndarray) -> None:
    """Measures of each run of a block into `out`, shape (len(runs),
    generations+1, 2, 3).

    The block is evolved in one pass, and its runs' subjective profiles are
    built and measured against `objective` a chunk of runs at a time, each
    chunk in one pass; a failing pass is done again one run at a time to
    name the failing run. Each measured run's subjective profiles, its row
    of the chunk's, are then handed to `per_run` in run order, so a failure
    there names its run directly.
    """
    grid, size = config.grid(), _chunk_runs(config)
    for evolved, traj in _in_one_pass(config, runs, functools.partial(_evolve, config)):
        measure = functools.partial(_measure_chunk, config, objective, grid, traj,
                                    evolved.start)
        for start in range(0, len(evolved), size):
            for part, (sub, values) in _in_one_pass(config, evolved[start:start + size],
                                                    measure):
                out[part.start - runs.start:part.stop - runs.start] = values
                if per_run is not None:
                    for r, run_sub in zip(part, sub):
                        try:
                            per_run(r, run_sub)
                        except Exception as e:
                            raise _run_failed(config, r, e) from e


def _measure_slice(config: ExperimentConfig, objective: ObjectiveSide, runs: range,
                   per_run: Callable[[int, np.ndarray], None] | None) -> np.ndarray:
    """Measures of the runs `runs`, shape (len(runs), generations+1, 2, 3),
    computed block by block from the slice's first run, with the hook
    `per_run`."""
    values = np.empty((len(runs), config.generations + 1, len(POPULATIONS), len(MEASURES)))
    size = _block_runs(config)
    for start in range(0, len(runs), size):
        # one block's trajectories at a time: _measure_block drops them on return
        _measure_block(config, objective, runs[start:start + size], per_run,
                       values[start:start + size])
    return values


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slices(runs: int, workers: int) -> list[range]:
    """The runs cut into `min(workers, runs, usable CPUs)` contiguous slices
    whose sizes differ by at most one, in run order."""
    count = min(workers, runs, _usable_cpus())
    bounds = [runs * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fork_child(work: Callable[[], bytes]) -> tuple[int, BinaryIO]:
    """Fork a child that runs `work()`, reports on a pipe and leaves by
    `os._exit`: b"+" and the bytes `work` returns, or b"-" and its failure's
    text. Returns the child's pid and the pipe's read end, for `_reap_child`."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child: leaves with os._exit, never returns
        code = 1
        try:
            # a terminal's Ctrl-C reaches the parent too, which ends the child
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(read)
            try:
                report = b"+" + work()
            except Exception as e:
                report = b"-" + str(e).encode()
            with open(write, "wb") as pipe:
                pipe.write(report)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _reap_child(pid: int, pipe: BinaryIO, ended: str) -> bytes:
    """Read a `_fork_child` child's report from `pipe` and reap the child:
    the bytes its work returned, or its failure raised with its text. A
    child that left no report is named by `ended` and its exit code."""
    with pipe:
        report = pipe.read()
    status = os.waitpid(pid, 0)[1]
    if status == 0 and report[:1] == b"-":
        raise RuntimeError(report[1:].decode(errors="replace"))
    if status == 0 and report[:1] == b"+":
        return report[1:]
    raise RuntimeError(f"{ended} (exit code {os.waitstatus_to_exitcode(status)})")


def _forked_measures(config: ExperimentConfig, objective: ObjectiveSide, slices: list[range],
                     per_run: Callable[[int, np.ndarray], None] | None) -> np.ndarray:
    """Measures of every run: slice 0 in this process and each other slice in
    a forked child, each with the hook `per_run`, joined in run order, so a
    one-slice list forks nothing. The first failure in run order is raised.
    Every child is reaped before this returns or raises; on any exception
    here, interrupts included, the children left are killed."""
    children = {}  # pid -> (runs, pipe) of each child not yet reaped
    try:
        for runs in slices[1:]:
            # the child runs this at once, so `runs` is still this slice's
            pid, pipe = _fork_child(
                lambda: _measure_slice(config, objective, runs, per_run).tobytes())
            children[pid] = (runs, pipe)
        parts = [_measure_slice(config, objective, slices[0], per_run)]
        for pid, (runs, pipe) in list(children.items()):
            shape = (len(runs), config.generations + 1, len(POPULATIONS), len(MEASURES))
            ended = f"runs {runs.start}-{runs.stop - 1}: the worker process ended without a result"
            try:
                report = _reap_child(pid, pipe, ended)
            except RuntimeError:
                del children[pid]  # reaped: only an interrupt leaves it to kill
                raise
            del children[pid]
            if len(report) != 8 * math.prod(shape):
                raise RuntimeError(f"{ended} (exit code 0)")
            parts.append(np.frombuffer(report, np.float64).reshape(shape))
        return np.concatenate(parts)
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already


def run_batch(config: ExperimentConfig,
              per_run: Callable[[int, np.ndarray], None] | None = None,
              workers: int = 1) -> MeasureSeries:
    """Run `config.runs` independent trajectories and aggregate their measures.

    Runs evolve in blocks, one `run_trajectory` pass each, sized by the
    arrays that pass holds per run; every run draws from its own generator,
    so the series does not depend on the blocks. The objective side is built
    once per batch, and the runs' subjective profiles are built and measured
    against it a chunk of a few runs at a time, each run's the same bytes as
    on its own.

    The runs are cut into `min(workers, runs, usable CPUs)` contiguous
    slices, or into one slice where there is no `os.fork` (POSIX only): the
    first is measured in this process and each other one in a forked child,
    and the slices are joined in run order, so the series is the same bytes
    for any `workers`. `config` was checked when it was made, so the batch
    checks nothing of it again.

    `per_run(r, sub)` is an optional hook (e.g. snapshot writing) that
    receives run r's measured subjective profiles, shape (generations+1, 2,
    grid points) as `subjective_profiles` gives them, after that run's
    measures succeed. It is called once per run, in run order within its
    slice, in the process that measures the run, so a forked slice's calls
    act in that child: what the hook leaves in this process's memory is
    left only by slice 0's runs. A slice stops at its first failure, and the
    other slices' hooks may by then have seen later runs.

    Any failing run aborts the batch with its run index and seed derivation
    reported; across slices, the first failure in run order. A block whose
    evolution pass fails is evolved again, and a chunk whose profiles or
    measures fail is measured again, one run at a time to find the run; a
    hook call that fails names its run directly.
    """
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    # every run of the batch is measured against the same objective side
    objective = objective_side(config.objective_kind(), config.grid(), config.tasks(),
                               grid_factor=config.dist_grid_factor)
    slices = _slices(config.runs, workers) if hasattr(os, "fork") else [range(config.runs)]
    return MeasureSeries.from_runs(_forked_measures(config, objective, slices, per_run))
