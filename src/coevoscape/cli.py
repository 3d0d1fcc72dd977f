"""Command-line entry point.

Three subcommands, all driven by a JSON config file:

    simulate    run one trajectory; write a per-generation summary
                (trajectory.csv) and, on request, landscape snapshots
    landscape   write landscape snapshot files for chosen generations
    measures    run a full batch; write the aggregated measure series

CSV is the primary output; --format json additionally writes a .json
mirror next to every CSV. Flags override config-file values, which
override built-in defaults. Single-trajectory commands seed their run
exactly like run 0 of a batch with the same master seed, so `simulate
--seed S` reproduces the first run of `measures --seed S`.

Exit code 0 means every requested file was written and re-read cleanly;
any failure prints a message to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .evolution import Trajectories, run_trajectory
from .experiment import ConfigError, ExperimentConfig, run_batch, trajectory_seed
from .landscape import run_profiles
from .substrate import Task

TRAJECTORY_HEADER = ("generation", "best_p1", "fitness_p1", "best_p2", "fitness_p2")
SNAPSHOT_HEADER = ("x", "f_obj", "f_sub_p1", "f_sub_p2")
MEASURES_HEADER = ("generation", "population", "measure", "mean", "ci_lo", "ci_hi")


def _cell(value) -> str:
    # repr of a Python int or float is its shortest round-trip and JSON text
    if isinstance(value, str):
        return value
    return repr(int(value) if isinstance(value, (int, np.integer)) else float(value))


def write_table(path: Path, header: tuple[str, ...], rows, json_mirror: bool,
                text: list[list[str]] | None = None) -> Path:
    """Write one CSV table (plus optional JSON mirror) into an existing
    directory and verify both back.

    `rows` holds one sequence of str, int or float cells per row. `text`, if
    given, holds the same rows already rendered to all-number CSV cells (as
    `_repr_text` does for a whole run's snapshots); otherwise each cell is
    rendered here. The JSON mirror carries the CSV cells' text, str cells quoted.
    """
    json_text = text
    if text is None:
        rows = list(rows)
        text = json_text = [[_cell(v) for v in row] for row in rows]
        if json_mirror:
            json_text = [[json.dumps(c) if isinstance(v, str) else c for v, c in zip(row, cells)]
                         for row, cells in zip(rows, text)]
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write("\n".join([",".join(header), *map(",".join, text)]) + "\n")
    if json_mirror:
        with open(path.with_suffix(".json"), "w", encoding="utf-8", newline="") as fp:
            fp.write(_mirror_text(header, json_text))
    _verify_table(path, header, len(rows), json_mirror)
    return path


def _mirror_text(header: tuple[str, ...], json_text) -> str:
    """`json.dumps(records, indent=2) + "\\n"` of `header`-keyed `json_text` rows."""
    keys = [f"    {json.dumps(h)}: " for h in header]
    records = ["  {\n" + ",\n".join(map(str.__add__, keys, row)) + "\n  }" for row in json_text]
    return "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n"


def _verify_table(path: Path, header: tuple[str, ...], n_rows: int,
                  json_mirror: bool) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != ",".join(header):
        raise RuntimeError(f"{path}: header mismatch after write")
    if len(lines) - 1 != n_rows:
        raise RuntimeError(f"{path}: expected {n_rows} data rows, found {len(lines) - 1}")
    for line in lines[1:]:
        if line.count(",") != len(header) - 1:
            raise RuntimeError(f"{path}: malformed row {line!r}")
    if not json_mirror:
        return
    mirror = path.with_suffix(".json")
    try:
        records = json.loads(mirror.read_text(encoding="utf-8"))
    except ValueError as e:
        raise RuntimeError(f"{mirror}: unreadable after write: {e}") from e
    if not (isinstance(records, list) and len(records) == n_rows
            and all(isinstance(r, dict) and tuple(r) == header for r in records)):
        raise RuntimeError(f"{mirror}: expected {n_rows} records keyed by {header}")


def trajectory_rows(traj: Trajectories) -> list[tuple]:
    """Per generation of the block's first run: each population's best member
    and its best fitness under its task."""
    columns = []
    for i, task in enumerate(traj.tasks):
        fitnesses = traj.fitnesses[0, :, i]
        best_fitness = fitnesses.max(axis=-1) if task is Task.MAXIMIZE else fitnesses.min(axis=-1)
        columns += [traj.best[0, :, i].tolist(), best_fitness.tolist()]
    return [(k, *row) for k, row in enumerate(zip(*columns))]


def _repr_text(values: np.ndarray) -> np.ndarray:
    """`repr(float(v))` of every float64 in `values`, as an object array of the
    same shape. Each distinct bit pattern is formatted once (so 0.0 and -0.0
    stay apart); the text is shared by every cell that holds it."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    # the inverse's shape differs across numpy versions
    return text[inverse.ravel()].reshape(values.shape)


def write_snapshots(directory: Path, grid: np.ndarray, profiles: np.ndarray,
                    generations, json_mirror: bool) -> None:
    """landscape_k<k>.csv for each generation k of one run's `run_profiles`:
    the objective profile for P1's task next to both subjective profiles.

    The run's snapshot values repeat heavily across cells and generations, so
    they are rendered to text in one block and each file takes its slice."""
    generations = list(generations)
    obj1, sub1, sub2 = (profiles[generations, i] for i in (0, 2, 3))
    block = np.stack((np.broadcast_to(grid, obj1.shape), obj1, sub1, sub2), axis=-1)
    text = _repr_text(block)
    directory.mkdir(parents=True, exist_ok=True)
    for i, k in enumerate(generations):
        write_table(directory / f"landscape_k{k}.csv", SNAPSHOT_HEADER, block[i],
                    json_mirror, text[i].tolist())


def _load_config(args) -> ExperimentConfig:
    if args.workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {args.workers}")
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
        config.validate()
    return config


def _parse_generations(text: str, last: int) -> list[int]:
    try:
        wanted = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--generations must be comma-separated integers, got {text!r}")
    if not wanted:
        raise ValueError("--generations lists no generations")
    out_of_range = [k for k in wanted if not 0 <= k <= last]
    if out_of_range:
        raise ValueError(f"--generations out of range 0..{last}: {out_of_range}")
    return wanted


def cmd_simulate(args) -> int:
    config = _load_config(args)
    wanted = None
    if args.generations is not None:
        wanted = _parse_generations(args.generations, config.generations)
    elif config.snapshots:
        wanted = range(config.generations + 1)
    traj = run_trajectory(config, [trajectory_seed(config.master_seed, 0)])
    json_mirror = args.fmt == "json"
    args.out.mkdir(parents=True, exist_ok=True)
    write_table(args.out / "trajectory.csv", TRAJECTORY_HEADER,
                trajectory_rows(traj), json_mirror)
    if wanted is not None:
        grid = config.grid()
        write_snapshots(args.out / "snapshots", grid,
                        run_profiles(traj, grid, config.objective_kind())[0], wanted, json_mirror)
    return 0


def cmd_landscape(args) -> int:
    config = _load_config(args)
    wanted = _parse_generations(args.generations, config.generations)
    traj = run_trajectory(config, [trajectory_seed(config.master_seed, 0)])
    grid = config.grid()
    write_snapshots(args.out, grid, run_profiles(traj, grid, config.objective_kind())[0],
                    wanted, args.fmt == "json")
    return 0


def cmd_measures(args) -> int:
    config = _load_config(args)
    json_mirror = args.fmt == "json"
    per_run = None
    if config.snapshots:
        grid = config.grid()

        def per_run(r: int, profiles: np.ndarray) -> None:
            write_snapshots(args.out / "snapshots" / f"run_{r:03d}", grid, profiles,
                            range(len(profiles)), json_mirror)

    series = run_batch(config, per_run=per_run)
    args.out.mkdir(parents=True, exist_ok=True)
    write_table(args.out / "measures.csv", MEASURES_HEADER, list(series.rows()),
                json_mirror)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coevoscape",
        description="Simulate two-population coevolution and compare subjective "
                    "against objective fitness landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, type=Path,
                        help="JSON config file (see README for the keys)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (created if missing)")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility (must be >= 1); batches "
                             "run in one process, with identical results")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt",
                        help="csv only, or json to mirror every CSV as JSON")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run one trajectory and write its summary")
    sim.add_argument("--generations", default=None, metavar="K,K,...",
                     help="also snapshot these generations' landscapes")
    sim.set_defaults(func=cmd_simulate)

    land = sub.add_parser("landscape", parents=[common],
                          help="write landscape snapshots for chosen generations")
    land.add_argument("--generations", default="0,3,6", metavar="K,K,...",
                      help="generations to snapshot (default 0,3,6)")
    land.set_defaults(func=cmd_landscape)

    meas = sub.add_parser("measures", parents=[common],
                          help="run a batch and write the measure series")
    meas.set_defaults(func=cmd_measures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
