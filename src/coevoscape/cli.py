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

Exit code 0 means every requested file was written and read back equal to
its bytes; any failure prints a message to stderr and exits 1. A `measures`
batch with snapshots runs in at least two `--workers` slices where it can,
and each slice writes the snapshot files of its own runs, so creating them
overlaps the other slice's compute. A slice's failure names its run, as in
one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .evolution import Trajectories, run_trajectory
from .experiment import ConfigError, ExperimentConfig, _run_failed, run_batch, trajectory_seed
from .landscape import objective_profile, subjective_profiles
from .substrate import Task

TRAJECTORY_HEADER = ("generation", "best_p1", "fitness_p1", "best_p2", "fitness_p2")
SNAPSHOT_HEADER = ("x", "f_obj", "f_sub_p1", "f_sub_p2")
MEASURES_HEADER = ("generation", "population", "measure", "mean", "ci_lo", "ci_hi")


def write_file(path, data: bytes, records: tuple[tuple[str, ...], int] | None = None) -> None:
    """Write `data` to `path`, creating its directory if missing, and read the
    file back: it must equal `data`. `records = (keys, n)` marks a JSON
    mirror, which must also parse to a list of n objects keyed by `keys` in
    that order."""
    try:
        fp = open(path, "wb")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fp = open(path, "wb")
    with fp:
        fp.write(data)
    with open(path, "rb") as fp:
        back = fp.read()
    if back != data:
        raise RuntimeError(f"{path}: read back {len(back)} bytes that differ "
                           f"from the {len(data)} written")
    if records is None:
        return
    keys, n = records
    try:
        parsed = json.loads(back)
    except ValueError as e:
        raise RuntimeError(f"{path}: unreadable after write: {e}") from e
    if not (isinstance(parsed, list) and len(parsed) == n and set(map(type, parsed)) <= {dict}
            and list(map(tuple, parsed)).count(keys) == n):
        raise RuntimeError(f"{path}: expected {n} records keyed by {keys}")


def _cell(value) -> str:
    # repr of a Python int or float is its shortest round-trip and JSON text
    if isinstance(value, str):
        return value
    return repr(int(value) if isinstance(value, (int, np.integer)) else float(value))


def write_table(path: Path, header: tuple[str, ...], rows, json_mirror: bool,
                text: np.ndarray | None = None) -> Path:
    """Write one CSV table (plus optional JSON mirror) with `write_file`,
    which reads each file back.

    `rows` holds one sequence of str, int or float cells per row. `text`, if
    given, holds the same rows already rendered to all-number CSV cells, as a
    (rows, columns) object array of str (`write_snapshots` passes the same
    array as both); otherwise each cell is rendered here. The JSON mirror carries
    the CSV cells' text, str cells quoted. The CSV text's header, row count
    and cell count are checked before it is written.
    """
    json_text = text
    if text is None:
        rows = list(rows)
        cells = [[_cell(v) for v in row] for row in rows]
        text = json_text = _cell_array(cells, len(header))
        if json_mirror:
            json_text = _cell_array([[json.dumps(c) if isinstance(v, str) else c
                                      for v, c in zip(row, row_cells)]
                                     for row, row_cells in zip(rows, cells)], len(header))
    csv = ",".join(header) + "\n" + _interleave(text, ["", *[","] * (len(header) - 1)], "\n")
    _check_csv(path, csv, header, len(rows))
    write_file(path, csv.encode())
    if json_mirror:
        write_file(path.with_suffix(".json"), _mirror_text(header, json_text).encode(),
                   (header, len(rows)))
    return path


def _cell_array(cells: list[list[str]], columns: int) -> np.ndarray:
    """`cells` as a (rows, columns) object array; a row of another length fails."""
    return np.array(cells, dtype=object).reshape(len(cells), columns)


def _interleave(cells: np.ndarray, before: list[str], after: str) -> str:
    """Every row of `cells` as one string: each cell preceded by its column's
    `before` string, the row ended by `after`."""
    rows, columns = cells.shape
    parts = np.empty((rows, 2 * columns + 1), dtype=object)
    parts[:, 0:-1:2] = before
    parts[:, 1::2] = cells
    parts[:, -1] = after
    return "".join(parts.ravel().tolist())


def _mirror_text(header: tuple[str, ...], json_text: np.ndarray) -> str:
    """`json.dumps(records, indent=2) + "\\n"` of `header`-keyed `json_text` rows."""
    if not len(json_text):
        return "[]\n"
    keys = [f"    {json.dumps(h)}: " for h in header]
    before = ["  {\n" + keys[0], *(",\n" + key for key in keys[1:])]
    # every record is followed by ",\n"; the last one's is cut
    return "[\n" + _interleave(json_text, before, "\n  },\n")[:-2] + "\n]\n"


def _check_csv(path: Path, csv: str, header: tuple[str, ...], n_rows: int) -> None:
    """Whole-text checks of a table's CSV text: one line per row after the
    header, and `len(header)` cells per line. Every row was rendered from a
    (rows, columns) array, so a count off by any amount means a cell that
    holds a comma or a line break."""
    lines = csv.count("\n")
    if lines - 1 != n_rows:
        raise RuntimeError(f"{path}: expected {n_rows} data rows, found {lines - 1}")
    if csv.count(",") != lines * (len(header) - 1):
        raise RuntimeError(f"{path}: expected {len(header)} cells in each row")


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
    texts = [repr(v) for v in bits.view(np.float64).tolist()]
    # the inverse's shape differs across numpy versions
    return np.array(texts, dtype=object)[inverse.ravel()].reshape(values.shape)


def write_snapshots(directory: Path, fixed: np.ndarray, sub: np.ndarray, generations,
                    json_mirror: bool) -> None:
    """landscape_k<k>.csv for each generation k of one run: the batch's x and
    f_obj text `fixed` (`_fixed_columns`), the same in every file, next to
    the run's subjective profiles `sub` (generations+1, 2, grid points).

    The subjective values repeat heavily across cells and generations, so
    they are rendered to text in one block and each file takes its slice."""
    # (generation, point, population): f_sub_p1 and f_sub_p2 in each file's rows
    text = _repr_text(sub[generations].transpose(0, 2, 1))
    for i, k in enumerate(generations):
        rows = np.concatenate((fixed, text[i]), axis=1)
        write_table(directory / f"landscape_k{k}.csv", SNAPSHOT_HEADER, rows,
                    json_mirror, rows)


def _fixed_columns(config: ExperimentConfig) -> np.ndarray:
    """The x and f_obj columns every snapshot file of a batch shares, as a
    (grid points, 2) text array rendered once: the grid, and P1's row of the
    batch's `objective_side`."""
    grid = config.grid()
    obj = objective_profile(config.objective_kind(), grid, config.tasks()[0])
    return _repr_text(np.stack((grid, obj), axis=-1))


def _write_run_zero_snapshots(config: ExperimentConfig, traj: Trajectories, directory: Path,
                              generations, json_mirror: bool) -> None:
    """Snapshots of `traj`'s run 0, the same bytes as `measures` writes for run 0."""
    sub = subjective_profiles(traj, 0, config.grid(), config.objective_kind())
    write_snapshots(directory, _fixed_columns(config), sub, generations, json_mirror)


def _load_config(args) -> ExperimentConfig:
    if args.workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {args.workers}")
    return ExperimentConfig.from_file(args.config, master_seed=args.seed)


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
    return list(dict.fromkeys(wanted))  # each generation once, in first-seen order


def _run_zero(config: ExperimentConfig) -> Trajectories:
    """Run 0 of a batch with `config`'s master seed; a failure names the run
    and its seed, as the batch would."""
    try:
        return run_trajectory(config, [trajectory_seed(config.master_seed, 0)])
    except Exception as e:
        raise _run_failed(config, 0, e) from e


def cmd_simulate(args) -> int:
    config = _load_config(args)
    wanted = range(config.generations + 1) if config.snapshots else None
    if args.generations is not None:
        wanted = _parse_generations(args.generations, config.generations)
    traj = _run_zero(config)
    json_mirror = args.fmt == "json"
    write_table(args.out / "trajectory.csv", TRAJECTORY_HEADER,
                trajectory_rows(traj), json_mirror)
    if wanted is not None:
        _write_run_zero_snapshots(config, traj, args.out / "snapshots", wanted, json_mirror)
    return 0


def cmd_landscape(args) -> int:
    config = _load_config(args)
    wanted = _parse_generations(args.generations, config.generations)
    traj = _run_zero(config)
    _write_run_zero_snapshots(config, traj, args.out, wanted, args.fmt == "json")
    return 0


def cmd_measures(args) -> int:
    config = _load_config(args)
    json_mirror = args.fmt == "json"
    if config.snapshots:
        fixed = _fixed_columns(config)

        def per_run(r: int, sub: np.ndarray) -> None:
            write_snapshots(args.out / "snapshots" / f"run_{r:03d}", fixed, sub,
                            range(len(sub)), json_mirror)

        # each slice writes its own runs' files: with a second slice, creating
        # them overlaps compute even at --workers 1
        series = run_batch(config, per_run=per_run, workers=max(args.workers, 2))
    else:
        series = run_batch(config, workers=args.workers)
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
                        help="measures: split the batch's runs across up to this "
                             "many processes (must be >= 1; capped at the runs and "
                             "the usable CPUs; forked, POSIX only). A snapshot batch "
                             "uses at least 2, and each process writes its own runs' "
                             "files. Results are identical for any value")
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
    except (ValueError, OSError, RuntimeError, FloatingPointError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
