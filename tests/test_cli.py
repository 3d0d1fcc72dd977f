"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coevoscape import cli, experiment
from coevoscape.evolution import run_trajectory
from coevoscape.experiment import ExperimentConfig, run_batch, trajectory_seed
from coevoscape.landscape import objective_side, subjective_profiles
from coevoscape.substrate import kind_from_name
from conftest import assert_no_child_process

SMOOTH_SMALL = {
    "substrate": {"function": "smooth"},
    "evolution": {"generations": 10},
    "experiment": {"runs": 2, "master_seed": 11},
}
SUBSTRATES = ["crisp", "smooth", "ridge", "sinusoid"]


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def run_python(code, *args):
    """The finished `python -c code args...`, with this package importable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_simulate_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out / "trajectory.csv")
    assert header == "generation,best_p1,fitness_p1,best_p2,fitness_p2"
    assert len(rows) == 11
    assert [r[0] for r in rows] == [str(k) for k in range(11)]
    assert not (out / "snapshots").exists()


def test_simulate_snapshot_selection(tmp_path):
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                   "--generations", "0"])
    assert rc == 0
    snaps = sorted(p.name for p in (out / "snapshots").iterdir())
    assert snaps == ["landscape_k0.csv"]


def test_simulate_config_snapshots_flag(tmp_path):
    data = dict(SMOOTH_SMALL)
    data["evolution"] = {"generations": 2}
    data["experiment"] = {"runs": 1, "master_seed": 11, "snapshots": True}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    snaps = sorted(p.name for p in (out / "snapshots").iterdir())
    assert snaps == ["landscape_k0.csv", "landscape_k1.csv", "landscape_k2.csv"]


@pytest.mark.parametrize("generations", ["zero", "11", ","])
def test_simulate_bad_generations_writes_nothing(tmp_path, capsys, generations):
    """--generations is parsed before the run, so a bad list leaves no file."""
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                   "--generations", generations])
    assert rc == 1
    assert "error: --generations" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_missing_config(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_landscape_default_generations(tmp_path):
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "land"
    assert cli.main(["landscape", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["landscape_k0.csv", "landscape_k3.csv", "landscape_k6.csv"]
    header, rows = read_rows(out / "landscape_k3.csv")
    assert header == "x,f_obj,f_sub_p1,f_sub_p2"
    assert len(rows) == 301
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
        assert 0.0 <= float(row[3]) <= 1.0


def test_landscape_generation_bounds(tmp_path, capsys):
    data = dict(SMOOTH_SMALL)
    data["evolution"] = {"generations": 4}
    cfg = write_config(tmp_path, data)
    rc = cli.main(["landscape", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err
    rc = cli.main(["landscape", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--generations", "zero"])
    assert rc == 1


def test_landscape_matches_library_values(tmp_path):
    data = {
        "substrate": {"function": "sinusoid"},
        "evolution": {"generations": 3},
        "experiment": {"runs": 1, "master_seed": 42},
    }
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "land"
    rc = cli.main(["landscape", "--config", str(cfg_path), "--out", str(out),
                   "--generations", "3", "--seed", "7"])
    assert rc == 0

    config = ExperimentConfig.from_dict(data)
    traj = run_trajectory(config, [trajectory_seed(7, 0)])
    grid, kind = config.grid(), kind_from_name("sinusoid")
    obj1 = objective_side(kind, grid, traj.tasks).profiles[0]
    sub1, sub2 = subjective_profiles(traj, 0, grid, kind)[3]
    _, rows = read_rows(out / "landscape_k3.csv")
    parsed = np.array([[float(v) for v in row] for row in rows])
    # repr round-trips floats, so the file reproduces the values bit-exactly
    assert np.array_equal(parsed[:, 0], grid)
    assert np.array_equal(parsed[:, 1], obj1)
    assert np.array_equal(parsed[:, 2], sub1)
    assert np.array_equal(parsed[:, 3], sub2)


def test_measures_row_shape(tmp_path):
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "meas"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out / "measures.csv")
    assert header == "generation,population,measure,mean,ci_lo,ci_hi"
    assert len(rows) == 66
    assert rows[0][:3] == ["0", "P1", "dist"]
    assert rows[-1][:3] == ["10", "P2", "bhatt"]


def test_measures_single_run_degenerate_ci(tmp_path):
    data = dict(SMOOTH_SMALL)
    data["evolution"] = {"generations": 2}
    data["experiment"] = {"runs": 1, "master_seed": 11}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out / "measures.csv")
    for row in rows:
        assert row[3] == row[4] == row[5]


def test_measures_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["measures", "--config", str(cfg), "--out", str(b)]) == 0
    assert cli.main(["measures", "--config", str(cfg), "--out", str(c),
                     "--workers", "2"]) == 0
    blob = (a / "measures.csv").read_bytes()
    assert blob == (b / "measures.csv").read_bytes()
    assert blob == (c / "measures.csv").read_bytes()


@settings(max_examples=8, deadline=None)
@given(function=st.sampled_from(["crisp", "smooth", "ridge", "sinusoid"]),
       runs=st.integers(1, 4), generations=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_measures_bytes_do_not_depend_on_workers(function, runs, generations, seed):
    """`measures --workers 1`, `2` and `3` write identical bytes. Three CPUs
    are assumed, so each batch of two runs or more forks on any runner."""
    data = {"substrate": {"function": function},
            "evolution": {"generations": generations},
            "experiment": {"runs": runs, "master_seed": seed}}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(experiment, "_usable_cpus", lambda: 3):
        root = Path(tmp)
        cfg = write_config(root, data)
        for workers in ("1", "2", "3"):
            assert cli.main(["measures", "--config", str(cfg), "--out", str(root / workers),
                             "--workers", workers, "--format", "json"]) == 0
        for name in ("measures.csv", "measures.json"):
            assert (root / "1" / name).read_bytes() == (root / "2" / name).read_bytes()
            assert (root / "1" / name).read_bytes() == (root / "3" / name).read_bytes()


def test_measures_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["measures", "--config", str(cfg), "--out", str(b),
                     "--seed", "12"]) == 0
    assert (a / "measures.csv").read_bytes() != (b / "measures.csv").read_bytes()


def test_json_mirror(tmp_path):
    data = dict(SMOOTH_SMALL)
    data["evolution"] = {"generations": 1}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                   "--format", "json", "--generations", "1"])
    assert rc == 0
    records = json.loads((out / "trajectory.json").read_text())
    assert len(records) == 2
    assert list(records[0]) == ["generation", "best_p1", "fitness_p1",
                                "best_p2", "fitness_p2"]
    _, rows = read_rows(out / "trajectory.csv")
    assert records[1]["best_p1"] == float(rows[1][1])
    assert (out / "snapshots" / "landscape_k1.json").exists()


@pytest.mark.parametrize("truncate", [
    pytest.param(lambda records: records[:-1], id="record-dropped"),
    pytest.param(lambda records: records[:1] + [{"generation": 1}], id="keys-dropped"),
    pytest.param(None, id="text-cut"),
])
def test_truncated_json_mirror_fails_the_command(tmp_path, capsys, monkeypatch, truncate):
    """The JSON mirror is re-read like the CSV: a short mirror means exit 1."""
    real_mirror_text = cli._mirror_text

    def short_mirror_text(header, json_text):
        text = real_mirror_text(header, json_text)
        if truncate is None:
            return text[:-10]
        return json.dumps(truncate(json.loads(text)), indent=2) + "\n"

    monkeypatch.setattr(cli, "_mirror_text", short_mirror_text)
    data = dict(SMOOTH_SMALL, evolution={"generations": 1})
    cfg = write_config(tmp_path, data)
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--format", "json"])
    assert rc == 1
    assert "trajectory.json" in capsys.readouterr().err

    # a snapshot batch's mirrors are checked the same way, by the writer process
    data = dict(data, landscape={"grid_points": 21}, experiment={"runs": 12, "snapshots": True})
    cfg = write_config(tmp_path, data, "snapshots.json")
    out = tmp_path / "meas"
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(out), "--format", "json"])
    assert rc == 1
    assert str(out / "snapshots" / "run_000" / "landscape_k0.json") in capsys.readouterr().err
    assert not (out / "measures.csv").exists()
    assert_no_child_process()


def test_typed_mirrors_match_json_dumps(tmp_path):
    """measures.json and trajectory.json carry int, str and float values laid out
    exactly as `json.dumps(records, indent=2)` lays out the typed rows."""
    data = dict(SMOOTH_SMALL, evolution={"generations": 3})
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    for command in ("measures", "simulate"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out),
                         "--format", "json"]) == 0
    config = ExperimentConfig.from_dict(data)
    trajectory = cli.trajectory_rows(run_trajectory(config, [trajectory_seed(11, 0)]))
    measures = list(run_batch(config).rows())
    for name, header, rows in (("trajectory", cli.TRAJECTORY_HEADER, trajectory),
                               ("measures", cli.MEASURES_HEADER, measures)):
        assert [type(v) for v in rows[0]] == (
            [int, float, float, float, float] if name == "trajectory"
            else [int, str, str, float, float, float])
        records = [dict(zip(header, row)) for row in rows]
        assert (out / f"{name}.json").read_text(encoding="utf-8") == (
            json.dumps(records, indent=2) + "\n"), name


def test_zero_row_table_mirror_is_an_empty_list(tmp_path):
    path = cli.write_table(tmp_path / "empty.csv", cli.MEASURES_HEADER, [], True)
    assert path.read_text(encoding="utf-8") == ",".join(cli.MEASURES_HEADER) + "\n"
    assert (tmp_path / "empty.json").read_text(encoding="utf-8") == json.dumps([]) + "\n"


@pytest.mark.parametrize("row, wanted", [
    pytest.param((0, "P,1", "dist", 1.0, 2.0, 3.0), "cells in each row", id="comma-in-cell"),
    pytest.param((0, "P1\nP2", "dist", 1.0, 2.0, 3.0), "data rows", id="newline-in-cell"),
    pytest.param((0, "P1", "dist", 1.0, 2.0), "cannot reshape", id="short-row"),
])
def test_malformed_csv_text_is_never_written(tmp_path, row, wanted):
    """The CSV text is checked before it is written: a cell holding a comma or
    a line break, or a row of the wrong length, fails and leaves no file."""
    with pytest.raises((RuntimeError, ValueError), match=wanted):
        cli.write_table(tmp_path / "bad.csv", cli.MEASURES_HEADER, [row], False)
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_cell_fails_the_json_mirror(tmp_path, value):
    """A mirror must be standard JSON: `repr` text of nan or inf fails the re-read."""
    with pytest.raises(RuntimeError, match=r"bad\.json"):
        cli.write_table(tmp_path / "bad.csv", cli.SNAPSHOT_HEADER,
                        [(0.0, value, 1.0, 2.0)], True)


@pytest.mark.parametrize("seed", [None, 12])
def test_config_is_validated_once_at_load(tmp_path, monkeypatch, seed):
    """`--seed` replaces the file's seed before the one check, each of which
    builds both objective profiles."""
    calls = []
    check = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__",
                        lambda self: calls.append(self.master_seed) or check(self))
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    argv = ["measures", "--config", str(cfg)] + ([] if seed is None else ["--seed", str(seed)])
    config = cli._load_config(cli.build_parser().parse_args(argv))
    assert calls == [config.master_seed]
    assert config.master_seed == (11 if seed is None else seed)


def test_measures_checks_its_config_once(tmp_path, monkeypatch):
    """A serial 100-run batch checks its config at load and never again."""
    calls = []
    check = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__",
                        lambda self: calls.append(self.runs) or check(self))
    cfg = write_config(tmp_path, {"experiment": {"runs": 100}})
    assert cli.main(["measures", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [100]


@pytest.mark.parametrize("command", ["simulate", "landscape", "measures"])
def test_negative_seed_flag_rejected_at_load(tmp_path, capsys, command):
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: master_seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "measures"])
@pytest.mark.parametrize("section, bad", [
    pytest.param("evolution", {"init_interval_p1": [-1e308, 1e308]}, id="init-p1"),
    pytest.param("evolution", {"init_interval_p2": [-1e308, 1e308]}, id="init-p2"),
    pytest.param("landscape", {"grid_lo": -1e308, "grid_hi": 1e308}, id="grid"),
])
def test_non_finite_span_rejected_at_load(tmp_path, capsys, command, section, bad):
    data = dict(SMOOTH_SMALL, **{section: dict(SMOOTH_SMALL.get(section, {}), **bad)})
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite span" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "measures"])
@pytest.mark.parametrize("data, wanted", [
    pytest.param({"substrate": {"function": "smooth"},
                  "landscape": {"grid_lo": -1e307, "grid_hi": 1e307}},
                 "objective profile for P1 overflows on the grid", id="smooth-grid-overflows"),
    pytest.param({"substrate": {"function": "smooth"},
                  "evolution": {"init_interval_p1": [-1e307, 1e307]}},
                 "init interval for P1 (-1e+307, 1e+307) gives non-finite fitness",
                 id="smooth-init-overflows"),
    pytest.param({"substrate": {"function": "sinusoid"},
                  "evolution": {"init_interval_p2": [-1e307, 1e307]}},
                 "init interval for P2 (-1e+307, 1e+307) gives non-finite fitness",
                 id="sinusoid-init-overflows"),
    pytest.param({"substrate": {"function": "crisp"}, "landscape": {"grid_lo": 5, "grid_hi": 10}},
                 "objective profile for P1 is flat on the grid (5.0, 10.0)", id="crisp-flat-grid"),
    pytest.param({"substrate": {"function": "ridge"}, "landscape": {"grid_lo": 20, "grid_hi": 30}},
                 "objective profile for P2 is flat on the grid (20.0, 30.0)", id="ridge-flat-grid"),
])
def test_overflowing_or_flat_substrate_rejected_at_load(tmp_path, capsys, command, data, wanted):
    """Values the runs would overflow on, or a grid the measures cannot
    normalize on, fail at config load, before any run or output."""
    cfg = write_config(tmp_path, dict(data, experiment={"runs": 3}))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and wanted in err
    assert not out.exists()


def test_import_and_config_load_leave_scipy_out(tmp_path):
    """Importing the CLI, loading a config, a `simulate` and a 100-run
    `measures` never import scipy: `ci95` reads its t quantile from a table
    up to 1,001 runs. With scipy blocked, `measures` writes the same bytes.
    Nor do they import subprocess: a snapshot batch forks its writer, and a
    `measures --workers 2` forks its workers, so neither imports
    multiprocessing nor concurrent, and the forked batch writes the same bytes."""
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    snapshots = write_config(tmp_path, dict(SMOOTH_SMALL, experiment={"runs": 3,
                                                                      "snapshots": True}),
                             "snapshots.json")
    batch = write_config(tmp_path, dict(SMOOTH_SMALL, experiment={"runs": 100}), "batch.json")
    scipy_modules = ("print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] in ('scipy', 'subprocess', 'multiprocessing', "
                     "'concurrent')))")
    measures = ("assert coevoscape.cli.main(['measures', '--config', sys.argv[3], '--out', "
                "sys.argv[4], '--format', 'json']) == 0")
    forked = ("coevoscape.experiment._usable_cpus = lambda: 2\n"
              "assert coevoscape.cli.main(['measures', '--config', sys.argv[3], '--out', "
              "sys.argv[4] + '-forked', '--format', 'json', '--workers', '2']) == 0")
    free = "\n".join([
        "import sys",
        "import coevoscape.cli",
        "from coevoscape.experiment import ExperimentConfig",
        "ExperimentConfig.from_file(sys.argv[1])",
        scipy_modules,
        "assert coevoscape.cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2],",
        "                            '--generations', '0,5']) == 0",
        scipy_modules,
        measures,
        scipy_modules,
        forked,
        scipy_modules,
        "assert coevoscape.cli.main(['measures', '--config', sys.argv[5], '--out', "
        "sys.argv[4] + '-snapshots', '--format', 'json']) == 0",
        scipy_modules,
    ])
    blocked = "\n".join(["import sys", "sys.modules['scipy'] = None", "import coevoscape.cli",
                         measures])

    def printed(code, out):
        proc = run_python(code, cfg, tmp_path / "sim", batch, out, snapshots)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    assert printed(free, tmp_path / "free") == ["[]", "[]", "[]", "[]", "[]"]
    assert len(list((tmp_path / "free-snapshots").rglob("landscape_k*.json"))) == 3 * 11
    assert printed(blocked, tmp_path / "blocked") == []
    for name in ("measures.csv", "measures.json"):
        for out in ("blocked", "free-forked"):
            assert (tmp_path / out / name).read_bytes() == (tmp_path / "free" / name).read_bytes()


@pytest.mark.parametrize("function, task_p1", [
    *((function, "minimize") for function in SUBSTRATES),
    pytest.param("ridge", "maximize", id="ridge-cooperative"),
])
def test_simulate_reproduces_run_zero_of_a_batch(tmp_path, function, task_p1):
    """`simulate --seed S` writes run 0's snapshots of `measures --seed S`,
    here a batch of two blocks, and `landscape --seed S` the same bytes: all
    three commands write P1's objective row for its task, which a
    compositional kind slices at that task's reference partner."""
    data = dict(SMOOTH_SMALL, substrate={"function": function},
                interaction={"task_p1": task_p1, "task_p2": "maximize"},
                experiment={"runs": 12, "snapshots": True})
    cfg = write_config(tmp_path, data)
    batch, single, land = tmp_path / "batch", tmp_path / "single", tmp_path / "land"
    generations = ",".join(str(k) for k in range(11))
    with mock.patch.object(experiment, "_block_runs", lambda config: 7):
        assert cli.main(["measures", "--config", str(cfg), "--out", str(batch),
                         "--seed", "21"]) == 0
    for command, out in (("simulate", single), ("landscape", land)):
        assert cli.main([command, "--config", str(cfg), "--out", str(out), "--seed", "21",
                         "--generations", generations]) == 0
    for k in range(11):
        name = f"landscape_k{k}.csv"
        expected = (batch / "snapshots" / "run_000" / name).read_bytes()
        assert (single / "snapshots" / name).read_bytes() == expected
        assert (land / name).read_bytes() == expected


def test_invalid_config_key_reports_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"substrate": {"flavor": "smooth"}})
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_measures_per_run_snapshots(tmp_path):
    data = {
        "substrate": {"function": "ridge"},
        "evolution": {"generations": 1},
        "experiment": {"runs": 2, "master_seed": 3, "snapshots": True},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "measures.csv").exists()
    for r in (0, 1):
        run_dir = out / "snapshots" / f"run_{r:03d}"
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["landscape_k0.csv", "landscape_k1.csv"]


@pytest.mark.parametrize("runs", [
    pytest.param(4, id="last-run"),
    pytest.param(12, id="mid-batch"),
])
def test_writer_process_failure_names_the_file(tmp_path, capsys, runs):
    """A file the writer process cannot create fails the command with the
    file's name, whether it is the batch's last run or the writer has quit
    while runs were still being sent; the writer is reaped either way."""
    # default-sized snapshots: the runs after run 3 overfill the pipe
    cfg = write_config(tmp_path, {"experiment": {"runs": runs, "master_seed": 3,
                                                 "snapshots": True}})
    out = tmp_path / "meas"
    (out / "snapshots").mkdir(parents=True)
    (out / "snapshots" / "run_003").write_text("")
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert str(out / "snapshots" / "run_003" / "landscape_k0.csv") in capsys.readouterr().err
    assert not (out / "measures.csv").exists()
    assert_no_child_process()


def test_run_failure_in_a_snapshot_batch_reaps_the_writer(tmp_path, capsys, monkeypatch):
    """A run failing in the second block of a snapshot batch (its second
    run) names itself; the runs before it are written."""
    real_run_trajectory = experiment.run_trajectory
    failing = experiment._block_runs(ExperimentConfig()) + 1

    def fail_run(config, seeds):
        if any(seed.spawn_key == (failing,) for seed in seeds):
            raise ValueError("boom")
        return real_run_trajectory(config, seeds)

    monkeypatch.setattr(experiment, "run_trajectory", fail_run)
    cfg = write_config(tmp_path, {"experiment": {"runs": failing + 2, "master_seed": 5,
                                                 "snapshots": True}})
    out = tmp_path / "meas"
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert (f"error: run {failing} failed (seed = SeedSequence(5, spawn_key=({failing},))): "
            "boom" in capsys.readouterr().err)
    assert len(list((out / "snapshots" / f"run_{failing - 1:03d}").iterdir())) == 11
    assert not (out / "snapshots" / f"run_{failing:03d}").exists()
    assert_no_child_process()


def test_interrupt_in_a_snapshot_batch_reaps_the_writer(tmp_path, monkeypatch):
    """An interrupt mid-batch propagates as itself, after the writer is reaped."""
    real_write_snapshots = cli.write_snapshots

    def interrupted(directory, *args):
        if directory.name == "run_002":
            raise KeyboardInterrupt
        real_write_snapshots(directory, *args)

    monkeypatch.setattr(cli, "write_snapshots", interrupted)
    cfg = write_config(tmp_path, dict(SMOOTH_SMALL, experiment={"runs": 4, "snapshots": True}))
    out = tmp_path / "meas"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["measures", "--config", str(cfg), "--out", str(out)])
    assert len(list((out / "snapshots" / "run_001").iterdir())) == 11
    assert_no_child_process()


def test_snapshot_batch_leaves_stdout_alone_and_no_process(tmp_path, capfd):
    """In process, a snapshot batch prints nothing, not even from its writer
    process, and reaps it."""
    data = dict(SMOOTH_SMALL, experiment={"runs": 3, "snapshots": True})
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
    assert capfd.readouterr() == ("", "")
    assert len(list(out.rglob("landscape_k*.json"))) == 3 * 11
    assert_no_child_process()


def test_snapshot_batch_without_fork_writes_in_process(tmp_path, monkeypatch):
    """Where os.fork is missing, a snapshot batch writes its files in this
    process: the same bytes as through the forked writer, and no child."""
    cfg = write_config(tmp_path, dict(SMOOTH_SMALL, experiment={"runs": 3, "snapshots": True}))
    forked, serial = tmp_path / "forked", tmp_path / "serial"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(forked),
                     "--format", "json"]) == 0
    monkeypatch.delattr(os, "fork")
    assert cli.main(["measures", "--config", str(cfg), "--out", str(serial),
                     "--format", "json"]) == 0
    assert_no_child_process()
    files = sorted(p.relative_to(forked) for p in forked.rglob("*") if p.is_file())
    assert len(files) == 2 + 3 * 11 * 2
    assert files == sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    for name in files:
        assert (serial / name).read_bytes() == (forked / name).read_bytes()


def test_writer_fork_failure_fails_the_command(tmp_path, capsys, monkeypatch):
    """If the writer cannot be forked, the snapshot batch exits 1 with the
    error, and the writer's pipes are closed again."""
    def refuse():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    cfg = write_config(tmp_path, dict(SMOOTH_SMALL, experiment={"runs": 3, "snapshots": True}))
    out = tmp_path / "meas"
    fds = Path("/proc/self/fd")
    before = len(list(fds.iterdir())) if fds.is_dir() else None
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: fork refused\n"
    assert not (out / "measures.csv").exists()
    if before is not None:
        assert len(list(fds.iterdir())) == before


@pytest.mark.parametrize("snapshots, workers", [
    pytest.param(True, "1", id="snapshot-writer"),
    pytest.param(False, "2", id="workers-2"),
])
def test_forked_children_leave_unflushed_stdout_alone(tmp_path, snapshots, workers):
    """A forked child leaves with os._exit, so text this process still holds
    in sys.stdout's buffer is printed once, by this process."""
    cfg = write_config(tmp_path, dict(SMOOTH_SMALL, experiment={"runs": 4,
                                                                "snapshots": snapshots}))
    code = "\n".join([
        "import sys",
        "import coevoscape.cli",
        "coevoscape.experiment._usable_cpus = lambda: 2",
        "sys.stdout = open(1, 'w', closefd=False)  # block-buffered even under PYTHONUNBUFFERED",
        "sys.stdout.write('unflushed\\n')",
        "assert coevoscape.cli.main(['measures', '--config', sys.argv[1], '--out', sys.argv[2],",
        "                            '--workers', sys.argv[3]]) == 0",
    ])
    proc = run_python(code, cfg, tmp_path / "out", workers)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "unflushed\n"
    assert (tmp_path / "out" / "measures.csv").exists()


@pytest.mark.parametrize("command", ["measures", "simulate", "landscape"])
def test_run_zero_failure_names_the_run_and_its_seed(tmp_path, capsys, command):
    """Every command names run 0 and its seed when run 0 fails."""
    cfg = write_config(tmp_path, {"evolution": {"mutation_sigma": 1e300}})
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out), "--seed", "5"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: run 0 failed (seed = SeedSequence(5, spawn_key=(0,))): "
        "overflow encountered in multiply\n")
    assert not out.exists()


@pytest.mark.parametrize("command, workers", [
    pytest.param("measures", "0", id="0"),
    pytest.param("measures", "-2", id="-2"),
    pytest.param("simulate", "0", id="simulate-0"),
    pytest.param("simulate", "-2", id="simulate--2"),
    pytest.param("landscape", "0", id="landscape-0"),
    pytest.param("landscape", "-3", id="landscape--3"),
])
def test_measures_rejects_worker_count_below_one(tmp_path, capsys, command, workers):
    """Every subcommand rejects the worker count at config load, before any run."""
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out),
                   "--workers", workers])
    assert rc == 1
    assert f"error: workers must be an integer >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_measures_overflow_fails_the_run(tmp_path, capsys):
    data = {"evolution": {"generations": 3, "mutation_sigma": 1e300},
            "experiment": {"runs": 2, "master_seed": 5}}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "run 0 failed (seed = SeedSequence(5, spawn_key=(0,))): overflow" in err
    assert not (out / "measures.csv").exists()

    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")])
    assert rc == 1
    assert "overflow" in capsys.readouterr().err


def test_measures_overflow_in_the_measures_fails_the_run(tmp_path, capsys):
    data = {"substrate": {"function": "ridge", "ridge_n": 1e200}, "experiment": {"runs": 3}}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: run 0 failed (seed = SeedSequence(1, spawn_key=(0,))): "
        "overflow encountered in matmul\n")
    assert not (out / "measures.csv").exists()


def test_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b"\xff\xfe{}")
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: config file {cfg} is not valid JSON: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, size", [
    pytest.param("landscape", "grid_points", 10**15, id="grid-at-load"),
    pytest.param("experiment", "runs", 10**13, id="runs-at-measure"),
])
def test_unallocatable_arrays_fail_with_an_error_line(tmp_path, capsys, section, key, size):
    """An array larger than a 64-bit user address space (the grid at config
    load, or every run's measures, allocated before the first run) cannot be
    allocated under any overcommit setting; the command reports it and
    writes nothing."""
    data = dict(SMOOTH_SMALL, **{section: dict(SMOOTH_SMALL.get(section, {}), **{key: size})})
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    rc = cli.main(["measures", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert not out.exists()


# float64 values around repr's notation switches (1e-4, 1e16), signed zeros,
# subnormals, the extremes and the non-finite values
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               9.999999999999999e-05, 1e-04, 0.00010000000000000002,
               9999999999999998.0, 1e16, 1.0000000000000002e16,
               1e-300, 1e300, -1.7976931348623157e308, 1.7976931348623157e308,
               0.1, 1.0, float("inf"), float("-inf"), float("nan")]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64),
                   st.floats(1e-6, 1e-2), st.floats(1e14, 1e18))


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(FLOATS, min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=48))
@example(pool=[0.0, -0.0, 5e-324, 1e-4, 1e16], picks=[0, 1, 2, 1, 0, 3, 4, 3])
def test_repr_text_matches_per_value_repr(pool, picks):
    """The snapshot renderer gives `repr(float(v))` cell by cell, repeats included."""
    a = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64)
    for values in (a, a.reshape(1, -1, 1), a[::-1]):
        text = cli._repr_text(values)
        assert text.shape == values.shape
        assert text.ravel().tolist() == [repr(float(v)) for v in values.ravel()]


def test_shared_snapshot_columns_are_rendered_once(tmp_path, monkeypatch):
    """x and f_obj, the same in every snapshot file, are rendered once per
    command; each run's subjective columns are rendered in one block, and no
    text is kept from one run to the next."""
    shapes = []
    real_repr_text = cli._repr_text

    def recording(values, *args):
        shapes.append(np.shape(values))
        return real_repr_text(values, *args)

    monkeypatch.setattr(cli, "_repr_text", recording)
    runs = 5
    cfg = write_config(tmp_path, {"substrate": {"function": "smooth"},
                                  "evolution": {"generations": 3},
                                  "landscape": {"grid_points": 41},
                                  "experiment": {"runs": runs, "snapshots": True}})
    assert cli.main(["measures", "--config", str(cfg), "--out", str(tmp_path / "meas")]) == 0
    assert shapes == [(41, 2)] + [(4, 41, 2)] * runs
    shapes.clear()
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--generations", "0,2"]) == 0
    assert shapes == [(41, 2), (2, 41, 2)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("function", SUBSTRATES)
def test_measures_snapshot_files_match_per_value_text(tmp_path, function, fmt):
    """Every per-run snapshot file, and its JSON mirror, equals the text built
    cell by cell from P1's row of `objective_side` and `subjective_profiles`
    with the plain per-value expressions, across the two blocks (a full one,
    then 1 run) of a batch at the defaults, whose text the renderer reuses
    from run to run."""
    runs = experiment._block_runs(ExperimentConfig(function=function)) + 1
    data = {"substrate": {"function": function},
            "experiment": {"runs": runs, "master_seed": 8, "snapshots": True}}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(out),
                     "--format", fmt]) == 0

    config = ExperimentConfig.from_dict(data)
    assert experiment._block_runs(config) == runs - 1
    grid = config.grid()
    header = cli.SNAPSHOT_HEADER
    expected = {}
    for r in range(runs):
        traj = run_trajectory(config, [trajectory_seed(8, r)])
        kind = config.objective_kind()
        obj1 = objective_side(kind, grid, traj.tasks).profiles[0].tolist()
        sub = subjective_profiles(traj, 0, grid, kind)
        for k in range(config.generations + 1):
            sub1, sub2 = sub[k].tolist()
            rows = list(zip(grid.tolist(), obj1, sub1, sub2))
            name = f"run_{r:03d}/landscape_k{k}"
            expected[f"{name}.csv"] = "\n".join(
                [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
            ) + "\n"
            if fmt == "json":
                records = [dict(zip(header, row)) for row in rows]
                expected[f"{name}.json"] = json.dumps(records, indent=2) + "\n"
    snapshots = out / "snapshots"
    written = {p.relative_to(snapshots).as_posix(): p.read_text(encoding="utf-8")
               for p in snapshots.rglob("landscape_k*")}
    assert sorted(written) == sorted(expected)
    for name, text in expected.items():
        assert written[name] == text, name


@pytest.fixture
def write_table_calls(monkeypatch):
    """Record every cli.write_table call as the benchmark tracer reads it:
    header and rows positionally, rows sized."""
    calls = []
    original = cli.write_table

    def counting(*args, **kwargs):
        path, header, rows = args[0], args[1], args[2]
        calls.append((Path(path), header, len(rows)))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "write_table", counting)
    return calls


def test_snapshot_batch_writes_each_csv_through_one_write_table_call(tmp_path,
                                                                    write_table_calls):
    data = {"substrate": {"function": "smooth"},
            "evolution": {"generations": 3},
            "landscape": {"grid_points": 41},
            "experiment": {"runs": 2, "master_seed": 4, "snapshots": True}}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
    written = sorted(out.rglob("*.csv"))
    assert sorted(path for path, _, _ in write_table_calls) == written
    assert len(written) == 1 + 2 * 4
    for path, header, n_rows in write_table_calls:
        if path.name.startswith("landscape_k"):
            assert (header, n_rows) == (cli.SNAPSHOT_HEADER, 41)


def test_simulate_writes_each_csv_through_one_write_table_call(tmp_path, write_table_calls):
    data = dict(SMOOTH_SMALL, landscape={"grid_points": 31})
    cfg = write_config(tmp_path, data)
    out = tmp_path / "sim"
    generations = ",".join(str(k) for k in range(11))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--generations", generations]) == 0
    written = sorted(out.rglob("*.csv"))
    assert sorted(path for path, _, _ in write_table_calls) == written
    assert len(written) == 1 + 11
    assert (out / "trajectory.csv", cli.TRAJECTORY_HEADER, 11) in write_table_calls
    for path, header, n_rows in write_table_calls:
        if path.name.startswith("landscape_k"):
            assert (header, n_rows) == (cli.SNAPSHOT_HEADER, 31)


@pytest.mark.parametrize("command, generations, files", [
    ("simulate", "1,0,1,1", ["trajectory.csv", "snapshots/landscape_k1.csv",
                             "snapshots/landscape_k0.csv"]),
    ("landscape", "3,3,6,3", ["landscape_k3.csv", "landscape_k6.csv"]),
])
def test_repeated_generations_are_written_once(tmp_path, write_table_calls, command,
                                               generations, files):
    """A generation listed twice is rendered and written once, in the order
    the list first names it."""
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out),
                     "--generations", generations]) == 0
    assert [path for path, _, _ in write_table_calls] == [out / name for name in files]
