"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coevoscape import cli
from coevoscape.evolution import run_trajectory
from coevoscape.experiment import ExperimentConfig, run_batch, trajectory_seed
from coevoscape.landscape import run_profiles
from coevoscape.substrate import kind_from_name

SMOOTH_SMALL = {
    "substrate": {"function": "smooth"},
    "evolution": {"generations": 10},
    "experiment": {"runs": 2, "master_seed": 11},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


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
    grid = config.grid()
    obj1, _, sub1, sub2 = run_profiles(traj, grid, kind_from_name("sinusoid"))[0, 3]
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
    """`measures --workers 1` and `--workers 2` write identical bytes."""
    data = {"substrate": {"function": function},
            "evolution": {"generations": generations},
            "experiment": {"runs": runs, "master_seed": seed}}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = write_config(root, data)
        for workers in ("1", "2"):
            assert cli.main(["measures", "--config", str(cfg), "--out", str(root / workers),
                             "--workers", workers, "--format", "json"]) == 0
        for name in ("measures.csv", "measures.json"):
            assert (root / "1" / name).read_bytes() == (root / "2" / name).read_bytes()


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_cell_fails_the_json_mirror(tmp_path, value):
    """A mirror must be standard JSON: `repr` text of nan or inf fails the re-read."""
    with pytest.raises(RuntimeError, match=r"bad\.json"):
        cli.write_table(tmp_path / "bad.csv", cli.SNAPSHOT_HEADER,
                        [(0.0, value, 1.0, 2.0)], True)


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
    up to 1,001 runs. With scipy blocked, `measures` writes the same bytes."""
    cfg = write_config(tmp_path, SMOOTH_SMALL)
    batch = write_config(tmp_path, dict(SMOOTH_SMALL, experiment={"runs": 100}), "batch.json")
    scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    measures = ("assert coevoscape.cli.main(['measures', '--config', sys.argv[3], '--out', "
                "sys.argv[4], '--format', 'json']) == 0")
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
    ])
    blocked = "\n".join(["import sys", "sys.modules['scipy'] = None", "import coevoscape.cli",
                         measures])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def printed(code, out):
        proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "sim"),
                               str(batch), str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    assert printed(free, tmp_path / "free") == ["[]", "[]", "[]"]
    assert printed(blocked, tmp_path / "blocked") == []
    for name in ("measures.csv", "measures.json"):
        assert ((tmp_path / "blocked" / name).read_bytes()
                == (tmp_path / "free" / name).read_bytes())


def test_simulate_reproduces_run_zero_of_a_batch(tmp_path):
    """`simulate --seed S` writes run 0's snapshots of `measures --seed S`,
    here a batch of two blocks."""
    data = dict(SMOOTH_SMALL, experiment={"runs": 12, "snapshots": True})
    cfg = write_config(tmp_path, data)
    batch, single = tmp_path / "batch", tmp_path / "single"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(batch), "--seed", "21"]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(single), "--seed", "21",
                     "--generations", ",".join(str(k) for k in range(11))]) == 0
    for k in range(11):
        name = f"landscape_k{k}.csv"
        assert ((single / "snapshots" / name).read_bytes()
                == (batch / "snapshots" / "run_000" / name).read_bytes())


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


SUBSTRATES = ["crisp", "smooth", "ridge", "sinusoid"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("function", SUBSTRATES)
def test_measures_snapshot_files_match_per_value_text(tmp_path, function, fmt):
    """Every per-run snapshot file, and its JSON mirror, equals the text built
    cell by cell from `run_profiles` with the plain per-value expressions."""
    data = {"substrate": {"function": function},
            "evolution": {"generations": 4},
            "landscape": {"grid_points": 61},
            "experiment": {"runs": 3, "master_seed": 8, "snapshots": True}}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "meas"
    assert cli.main(["measures", "--config", str(cfg), "--out", str(out),
                     "--format", fmt]) == 0

    config = ExperimentConfig.from_dict(data)
    grid = config.grid()
    header = cli.SNAPSHOT_HEADER
    expected = {}
    for r in range(3):
        traj = run_trajectory(config, [trajectory_seed(8, r)])
        profiles = run_profiles(traj, grid, config.objective_kind())[0]
        for k in range(config.generations + 1):
            obj1, _, sub1, sub2 = profiles[k]
            rows = list(zip(grid, obj1, sub1, sub2))
            name = f"run_{r:03d}/landscape_k{k}"
            expected[f"{name}.csv"] = "\n".join(
                [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
            ) + "\n"
            if fmt == "json":
                records = [dict(zip(header, (float(v) for v in row))) for row in rows]
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
