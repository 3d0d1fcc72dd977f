"""Golden outputs: the CLI must reproduce the committed files byte for byte.

Each case is a shipped config (or a variant of one) cut to RUNS runs at
master seed SEED. For every case the files under tests/golden/<case>/ are
the `measures` batch output, and the `simulate` trajectory plus one
landscape snapshot of run 0. A `measures` batch with per-run snapshots must
reproduce the same measures and, for run 0, the same snapshot. The cases in
JSON_CASES run with `--format json`, so their JSON mirrors are pinned too.

The files pin the RNG stream. Re-record them only for a declared stream
change, with `PYTHONPATH=src python tests/golden/regenerate.py`, or record
a new case on its own by naming it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from coevoscape import cli, experiment

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
RUNS = 8
SEED = 3
SNAPSHOT_GENERATION = 5
SNAPSHOT_FILE = f"landscape_k{SNAPSHOT_GENERATION}.csv"
GOLDEN_FILES = ("measures.csv", "trajectory.csv", SNAPSHOT_FILE)

# case name -> (shipped config, section overrides)
CASES = {
    "smooth_competitive": ("smooth_competitive.json", {}),
    "smooth_cooperative": ("smooth_cooperative.json", {}),
    "ridge_competitive": ("ridge_competitive.json", {}),
    "sinusoid_competitive": ("sinusoid_competitive.json", {}),
    "crisp_competitive": ("smooth_competitive.json", {"substrate": {"function": "crisp"}}),
    # every switch off its default: P1 maximising picks the other reference
    # partner row, and both landscape switches change every measure
    "switches_ridge": ("ridge_competitive.json", {
        "substrate": {"ridge_n": 6.0},
        "interaction": {"task_p1": "maximize"},
        "evolution": {"init_interval_p1": [1.0, 5.0]},
        "landscape": {"bhatt_mode": "verbatim", "dist_grid_factor": False},
    }),
    "switches_crisp": ("smooth_competitive.json", {
        "substrate": {"function": "crisp"},
        "evolution": {"sample_with_replacement": True, "init_interval_p2": [-2.0, 2.5]},
        "landscape": {"bhatt_mode": "verbatim", "dist_grid_factor": False},
    }),
}
# cases run with --format json: each golden file's .json mirror is pinned too
JSON_CASES = ("switches_ridge", "switches_crisp")


def case_format(case: str) -> str:
    return "json" if case in JSON_CASES else "csv"


def golden_files(case: str) -> tuple[str, ...]:
    if case not in JSON_CASES:
        return GOLDEN_FILES
    return GOLDEN_FILES + tuple(str(Path(name).with_suffix(".json")) for name in GOLDEN_FILES)


def case_config(case: str, directory: Path, snapshots: bool = False) -> Path:
    """Write the case's config, cut to RUNS runs, into `directory`."""
    name, overrides = CASES[case]
    data = json.loads((ROOT / "configs" / name).read_text())
    for section, values in overrides.items():
        data.setdefault(section, {}).update(values)
    data.setdefault("experiment", {})["runs"] = RUNS
    if snapshots:
        data["experiment"]["snapshots"] = True
    path = directory / f"{case}.json"
    path.write_text(json.dumps(data))
    return path


def produce(case: str, out: Path, workers: int = 1) -> None:
    """Write the case's golden files into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    config = str(case_config(case, out))
    common = ["--config", config, "--seed", str(SEED), "--out", str(out),
              "--format", case_format(case)]
    if cli.main(["measures", *common, "--workers", str(workers)]) != 0:
        raise RuntimeError(f"measures failed for {case}")
    if cli.main(["simulate", *common, "--generations", str(SNAPSHOT_GENERATION)]) != 0:
        raise RuntimeError(f"simulate failed for {case}")
    for snapshot in (out / "snapshots").iterdir():
        snapshot.replace(out / snapshot.name)
    (out / "snapshots").rmdir()
    Path(config).unlink()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_files(tmp_path, case):
    produce(case, tmp_path)
    for name in golden_files(case):
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / case / name).read_bytes(), name


def test_parallel_measures_match_golden_file(tmp_path, monkeypatch):
    # two usable CPUs, so the batch forks a worker on any runner
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    produce("smooth_competitive", tmp_path, workers=2)
    golden = GOLDEN_DIR / "smooth_competitive" / "measures.csv"
    assert (tmp_path / "measures.csv").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_per_run_snapshots_match_golden_files(tmp_path, case):
    config = case_config(case, tmp_path, snapshots=True)
    out = tmp_path / "out"
    assert cli.main(["measures", "--config", str(config), "--seed", str(SEED),
                     "--out", str(out), "--format", case_format(case)]) == 0
    golden = GOLDEN_DIR / case
    for name in golden_files(case):
        if name.startswith("measures"):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name
        elif name.startswith("landscape"):
            snapshot = out / "snapshots" / "run_000" / name
            assert snapshot.read_bytes() == (golden / name).read_bytes(), name


def test_regenerate_records_only_the_cases_it_is_given(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN_DIR / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    monkeypatch.setattr(regenerate, "GOLDEN_DIR", tmp_path)

    assert regenerate.main(["switches_ridge", "nonesuch"]) == 2
    err = capsys.readouterr().err
    assert "nonesuch" in err and all(case in err for case in CASES)
    assert not any(tmp_path.iterdir())

    assert regenerate.main(["switches_ridge"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["switches_ridge"]
    for name in golden_files("switches_ridge"):
        recorded = tmp_path / "switches_ridge" / name
        assert recorded.read_bytes() == (GOLDEN_DIR / "switches_ridge" / name).read_bytes(), name

    produced = []
    monkeypatch.setattr(regenerate, "produce", lambda case, out: produced.append((case, out)))
    assert regenerate.main([]) == 0
    assert produced == [(case, tmp_path / case) for case in sorted(CASES)]
