"""Golden outputs: the CLI must reproduce the committed files byte for byte.

Each case is a shipped config (or the crisp variant of the standard setup)
cut to RUNS runs at master seed SEED. For every case the files under
tests/golden/<case>/ are the `measures` batch output, and the `simulate`
trajectory plus one landscape snapshot of run 0. A `measures` batch with
per-run snapshots must reproduce the same measures and, for run 0, the same
snapshot.

The files pin the RNG stream. Re-record them only for a declared stream
change, with `PYTHONPATH=src python tests/golden/regenerate.py`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from coevoscape import cli

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
}


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
    """Write the case's three golden files into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    config = str(case_config(case, out))
    common = ["--config", config, "--seed", str(SEED), "--out", str(out)]
    if cli.main(["measures", *common, "--workers", str(workers)]) != 0:
        raise RuntimeError(f"measures failed for {case}")
    if cli.main(["simulate", *common, "--generations", str(SNAPSHOT_GENERATION)]) != 0:
        raise RuntimeError(f"simulate failed for {case}")
    (out / "snapshots" / SNAPSHOT_FILE).replace(out / SNAPSHOT_FILE)
    (out / "snapshots").rmdir()
    Path(config).unlink()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_files(tmp_path, case):
    produce(case, tmp_path)
    for name in GOLDEN_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / case / name).read_bytes(), name


def test_parallel_measures_match_golden_file(tmp_path):
    produce("smooth_competitive", tmp_path, workers=2)
    golden = GOLDEN_DIR / "smooth_competitive" / "measures.csv"
    assert (tmp_path / "measures.csv").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_per_run_snapshots_match_golden_files(tmp_path, case):
    config = case_config(case, tmp_path, snapshots=True)
    out = tmp_path / "out"
    assert cli.main(["measures", "--config", str(config), "--seed", str(SEED),
                     "--out", str(out)]) == 0
    golden = GOLDEN_DIR / case
    assert (out / "measures.csv").read_bytes() == (golden / "measures.csv").read_bytes()
    snapshot = out / "snapshots" / "run_000" / SNAPSHOT_FILE
    assert snapshot.read_bytes() == (golden / SNAPSHOT_FILE).read_bytes()
