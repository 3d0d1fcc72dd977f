"""The benchmark's own tests: its checks must catch bad output and crashes.

    python3 -m pytest bench/test_checks.py

Every perturbation works on a scratch copy of a recorded reference in a
temporary directory and goes through the same check and tally path the
benchmark uses for each batch.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import Tally, check_measures, reference_problems  # noqa: E402
from tracing import Tracer, parse_importtime  # noqa: E402
from workloads import CONFIGS, GENERATIONS, RUNS  # noqa: E402

REFERENCE = HERE / "reference" / "smooth.csv"


@pytest.fixture
def bench(tmp_path):
    return run.Bench("testbased", 1, 1.0, tmp_path / "work")


def _scratch_output(tmp_path: Path, name: str, edit=None) -> Path:
    out = tmp_path / name
    out.mkdir()
    text = REFERENCE.read_text(encoding="utf-8")
    (out / "measures.csv").write_text(edit(text) if edit else text, encoding="utf-8")
    return out


def _replace_field(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_every_reference_passes_its_own_checks():
    for name in {reference for _, reference in CONFIGS.values()}:
        text = (HERE / "reference" / f"{name}.csv").read_text(encoding="utf-8")
        assert check_measures(text, GENERATIONS) == []
        assert reference_problems(text, text, RUNS) == []


@pytest.mark.parametrize("edit, expected", [
    # a mean moved far outside its interval and the reference tolerance
    (lambda t: _replace_field(t, 1, 3, "0.9"), "outside"),
    # bhatt row (generation 0, P1) pushed above 1 together with its interval
    (lambda t: _replace_field(_replace_field(_replace_field(t, 3, 5, "1.7"), 3, 4, "1.3"),
                              3, 3, "1.5"), "bhatt"),
    # a row dropped
    (lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "expected 66 rows"),
    # a value that is not finite
    (lambda t: _replace_field(t, 2, 4, "nan"), "non-finite"),
    # the whole row (mean and interval) shifted by 0.05
    (lambda t: _replace_field(_replace_field(_replace_field(t, 1, 3, "0.219"), 1, 4, "0.212"),
                              1, 5, "0.226"), "reference"),
])
def test_perturbed_csv_counts_as_failed(bench, tmp_path, edit, expected):
    out = _scratch_output(tmp_path, "perturbed", edit)
    tally = Tally()
    problems = bench.check(out, "smooth")
    tally.record("perturbed", problems)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any(expected in p for p in problems), problems


def test_last_digit_change_breaks_twin_identity(bench, tmp_path):
    out = _scratch_output(tmp_path, "cli")
    twin = _scratch_output(tmp_path, "inproc", lambda t: t.replace("0.1690873039793865",
                                                                   "0.1690873039793866"))
    assert bench.check(out, "smooth") == []
    assert bench.check(twin, "smooth") == []  # within the statistical tolerance
    problems = bench.check(out, "smooth", (twin,))
    assert problems == ["twin inproc: measures.csv differs"]


def test_crashing_cli_run_counts_as_failed(bench, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"evolution": {"sample_size": 99}}', encoding="utf-8")
    out = tmp_path / "out"
    code, wall, rss, err = bench.run_cli(
        ["measures", "--config", str(bad), "--seed", "1", "--out", str(out)],
        tmp_path / "stderr")
    tally = Tally()
    tally.record("crash", [] if code == 0 else [f"CLI exit {code}: {err}"])
    assert code != 0 and "sample_size" in err
    assert (tally.attempted, tally.failed) == (1, 1)


def test_crashing_in_process_run_counts_as_failed(bench, tmp_path, monkeypatch):
    from coevoscape import experiment

    def explode(*args, **kwargs):
        raise FloatingPointError("injected crash")

    monkeypatch.setattr(experiment, "run_trajectory", explode)
    _, problems = bench.in_process(bench.measures_args("smooth", 1, 1, tmp_path / "out"))
    tally = Tally()
    tally.record("crash", problems)
    assert problems == ["in-process measures returned 1"]
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tracer_restores_functions_and_reports_missing_targets(monkeypatch):
    import tracing
    from coevoscape import cli, evolution, experiment

    originals = (evolution.draw_sample, cli.write_table,
                 experiment.ExperimentConfig.__dict__["from_file"])
    monkeypatch.setattr(tracing, "FUNCTION_TARGETS", tracing.FUNCTION_TARGETS + (
        ("evolution.removed", "coevoscape.evolution", "no_such_function"),))
    tracer = Tracer()
    tracer.install()
    assert evolution.draw_sample is not originals[0]
    tracer.uninstall()
    assert (evolution.draw_sample, cli.write_table,
            experiment.ExperimentConfig.__dict__["from_file"]) == originals
    assert tracer.missing == {"coevoscape.evolution.no_such_function"}


def test_parse_importtime_sums_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy.stats._a",
        "import time:       200 |        300 |       scipy.stats._b",
        "import time:        50 |        400 |     coevoscape.experiment",
        "import time:        10 |        500 |   coevoscape",
        "import time:        20 |        700 | coevoscape.cli",
        "import time:        30 |         30 | json",
    ])
    assert parse_importtime(stderr) == (pytest.approx(700e-6), pytest.approx(300e-6))


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile([float(v) for v in range(20)]) == (50, 9.0, 20)


def test_missing_program_exits_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "testbased",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
