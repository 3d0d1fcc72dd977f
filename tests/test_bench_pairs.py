"""Unit tests of tools/bench_pairs.py: the verdicts it prints, on synthetic
numbers and output trees, the output sweep's command lines, and the copy of
the working tree it runs the change from."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs: median 100, quartiles 99.25 and 101 (IQR 1.75)
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles(PARENT) == (99.25, 100.0, 101.0)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_gain_claimed_at_nine_wins_of_ten_and_a_gap_beyond_the_parent_iqr():
    change = [p + 10.0 for p in PARENT]
    change[3] = PARENT[3] - 1.0  # one loss
    verdict = bench_pairs.gain_verdict(PARENT, change, "higher")
    assert (verdict["wins"], verdict["losses"], verdict["ties"]) == (9, 1, 0)
    assert verdict["claimed"] and verdict["reasons"] == []


def test_eight_wins_of_ten_are_no_gain():
    change = [p + 10.0 for p in PARENT]
    change[3] = change[4] = 90.0
    verdict = bench_pairs.gain_verdict(PARENT, change, "higher")
    assert verdict["wins"] == 8 and not verdict["claimed"]


def test_ties_count_for_neither_side():
    change = [p + 10.0 for p in PARENT]
    change[0] = PARENT[0]
    verdict = bench_pairs.gain_verdict(PARENT, change, "higher")
    assert (verdict["wins"], verdict["losses"], verdict["ties"]) == (9, 0, 1)
    assert verdict["claimed"]
    change[1] = PARENT[1]
    assert not bench_pairs.gain_verdict(PARENT, change, "higher")["claimed"]


def test_every_pair_won_by_less_than_the_parent_iqr_is_no_gain():
    change = [p + 1.0 for p in PARENT]
    verdict = bench_pairs.gain_verdict(PARENT, change, "higher")
    assert verdict["wins"] == 10 and verdict["gap"] == 1.0
    assert verdict["parent_iqr"] == pytest.approx(1.75)
    assert not verdict["claimed"]


def test_fewer_than_ten_pairs_are_no_gain():
    verdict = bench_pairs.gain_verdict(PARENT[:9], [p + 10.0 for p in PARENT[:9]], "higher")
    assert verdict["wins"] == 9 and not verdict["claimed"]


def test_lower_is_better_reverses_the_direction():
    faster = [p - 10.0 for p in PARENT]
    assert bench_pairs.gain_verdict(PARENT, faster, "lower")["claimed"]
    assert not bench_pairs.gain_verdict(PARENT, faster, "higher")["claimed"]


def test_more_failed_batches_void_a_gain():
    change = [p + 10.0 for p in PARENT]
    assert bench_pairs.gain_verdict(PARENT, change, "higher", (0.0, 0.0))["claimed"]
    assert not bench_pairs.gain_verdict(PARENT, change, "higher", (0.0, 0.01))["claimed"]


def test_gain_verdict_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.gain_verdict(PARENT, PARENT[:9], "higher")


def test_bound_verdicts():
    # bound 5 %, relative to the parent's median of 100
    assert bench_pairs.bound_verdict(PARENT, [p + 2.0 for p in PARENT], "lower", 0.05) == "within"
    assert bench_pairs.bound_verdict(PARENT, [p + 6.0 for p in PARENT], "lower", 0.05) == "worse"
    assert bench_pairs.bound_verdict(PARENT, [p - 6.0 for p in PARENT], "higher", 0.05) == "worse"
    # every change run better than every parent run, however wide the spread
    assert bench_pairs.bound_verdict(PARENT, [200.0, 300.0], "higher", 0.05) == "better"
    wide = [80.0, 90.0, 100.0, 110.0, 120.0, 100.0, 95.0, 105.0, 85.0, 115.0]
    assert bench_pairs.bound_verdict(PARENT, wide, "lower", 0.05) == "unresolved"


def test_change_side_runs_from_a_fresh_copy_of_the_working_tree(tmp_path, monkeypatch):
    """The copy holds tracked files as the working tree has them, modified
    ones included, and untracked files git does not ignore, but no ignored
    benchmark work files."""
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / ".gitignore").write_text(".bench_work/\n")
    (root / "src" / "tracked.py").write_text("old\n")
    (root / "deleted.txt").write_text("gone\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], cwd=root, check=True)
    (root / "src" / "tracked.py").write_text("new\n")
    (root / "deleted.txt").unlink()
    (root / "tools").mkdir()
    (root / "tools" / "untracked.py").write_text("fresh\n")
    (root / ".bench_work").mkdir()
    (root / ".bench_work" / "record.json").write_text("{}")
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    copy = tmp_path / "change"
    bench_pairs.copy_worktree(copy)
    assert (copy / "src" / "tracked.py").read_text() == "new\n"
    assert (copy / "tools" / "untracked.py").read_text() == "fresh\n"
    assert sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file()) == [
        ".gitignore", "src/tracked.py", "tools/untracked.py"]


def test_output_verdict_reads_differ_when_one_byte_differs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "run_000").mkdir(parents=True)
        (root / "measures.csv").write_bytes(b"generation,mean\n0,0.25\n")
        (root / "run_000" / "landscape_k0.csv").write_bytes(b"x\n1.0\n")
    assert bench_pairs.compare_outputs(parent, change) == ("identical", 2, [])
    (change / "measures.csv").write_bytes(b"generation,mean\n0,0.26\n")
    assert bench_pairs.compare_outputs(parent, change) == ("differ", 2, ["measures.csv"])
    (change / "run_000" / "landscape_k1.csv").write_bytes(b"x\n1.0\n")
    assert bench_pairs.compare_outputs(parent, change) == (
        "differ", 2, ["run_000/landscape_k1.csv", "measures.csv"])


def test_sweep_runs_every_config_in_both_formats_at_one_and_two_workers(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for name in ("a", "b"):
        (configs / f"{name}.json").write_text('{"experiment": {"runs": 100, "master_seed": 3}}')
    commands = bench_pairs.sweep_commands(configs, tmp_path)
    outs = [argv[argv.index("--out") + 1] for argv in commands]
    assert len(set(outs)) == len(outs) == 2 * 2 * 2 * 4
    assert {(out.split("/")[0], argv[-3], argv[-1], argv[0]) for out, argv in
            zip(outs, commands)} == {(name, fmt, workers, command) for name in ("a", "b")
                                     for fmt in ("csv", "json") for workers in ("1", "2")
                                     for command in ("measures", "simulate", "landscape")}
    batch = json.loads((tmp_path / "a_measures_snapshots.json").read_text())
    assert batch["experiment"] == {"runs": bench_pairs.SWEEP_RUNS, "master_seed": 3,
                                   "snapshots": True}


OUTPUTS = {"verdict": "identical", "files": 2, "commands": 1, "differing": []}


def _fake_pairs(monkeypatch, batch_wall_s):
    """main's benchmark runs replaced by records whose batch_wall_s is
    `batch_wall_s(side, pair)` and whose other metrics are the same on both
    sides."""

    def package(into: Path, modules: dict[str, str]) -> None:
        (into / "src" / "coevoscape").mkdir(parents=True)
        for name, text in modules.items():
            (into / "src" / "coevoscape" / name).write_text(text)

    # 5 lines in the parent's package and 3 in the change's; other files do not count
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: package(
        into, {"a.py": "1\n2\n", "b.py": "1\n2\n3\n", "c.txt": "1\n"}))
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda into: package(
        into, {"a.py": "1\n2\n3\n"}))
    monkeypatch.setattr(bench_pairs, "output_sweep", lambda trees, work: OUTPUTS)
    monkeypatch.setattr(bench_pairs, "git_commit", lambda rev: f"commit of {rev}")

    def run_bench(tree, workload, seed, seconds):
        side = tree.name
        values = {"setup_s": 0.2, "batch_wall_s": batch_wall_s(side, seed - 1),
                  "runs_per_s": PARENT[seed - 1], "peak_rss_mb": 60.0}
        return {"metrics": {name: {"value": v} for name, v in values.items()},
                "failed": 0, "attempted": 10}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)


def test_a_lower_is_better_claim_is_judged_in_its_direction(monkeypatch, capsys):
    # the change's batches take 10 % of the parent's time in every pair
    _fake_pairs(monkeypatch, lambda side, i: PARENT[i] / (1 if side == "parent" else 10))
    argv = ["--parent", "HEAD", "--workload", "w", "--seconds", "1"]
    assert bench_pairs.main([*argv, "--claim", "batch_wall_s"]) == 0
    claim = capsys.readouterr().out.splitlines()[-1]
    assert claim.startswith("claim batch_wall_s: won 10/10") and "gain may be claimed" in claim
    # the default claim, runs_per_s, reads the same on both sides
    assert bench_pairs.main(argv) == 0
    claim = capsys.readouterr().out.splitlines()[-1]
    assert claim.startswith("claim runs_per_s: won 0/10") and "NOT MET" in claim


@pytest.mark.parametrize("name", ["import.total_s", "nonesuch"])
def test_a_claim_outside_the_end_to_end_metrics_is_an_argument_error(monkeypatch, capsys, name):
    _fake_pairs(monkeypatch, lambda side, i: 1.0)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--seconds", "1",
                          "--claim", name])
    assert exit_info.value.code == 2
    assert "--claim" in capsys.readouterr().err


def test_record_round_trips_through_json(tmp_path, monkeypatch, capsys):
    """--record writes what the run printed as JSON that reads back to the
    same values; a second run of the same parent and change adds an entry,
    and a record of another parent is refused before any pair runs."""
    _fake_pairs(monkeypatch, lambda side, i: PARENT[i] / (1 if side == "parent" else 2))
    path = tmp_path / "BENCH.json"
    argv = ["--workload", "w", "--seconds", "1", "--record", str(path)]
    assert bench_pairs.main(["--parent", "HEAD", *argv]) == 0
    text = path.read_text()
    record = json.loads(text)
    assert json.dumps(record, indent=2) + "\n" == text
    assert record["parent"] == "commit of HEAD"
    assert record["change"]["base"] == "commit of HEAD"
    [entry] = record["entries"]
    assert (entry["workload"], entry["pairs"], entry["seeds"]) == ("w", 10, [1, 10])
    assert entry["outputs"] == OUTPUTS
    assert entry["src_lines"] == {"parent": 5, "change": 3}
    assert set(entry["machine"]) == {"cpus", "python", "numpy"}
    wall = entry["metrics"]["batch_wall_s"]
    assert wall["parent"] == {"runs": PARENT, "quartiles": [99.25, 100.0, 101.0]}
    assert wall["change"]["quartiles"] == [99.25 / 2, 50.0, 50.5]
    assert (wall["wins"], wall["verdict"]) == (10, "better")
    assert entry["metrics"]["setup_s"]["verdict"] == "within"
    assert entry["claim"]["metric"] == "runs_per_s" and not entry["claim"]["claimed"]
    out = capsys.readouterr().out
    assert out.count("change better in 10/10") == 1
    assert "src/coevoscape/*.py: 5 lines in the parent, 3 in the change" in out

    assert bench_pairs.main(["--parent", "HEAD", *argv]) == 0
    assert len(json.loads(path.read_text())["entries"]) == 2
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: pytest.fail("ran a pair"))
    with pytest.raises(SystemExit, match="records another parent or change"):
        bench_pairs.main(["--parent", "other", *argv])
    assert len(json.loads(path.read_text())["entries"]) == 2
