"""Unit tests of the verdicts tools/bench_pairs.py prints, on synthetic numbers."""

from __future__ import annotations

import importlib.util
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
