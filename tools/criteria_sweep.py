"""Measure the acceptance gate's nine criteria over a range of seeds.

    PYTHONPATH=src python tools/criteria_sweep.py --seeds 1-50

tests/test_acceptance.py checks each criterion at one seed. This script
calls the same measuring functions at every seed of the range: the master
seed of the standard-setup batches (criteria 4 and 6-9) and the seed of the
random inputs (criteria 2, 3 and 5; criterion 1 draws nothing). It prints
one row per seed with each criterion's number, a star marking a number that
misses the gate's threshold, then the share of seeds that pass each
criterion and the quartiles of criterion 6's ratio.

It is a report, not a gate: use it to see how far one seed's verdict
generalises, never to pick a seed, a stream or a config.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_acceptance as gate  # noqa: E402

from coevoscape.experiment import ExperimentConfig, run_batch  # noqa: E402

# what each column shows; a seed passes when its number meets the
# threshold tests/test_acceptance.py asserts
COLUMNS = (
    ("c1", "anchors exact, of 11"),
    ("c2", "off-lattice subjective values (0)"),
    ("c3", "sup gap, subjective vs objective (<= 0.03)"),
    ("c4", "compositional profile mismatches (0)"),
    ("c5", "failed measure checks (0)"),
    ("c6", "cooperative / competitive population gap (< 0.5 and cooperative above)"),
    ("c7", "largest late / early distance change (< 1)"),
    ("c8", "sinusoid / smooth interval width at k=5 (> 1)"),
    ("c9", "determinism and schema checks failed (0)"),
)


def measure(seed: int) -> list[tuple[float, bool]]:
    """(number, passed) for each criterion at `seed`."""
    comp = run_batch(ExperimentConfig(master_seed=seed))
    coop = run_batch(ExperimentConfig(task_p1="maximize", master_seed=seed))
    sinusoid = run_batch(ExperimentConfig(function="sinusoid", master_seed=seed))
    anchors = gate.anchor_checks()
    bad = gate.off_lattice_values(seed)
    gap = gate.subjective_gap(seed)
    mismatches = gate.profile_mismatches(seed)
    failed = gate.failed_measure_checks(seed)
    ratio, coop_above = gate.cooperative_gap(comp, coop)
    change = max(late / early for late, early in gate.distance_changes(comp))
    w_sin, w_smooth = gate.interval_widths(comp, sinusoid)
    with tempfile.TemporaryDirectory() as directory:
        deterministic, schema_ok, rows = gate.output_checks(Path(directory), seed, comp)
    output_failures = (not deterministic) + (not schema_ok) + (rows != 66)
    return [
        (sum(anchors), all(anchors)),
        (bad, bad == 0),
        (gap, gap <= 0.03),
        (mismatches, mismatches == 0),
        (len(failed), not failed),
        (ratio, ratio < 0.5 and coop_above),
        (change, change < 1),
        (w_sin / w_smooth, w_sin > w_smooth),
        (output_failures, output_failures == 0),
    ]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range A-B (or one seed A)")
    seeds = parser.parse_args(argv).seeds
    for name, meaning in COLUMNS:
        print(f"{name}: {meaning}")
    print("seed " + " ".join(f"{name:>8}" for name, _ in COLUMNS))
    results = []
    for seed in seeds:
        row = measure(seed)
        results.append(row)
        print(f"{seed:>4} " + " ".join(f"{value:>7.4g}{' ' if ok else '*'}"
                                       for value, ok in row), flush=True)
    passed = np.array([[ok for _, ok in row] for row in results])
    print("pass " + " ".join(f"{share:>8.0%}" for share in passed.mean(axis=0)))
    ratios = [row[5][0] for row in results]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    print(f"criterion 6 ratio over {len(seeds)} seeds: q1 {q1:.3f}, median {median:.3f}, "
          f"q3 {q3:.3f}; below 0.5 at {np.sum(np.array(ratios) < 0.5)} seeds")


if __name__ == "__main__":
    main()
