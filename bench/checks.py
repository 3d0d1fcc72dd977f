"""Output checks applied to every batch the benchmark runs.

A batch fails when its program exits non-zero, raises, or any check below
reports a problem. The checks know the output format from the README, not
from the program's own constants, so a change to the format shows here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from scipy.special import stdtrit

MEASURES_HEADER = "generation,population,measure,mean,ci_lo,ci_hi"
SNAPSHOT_HEADER = b"x,f_obj,f_sub_p1,f_sub_p2"
POPULATIONS = ("P1", "P2")
MEASURES = ("dist", "kld", "bhatt")

# Agreement with the reference: each row's mean may differ from the
# reference mean by at most Z_TOLERANCE standard errors of that difference,
# sqrt(se^2 + se_ref^2) from the two 95% intervals, plus an absolute floor
# for zero-variance rows. The batch's own error must be included: kld has
# heavy tails, and one outlying run moves a mean by many reference errors
# while widening its own interval. Over 8,000 rows of batches at other seeds
# the largest difference was 3.3 errors; a moved number or a broken measure
# is far beyond 6.
Z_TOLERANCE = 6.0
ABS_TOLERANCE = 1e-9


@dataclass
class Tally:
    """Attempted and failed batches, with every problem named by its batch."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _parse(text: str) -> tuple[list[tuple[str, str, str, float, float, float]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != MEASURES_HEADER:
        return [], [f"bad header {lines[0] if lines else ''!r}"]
    rows, problems = [], []
    for n, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        try:
            if len(parts) != 6:
                raise ValueError("wrong field count")
            rows.append((parts[0], parts[1], parts[2], *(float(v) for v in parts[3:])))
        except ValueError as e:
            problems.append(f"row {n} {line!r}: {e}")
    return rows, problems


def check_measures(text: str, generations: int) -> list[str]:
    """Schema and invariants of one measures.csv."""
    rows, problems = _parse(text)
    if problems or not rows:
        return problems or ["no rows"]
    expected = [(str(k), pop, m) for k in range(generations + 1)
                for pop in POPULATIONS for m in MEASURES]
    if len(rows) != len(expected):
        problems.append(f"expected {len(expected)} rows, found {len(rows)}")
    for row, key in zip(rows, expected):
        label = "/".join(row[:3])
        if row[:3] != key:
            problems.append(f"row {label} out of order, expected {'/'.join(key)}")
        mean, lo, hi = row[3:]
        if not all(math.isfinite(v) for v in (mean, lo, hi)):
            problems.append(f"{label}: non-finite value")
        elif not lo <= mean <= hi:
            problems.append(f"{label}: mean {mean} outside [{lo}, {hi}]")
        elif row[2] == "kld" and mean < 0:
            problems.append(f"{label}: kld {mean} < 0")
        elif row[2] == "bhatt" and not 0.0 <= mean <= 1.0:
            problems.append(f"{label}: bhatt {mean} outside [0, 1]")
    return problems


def reference_problems(text: str, reference: str, runs: int) -> list[str]:
    """Rows whose mean disagrees with the reference beyond the tolerance."""
    rows, problems = _parse(text)
    ref_rows, ref_problems = _parse(reference)
    problems += [f"reference: {p}" for p in ref_problems]
    if not problems and len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows against {len(ref_rows)} in the reference")
    if problems:
        return problems
    t = float(stdtrit(runs - 1, 0.975))
    out = []
    for row, ref in zip(rows, ref_rows):
        se = (row[5] - row[4]) / (2 * t)
        se_ref = (ref[5] - ref[4]) / (2 * t)
        tol = Z_TOLERANCE * math.hypot(se, se_ref) + ABS_TOLERANCE
        if row[:3] != ref[:3] or not abs(row[3] - ref[3]) <= tol:
            out.append(f"{'/'.join(row[:3])}: mean {row[3]} vs reference {ref[3]} "
                       f"(tolerance {tol:.3g})")
    return out


def check_snapshots(root: Path, pattern: str, expected: int, grid_points: int
                    ) -> list[str]:
    """Count, header, row count and finiteness of every snapshot file under root."""
    files = sorted(root.glob(pattern))
    problems = []
    if len(files) != expected:
        problems.append(f"expected {expected} snapshot files, found {len(files)}")
    for path in files:
        data = path.read_bytes()
        lines = data.split(b"\n")
        if lines[0] != SNAPSHOT_HEADER or lines[-1] != b"" or len(lines) != grid_points + 2:
            problems.append(f"{path.relative_to(root)}: bad header or row count")
        elif b"nan" in data or b"inf" in data:
            problems.append(f"{path.relative_to(root)}: non-finite value")
    return problems


def tree_differences(a: Path, b: Path) -> list[str]:
    """Files that differ in name or bytes between two output directories."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"{n} only in one output" for n in sorted(names_a ^ names_b)]
    for name in sorted(names_a & names_b):
        if (a / name).read_bytes() != (b / name).read_bytes():
            problems.append(f"{name} differs")
    return problems
