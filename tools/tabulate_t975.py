"""Write the Student-t quantile table that `coevoscape.experiment.ci95` reads.

    python tools/tabulate_t975.py

Rewrites src/coevoscape/t975.txt from the installed scipy: line df holds
`repr(float(scipy.special.stdtrit(df, 0.975)))` for df = 1..DF_MAX, so each
value reloads bit for bit. `ci95` falls back to scipy beyond DF_MAX, so the
table and the fallback must come from the same scipy: tests/test_experiment.py
compares this script's text with the committed file.
"""

from __future__ import annotations

from pathlib import Path

TABLE = Path(__file__).resolve().parents[1] / "src" / "coevoscape" / "t975.txt"
DF_MAX = 1000


def table_text() -> str:
    from scipy.special import stdtrit

    return "".join(f"{float(stdtrit(df, 0.975))!r}\n" for df in range(1, DF_MAX + 1))


if __name__ == "__main__":
    TABLE.write_text(table_text(), encoding="ascii")
    print(f"wrote {TABLE} (df 1..{DF_MAX})")
