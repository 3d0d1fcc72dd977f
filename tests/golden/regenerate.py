"""Re-record the golden output files from the current code.

Run from the repository root after a declared RNG-stream change:

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

Each named case in tests/test_golden.py is rewritten in place, or every
case when none is named; record a new case on its own by naming it. An
unknown name exits with status 2 and writes nothing. Review the diff before
committing it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, GOLDEN_DIR, produce  # noqa: E402


def main(argv: list[str]) -> int:
    unknown = [case for case in argv if case not in CASES]
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; known cases: {', '.join(sorted(CASES))}",
              file=sys.stderr)
        return 2
    for case in argv or sorted(CASES):
        produce(case, GOLDEN_DIR / case)
        print(f"recorded {GOLDEN_DIR / case}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
