"""Re-record the golden output files from the current code.

Run from the repository root after a declared RNG-stream change:

    PYTHONPATH=src python tests/golden/regenerate.py

Every case in tests/test_golden.py is rewritten in place; review the diff
before committing it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, GOLDEN_DIR, produce  # noqa: E402

for case in sorted(CASES):
    produce(case, GOLDEN_DIR / case)
    print(f"recorded {GOLDEN_DIR / case}")
