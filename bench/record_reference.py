"""Record the reference outputs the benchmark compares every batch against.

    python3 bench/record_reference.py

Writes bench/reference/<config>.csv: the measures.csv of each reference
config at REFERENCE_SEED, produced by this checkout's src/. Re-record only
in a change that declares a new RNG stream; otherwise the recorded files are
what later code is checked against.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from workloads import CONFIGS, REFERENCE_SEED, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from coevoscape import cli

    work = ROOT / ".bench_work" / "reference"
    names = sorted({reference for _, reference in CONFIGS.values()})
    configs = write_configs(work, names, REFERENCE_SEED)
    for name in names:
        out = work / name
        if cli.main(["measures", "--config", str(configs[name]),
                     "--seed", str(REFERENCE_SEED), "--out", str(out)]) != 0:
            return 1
        shutil.copyfile(out / "measures.csv", HERE / "reference" / f"{name}.csv")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
