"""Workload definitions and the inputs the benchmark generates for them.

Every config the program receives is written by the benchmark into its work
directory. The base configs below are copies of the shipped
`configs/*_competitive.json` files, embedded so that a change to the shipped
files cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

RUNS = 100
GENERATIONS = 10
GRID_POINTS = 301
# master seed of the recorded reference outputs in bench/reference/
REFERENCE_SEED = 1

_SMOOTH = {
    "substrate": {"function": "smooth"},
    "evolution": {
        "pop_size": 24,
        "sample_size": 12,
        "tournament_size": 2,
        "mutation_prob": 0.5,
        "mutation_sigma": 0.1,
        "generations": GENERATIONS,
    },
    "interaction": {"task_p1": "minimize", "task_p2": "maximize"},
    "landscape": {"grid_points": GRID_POINTS},
    "experiment": {"runs": RUNS, "master_seed": 1},
}
_RIDGE = {
    "substrate": {"function": "ridge", "ridge_n": 8.0},
    "interaction": {"task_p1": "minimize", "task_p2": "maximize"},
    "experiment": {"runs": RUNS, "master_seed": 1},
}
_SINUSOID = {
    "substrate": {"function": "sinusoid"},
    "interaction": {"task_p1": "minimize", "task_p2": "maximize"},
    "experiment": {"runs": RUNS, "master_seed": 1},
}


def _variant(base: dict, section: str, key: str, value) -> dict:
    out = copy.deepcopy(base)
    out.setdefault(section, {})[key] = value
    return out


# config name -> (config, name of the reference whose measures.csv it must match)
CONFIGS = {
    "smooth": (_SMOOTH, "smooth"),
    # crisp twin: same populations on the crisp substrate, whose flat tails
    # give many exact ties that "strictly beats" must keep
    "crisp": (_variant(_SMOOTH, "substrate", "function", "crisp"), "crisp"),
    "ridge": (_RIDGE, "ridge"),
    "sinusoid": (_SINUSOID, "sinusoid"),
    # snapshots do not touch the RNG, so measures.csv equals the smooth one
    "smooth_snapshots": (_variant(_SMOOTH, "experiment", "snapshots", True), "smooth"),
}


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]
    workers: int = 1

    def snapshots(self, config: str) -> bool:
        return bool(CONFIGS[config][0]["experiment"].get("snapshots", False))


WORKLOADS = {
    "testbased": Workload(("smooth", "crisp")),
    "compositional": Workload(("ridge", "sinusoid")),
    "snapshots": Workload(("smooth_snapshots",)),
    "parallel": Workload(("smooth",), workers=2),
}


def derive_seed(*parts) -> int:
    """Deterministic 31-bit seed from the workload name, workload seed and an index."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def write_configs(workdir: Path, names, master_seed: int) -> dict[str, Path]:
    """Write each named config, and its snapshot-free twin `<name>.nosnap`, into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        for variant, snapshots in ((name, None), (f"{name}.nosnap", False)):
            data = copy.deepcopy(CONFIGS[name][0])
            data["experiment"]["master_seed"] = master_seed
            if snapshots is not None:
                data["experiment"]["snapshots"] = snapshots
            path = workdir / f"{variant}.json"
            path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
            paths[variant] = path
    return paths
