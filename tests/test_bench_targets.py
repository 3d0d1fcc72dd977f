"""The benchmark times each layer by patching the functions that
bench/tracing.py names, where their callers look them up. A target that no
longer resolves is skipped, and its per-layer metric silently reads 0, so a
rename or deletion in the package must fail here instead."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Targets whose functions were deleted before the tracer was last updated:
# their metrics already read 0 (ROADMAP, "Mend the benchmark").
DEAD = {
    "coevoscape.evolution.evaluate_test",
    "coevoscape.evolution.evaluate_compositional",
    "coevoscape.evolution.tournament_select",
    "coevoscape.evolution.mutate",
    "coevoscape.cli.snapshot_profiles",
    "coevoscape.experiment.ProcessPoolExecutor",
}


def _tracing(monkeypatch):
    """bench/tracing.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(where: str, attr: str) -> bool:
    """Whether `attr` is defined on the module (or module:class) `where`
    itself, as the tracer requires before it patches it there."""
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    owner = getattr(owner, class_name, None) if class_name else owner
    return owner is not None and attr in vars(owner)


def test_every_live_tracer_target_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    targets = tracing.FUNCTION_TARGETS + (tracing.POOL_TARGET,)
    missing = {f"{where}.{attr}" for _, where, attr in targets if not _resolves(where, attr)}
    assert missing <= DEAD
