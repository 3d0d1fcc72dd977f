"""Per-layer tracing from outside the program.

The tracer replaces each public function the benchmark times with a wrapper,
at the name its caller looks up (a function imported into another module is
patched in that module), and restores the originals afterwards. Spans stay in
memory; a span is [name, start, end, parent span index, batch id]. A target
that the program no longer has is listed in `missing` instead of failing.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import pickle
import re
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("substrate", "evolution", "landscape", "experiment", "cli")
ROOT_SPAN = "bench.batch"

# (span name, module[:class], attribute) -- the attribute is patched where
# the caller looks it up, so e.g. substrate.draw_sample is patched inside
# coevoscape.evolution.
FUNCTION_TARGETS = (
    ("substrate.draw_sample", "coevoscape.evolution", "draw_sample"),
    ("substrate.subjective_test", "coevoscape.evolution", "subjective_test"),
    ("substrate.subjective_compositional", "coevoscape.evolution", "subjective_compositional"),
    ("evolution.run_trajectory", "coevoscape.experiment", "run_trajectory"),
    ("evolution.run_trajectory", "coevoscape.cli", "run_trajectory"),
    ("evolution.evaluate_test", "coevoscape.evolution", "evaluate_test"),
    ("evolution.evaluate_compositional", "coevoscape.evolution", "evaluate_compositional"),
    ("evolution.tournament_select", "coevoscape.evolution", "tournament_select"),
    ("evolution.mutate", "coevoscape.evolution", "mutate"),
    ("landscape.measure_generation", "coevoscape.experiment", "measure_generation"),
    ("landscape.objective_profile", "coevoscape.landscape", "objective_profile"),
    ("landscape.subjective_profile_test", "coevoscape.landscape", "subjective_profile_test"),
    ("landscape.subjective_profile_comp", "coevoscape.landscape", "subjective_profile_comp"),
    ("landscape.dist", "coevoscape.landscape", "dist"),
    ("landscape.kld", "coevoscape.landscape", "kld"),
    ("landscape.bhatt", "coevoscape.landscape", "bhatt"),
    ("landscape.to_distribution", "coevoscape.landscape", "to_distribution"),
    ("landscape.snapshot_profiles", "coevoscape.cli", "snapshot_profiles"),
    ("experiment.config_load", "coevoscape.experiment:ExperimentConfig", "from_file"),
    ("experiment.run_batch", "coevoscape.cli", "run_batch"),
    ("experiment.aggregate", "coevoscape.experiment:MeasureSeries", "from_runs"),
    ("experiment.ci95", "coevoscape.experiment", "ci95"),
    ("cli.write_table", "coevoscape.cli", "write_table"),
)
POOL_TARGET = ("experiment.pool", "coevoscape.experiment", "ProcessPoolExecutor")


def _nbytes(obj) -> int:
    """Bytes held in numpy arrays reachable from states through lists and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _owner(where: str):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self.profiles: dict[object, set] = defaultdict(set)
        self.missing: set[str] = set()
        self.batch = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else None, self.batch])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def run_batch(self, batch, fn, *args):
        """Call fn(*args) under a root span for one batch."""
        self.batch = batch
        root = self.open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self.close(root)
            self.batch = None

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.batch]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters computed at the boundaries --------------------------------

    def _after(self, name: str):
        count = lambda key, value: self.counts[self.batch].update({key: value})  # noqa: E731
        if name == "evolution.run_trajectory":
            return lambda args, states: count("retained_bytes", _nbytes(states))
        if name == "landscape.objective_profile":
            def note(args, profile):
                values = np.asarray(getattr(profile, "values", profile))
                self.profiles[self.batch].add(values.tobytes())
            return note
        if name == "cli.write_table":
            def note(args, path):
                path = Path(path)
                header, rows = args[1], args[2]
                written = [p for p in (path, path.with_suffix(".json")) if p.exists()]
                if hasattr(rows, "__len__"):
                    rows = len(rows)
                else:  # an iterator was consumed by the write: count the rows
                    with open(path, "rb") as fp:
                        rows = sum(1 for _ in fp) - 1
                count("files", len(written))
                count("bytes_written", sum(p.stat().st_size for p in written))
                count("cells_written", rows * len(header))
            return note
        return None

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, functions: bool = True, pool: bool = True) -> None:
        targets = (FUNCTION_TARGETS if functions else ()) + ((POOL_TARGET,) if pool else ())
        for name, where, attr in targets:
            try:
                owner = _owner(where)
            except (ImportError, AttributeError):
                owner = None
            if owner is None or attr not in owner.__dict__:
                self.missing.add(f"{where}.{attr}")
                continue
            if (name, where, attr) == POOL_TARGET:
                self._patch(owner, attr, self._pool_class(owner.__dict__[attr]))
            elif isinstance(owner, type):
                # classmethod: call the bound original from a staticmethod
                self._patch(owner, attr, staticmethod(
                    self._wrap(name, getattr(owner, attr), self._after(name))))
            else:
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr],
                                                    self._after(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._bench_futures = []
                self._bench_span = tracer.open("experiment.pool")
                return super().__enter__()

            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                self._bench_futures.append(future)
                return future

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._bench_span)
                    done = [f for f in self._bench_futures
                            if f.done() and not f.cancelled() and f.exception() is None]
                    tracer.counts[tracer.batch].update({
                        "pool_tasks": len(self._bench_futures),
                        "pool_result_bytes": sum(len(pickle.dumps(f.result())) for f in done),
                    })

        return TracedPool

    # -- reduction ---------------------------------------------------------

    def batch_summary(self, batch) -> dict:
        """Calls, inclusive seconds and self seconds per span name for one batch."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] == batch and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, _parent, b) in enumerate(self.spans):
            if b == batch:
                calls[name] += 1
                total[name] += end - start
                own[name] += end - start - child_time[index]
        return {"calls": calls, "total": total, "self": own,
                "counts": self.counts[batch], "distinct_profiles": len(self.profiles[batch])}

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write("name,start,end,parent,batch\n")
            for name, start, end, parent, batch in self.spans:
                fp.write(f"{name},{start!r},{end!r},{'' if parent is None else parent},{batch}\n")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(package import seconds, scipy.stats import seconds) from -X importtime output.

    The package time sums the top-level coevoscape entries. scipy.stats sums
    the outermost entries named scipy.stats or scipy.stats.* (scipy's lazy
    loader can hide the package line itself); it is 0 when nothing imports it.
    """
    entries = [(len(m.group(3)) - 1, m.group(4), int(m.group(2)) / 1e6)
               for m in _IMPORT_LINE.finditer(stderr)]
    total = scipy_stats = 0.0
    parents: list[tuple[int, str]] = []
    # the output lists children before their parent: walk it backwards
    for depth, name, cumulative in reversed(entries):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        parent = parents[-1][1] if parents else ""
        if depth == 0 and name.split(".")[0] == "coevoscape":
            total += cumulative
        if _is_scipy_stats(name) and not _is_scipy_stats(parent):
            scipy_stats += cumulative
        parents.append((depth, name))
    return total, scipy_stats


def _is_scipy_stats(name: str) -> bool:
    return name == "scipy.stats" or name.startswith("scipy.stats.")
