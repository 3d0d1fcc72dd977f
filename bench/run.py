"""coevoscape batch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/workloads.py and BENCHMARK.json) as a closed
loop with one client: the next batch starts only after the previous one has
exited and been checked. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics;
the lines above it repeat every metric by name and unit for a reader, and a
full record (samples, environment, problems) is written to
.bench_work/results/. Every program run and its output is checked; a batch
that exits non-zero, raises or fails a check counts in `failed`.

The program is the checkout's own src/ (PYTHONPATH), never an installed
copy, so two checkouts each measure their own code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from checks import Tally, check_measures, check_snapshots, reference_problems, tree_differences
from tracing import LAYERS, ROOT_SPAN, Tracer, parse_importtime
from workloads import (CONFIGS, GENERATIONS, GRID_POINTS, REFERENCE_SEED, RUNS, WORKLOADS,
                       derive_seed, write_configs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
RESULTS_DIR = ROOT / ".bench_work" / "results"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
POOL_WORKERS = 2
CLI_TIMEOUT_S = 150.0

SETUP_CODE = """\
import sys
import coevoscape.cli
from coevoscape.experiment import ExperimentConfig
ExperimentConfig.from_file(sys.argv[1])
print("ready", flush=True)
"""


class SetupError(RuntimeError):
    """The program cannot even start; no metric can be measured."""


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it: (percentile, value, n)."""
    n = len(samples)
    if n < 11:
        return None
    return (100 * (n - 10) // n, sorted(samples)[n - 11], n)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        from coevoscape import cli

        self.cli = cli
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.configs = write_configs(work / "configs", self.workload.configs,
                                     derive_seed(workload, seed, "config"))
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
                        TMPDIR=str(work))
        self.tally = Tally()
        self.reference_exact: dict[str, bool] = {}
        self.record: dict = {}
        self._batches = 0

    # -- running the program ----------------------------------------------

    def next_seed(self) -> int:
        self._batches += 1
        return derive_seed(self.name, self.seed, "batch", self._batches)

    def out_dir(self, label: str) -> Path:
        return self.work / f"{label}-{self._batches}"

    def setup_sample(self) -> float:
        """Seconds from exec until the CLI module is imported and a config loaded."""
        config = self.configs[self.workload.configs[0]]
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(config)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate()
        finally:
            timer.cancel()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up failed (exit {proc.returncode}): {err.strip()[-500:]}")
        return elapsed

    def run_cli(self, argv: list[str], err_path: Path) -> tuple[int, float, float, str]:
        """One `coevoscape` process: (exit code, wall s, peak RSS MB, stderr)."""
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "coevoscape.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=err, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss (KiB) of a reaped child covers its reaped descendants:
        # the peak of the largest process in the tree
        return proc.returncode, wall, usage.ru_maxrss / 1024, err_path.read_text(errors="replace")

    def in_process(self, argv: list[str]) -> tuple[float, list[str]]:
        """coevoscape.cli.main(argv) in this process: (seconds, problems)."""
        start = perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as e:  # the program under test crashed
            return perf_counter() - start, [f"in-process {argv[0]} raised {type(e).__name__}: {e}"]
        elapsed = perf_counter() - start
        return elapsed, [] if code == 0 else [f"in-process {argv[0]} returned {code}"]

    def measures_args(self, config: str, seed: int, workers: int, out: Path) -> list[str]:
        return ["measures", "--config", str(self.configs[config]), "--seed", str(seed),
                "--workers", str(workers), "--out", str(out)]

    # -- checks ------------------------------------------------------------

    def check(self, out: Path, config: str, twins: tuple[Path, ...] = ()) -> list[str]:
        """Schema, invariants, reference agreement, snapshots and twin identity."""
        path = out / "measures.csv"
        if not path.is_file():
            return [f"{path.name} missing"]
        text = path.read_text(encoding="utf-8")
        reference = (REFERENCE_DIR / f"{CONFIGS[config][1]}.csv").read_text(encoding="utf-8")
        problems = check_measures(text, GENERATIONS)
        problems += [f"reference: {p}" for p in reference_problems(text, reference, RUNS)]
        if self.workload.snapshots(config):
            problems += check_snapshots(out / "snapshots", "run_*/landscape_k*.csv",
                                        RUNS * (GENERATIONS + 1), GRID_POINTS)
        for twin in twins:
            problems += [f"twin {twin.name}: {p}" for p in tree_differences(out, twin)]
        return problems

    def warm_up(self, configs) -> None:
        """One in-process batch per config at the reference seed, checked, and
        compared byte for byte with the recorded reference (reported, not failed)."""
        for config in configs:
            out = self.out_dir(f"warm-{config}")
            _, problems = self.in_process(
                self.measures_args(config, REFERENCE_SEED, self.workload.workers, out))
            problems = problems or self.check(out, config)
            reference = REFERENCE_DIR / f"{CONFIGS[config][1]}.csv"
            self.reference_exact[config] = (
                not problems and (out / "measures.csv").read_bytes() == reference.read_bytes())
            self.tally.record(f"warm-up {config} seed {REFERENCE_SEED}", problems)
            shutil.rmtree(out, ignore_errors=True)

    # -- untraced: end-to-end metrics ----------------------------------------

    def untraced(self) -> dict[str, float]:
        setup = [self.setup_sample() for _ in range(SETUP_REPEATS)]
        self.warm_up(self.workload.configs[:1])
        walls = {config: [] for config in self.workload.configs}
        rss, in_seconds, in_runs = [], 0.0, 0
        configs = self.workload.configs
        start = perf_counter()
        while perf_counter() - start < self.seconds:
            config = configs[self._batches % len(configs)]
            seed = self.next_seed()
            cli_out, in_out, serial_out, err_path = (
                self.out_dir(s) for s in ("cli", "inproc", "serial", "stderr"))
            code, wall, rss_mb, err = self.run_cli(
                self.measures_args(config, seed, self.workload.workers, cli_out), err_path)
            problems = [] if code == 0 else [f"CLI exit {code}: {err.strip()[-500:]}"]
            seconds, in_problems = self.in_process(
                self.measures_args(config, seed, self.workload.workers, in_out))
            problems += in_problems
            twins = [in_out]
            if self.workload.workers > 1:
                _, serial_problems = self.in_process(
                    self.measures_args(config, seed, 1, serial_out))
                problems += serial_problems
                twins.append(serial_out)
            problems = problems or self.check(cli_out, config, tuple(twins))
            self.tally.record(f"batch {self._batches} {config} seed {seed}", problems)
            if not problems:
                walls[config].append(wall)
                rss.append(rss_mb)
                in_seconds += seconds
                in_runs += RUNS
            for path in (cli_out, in_out, serial_out):
                shutil.rmtree(path, ignore_errors=True)
            err_path.unlink(missing_ok=True)
        all_walls = [w for ws in walls.values() for w in ws]
        self.record.update(setup_samples=setup, wall_samples=walls, rss_samples=rss,
                           in_process_seconds=in_seconds, in_process_runs=in_runs,
                           batch_wall_tail={c: tail_percentile(w) for c, w in walls.items()})
        return {
            "setup_s": _median(setup),
            # mean over the workload's configs of each config's median wall
            "batch_wall_s": statistics.fmean(_median(w) for w in walls.values()) if all_walls else 0.0,
            "runs_per_s": in_runs / in_seconds if in_seconds else 0.0,
            "peak_rss_mb": _median(rss),
        }

    # -- traced: per-layer metrics -------------------------------------------

    def traced(self) -> dict[str, float]:
        self.warm_up(self.workload.configs)
        tracer = Tracer()
        measures_batches, pool_batches = [], []
        plain_s = traced_s = serial_s = pool_s = 0.0
        configs = self.workload.configs
        start = perf_counter()
        while perf_counter() - start < self.seconds:
            config = configs[self._batches % len(configs)]
            seed = self.next_seed()
            plain, traced, serial, pool = (self.out_dir(s) for s in ("plain", "traced", "serial", "pool"))
            nosnap = f"{config}.nosnap"
            t_plain, problems = self.in_process(self.measures_args(config, seed, 1, plain))
            batch = ("measures", self._batches)
            tracer.install(pool=False)
            try:
                t_traced, p = tracer.run_batch(batch, self.in_process,
                                               self.measures_args(config, seed, 1, traced))
            finally:
                tracer.uninstall()
            problems += p
            # pool probe on the snapshot-free input, against its serial twin
            if self.workload.snapshots(config):
                t_serial, p = self.in_process(self.measures_args(nosnap, seed, 1, serial))
                problems += p
            else:
                t_serial, serial = t_plain, plain
            tracer.install(functions=False)
            try:
                t_pool, p = tracer.run_batch(("pool", self._batches), self.in_process,
                                             self.measures_args(nosnap, seed, POOL_WORKERS, pool))
            finally:
                tracer.uninstall()
            problems += p
            if not problems:
                problems = self.check(plain, config, (traced,))
                problems += [f"pool twin: {p}" for p in tree_differences(serial, pool)]
                if (serial / "measures.csv").read_bytes() != (plain / "measures.csv").read_bytes():
                    problems.append("snapshot-free twin: measures.csv differs")
            self.tally.record(f"batch {self._batches} {config} seed {seed} (traced)", problems)
            if not problems:
                measures_batches.append(batch)
                pool_batches.append(("pool", self._batches))
                plain_s += t_plain
                traced_s += t_traced
                serial_s += t_serial
                pool_s += t_pool
            for path in (plain, traced, serial, pool):
                shutil.rmtree(path, ignore_errors=True)

        # one `simulate` with every generation snapshotted, so the snapshot
        # path is timed on workloads whose batches write no snapshots
        first = self.workload.configs[0]
        out = self.out_dir("simulate")
        tracer.install(pool=False)
        try:
            _, problems = tracer.run_batch("simulate", self.in_process, [
                "simulate", "--config", str(self.configs[f"{first}.nosnap"]),
                "--seed", str(self.next_seed()), "--out", str(out),
                "--generations", ",".join(str(k) for k in range(GENERATIONS + 1))])
        finally:
            tracer.uninstall()
        problems = problems or check_snapshots(out / "snapshots", "landscape_k*.csv",
                                               GENERATIONS + 1, GRID_POINTS)
        self.tally.record("simulate probe", problems)
        shutil.rmtree(out, ignore_errors=True)

        imports = [self.importtime() for _ in range(IMPORTTIME_REPEATS)]
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(RESULTS_DIR / f"{self.name}-spans.csv.gz")
        self.record.update(missing=sorted(tracer.missing), traced_batches=len(measures_batches))
        metrics = layer_metrics(tracer, measures_batches, pool_batches)
        metrics.update({
            "import.total_s": _median([t for t, _ in imports]),
            "import.scipy_stats_s": _median([s for _, s in imports]),
            "experiment.pool_scaling_eff": serial_s / (POOL_WORKERS * pool_s) if pool_s else 0.0,
            "trace.overhead": traced_s / plain_s if plain_s else 0.0,
        })
        return metrics

    def importtime(self) -> tuple[float, float]:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coevoscape.cli"],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"import failed: {proc.stderr.strip()[-500:]}")
        return parse_importtime(proc.stderr)


def layer_metrics(tracer: Tracer, measures_batches: list, pool_batches: list) -> dict[str, float]:
    """Per-batch means over the traced batches (0 when no batch succeeded)."""
    sums = [tracer.batch_summary(b) for b in measures_batches]
    pools = [tracer.batch_summary(b) for b in pool_batches]
    n = max(len(sums), 1)

    def total(*names):
        return sum(s["total"][name] for s in sums for name in names) / n

    def calls(name):
        return sum(s["calls"][name] for s in sums) / n

    def count(key, summaries=sums):
        return sum(s["counts"][key] for s in summaries) / max(len(summaries), 1)

    snapshot_spans = [end - begin for name, begin, end, _, _ in tracer.spans
                      if name == "landscape.snapshot_profiles"]
    profile_calls = sum(s["calls"]["landscape.objective_profile"] for s in sums)
    root = sum(s["total"][ROOT_SPAN] for s in sums)
    root_self = sum(s["self"][ROOT_SPAN] for s in sums)
    metrics = {
        "experiment.config_load_s": total("experiment.config_load"),
        "evolution.run_trajectory_s": total("evolution.run_trajectory"),
        "evolution.evaluate_s": total("evolution.evaluate_test", "evolution.evaluate_compositional"),
        "evolution.select_s": total("evolution.tournament_select"),
        "evolution.mutate_s": total("evolution.mutate"),
        "evolution.retained_bytes": count("retained_bytes"),
        "substrate.draw_sample_calls": calls("substrate.draw_sample"),
        "substrate.subjective_test_calls": calls("substrate.subjective_test"),
        "landscape.measure_generation_s": total("landscape.measure_generation"),
        "landscape.objective_profile_s": total("landscape.objective_profile"),
        "landscape.subjective_profile_s": total("landscape.subjective_profile_test",
                                                "landscape.subjective_profile_comp"),
        "landscape.measures_s": total("landscape.dist", "landscape.kld", "landscape.bhatt"),
        "landscape.objective_profile_calls": calls("landscape.objective_profile"),
        "landscape.objective_profile_reuse": (
            sum(s["distinct_profiles"] for s in sums) / profile_calls if profile_calls else 0.0),
        "landscape.to_distribution_calls": calls("landscape.to_distribution"),
        "landscape.snapshot_profiles_calls": calls("landscape.snapshot_profiles"),
        "landscape.snapshot_profiles_s": _median(snapshot_spans),
        "experiment.aggregate_s": total("experiment.aggregate"),
        "experiment.ci95_calls": calls("experiment.ci95"),
        "experiment.pool_s": sum(p["total"]["experiment.pool"] for p in pools) / max(len(pools), 1),
        "experiment.pool_tasks": count("pool_tasks", pools),
        "experiment.pool_result_bytes": count("pool_result_bytes", pools),
        "cli.write_table_s": total("cli.write_table"),
        "cli.files": count("files"),
        "cli.bytes_written": count("bytes_written"),
        "cli.cells_written": count("cells_written"),
        "trace.coverage": (root - root_self) / root if root else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            seconds for s in sums for name, seconds in s["self"].items()
            if name.startswith(layer + ".")) / n
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "coevoscape" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'coevoscape'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env_start = dict(environment(), loadavg=os.getloadavg())
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        values = bench.traced() if args.trace else bench.untraced()
    except (SetupError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = dict(bench.record, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env_start=env_start, loadavg_end=os.getloadavg(),
                  metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  failed_frac=tally.failed / tally.attempted if tally.attempted else 1.0,
                  reference_exact=bench.reference_exact, problems=tally.problems[:100])
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"env {json.dumps(env_start)} loadavg_end {list(record['loadavg_end'])}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {record['failed_frac']:.6g} ({tally.failed} of {tally.attempted} batches)")
    for config, tail in record.get("batch_wall_tail", {}).items():
        print(f"  batch_wall_s {config}: " + (f"p{tail[0]} {tail[1]:.4f} s (n={tail[2]})" if tail
              else f"median only, n={len(record['wall_samples'][config])} < 11"))
    print("  reference byte-identical: " + ", ".join(
        f"{c} {'yes' if ok else 'no'}" for c, ok in bench.reference_exact.items()))
    if record.get("missing"):
        print("  missing (reported as 0): " + ", ".join(record["missing"]))
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
