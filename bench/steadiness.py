"""Steadiness report: run the benchmark repeatedly and summarise the spread.

    python3 bench/steadiness.py --workloads testbased,parallel --seeds 1-10 \
        [--seconds 15] [--traced 2] [--out bench/baseline.json]

Each (workload, seed) is one untraced run of bench/run.py, one after the
other. For every end-to-end metric the report gives the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, which should stay below a third of the metric's bound.
It also pools the CLI batch wall times of all runs and gives the highest
percentile with at least ten samples beyond it. Then --traced runs per
workload (seeds after the untraced ones) record the per-layer metrics and
whether the counts that must repeat exactly did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = ROOT / ".bench_work" / "results"

sys.path.insert(0, str(HERE))
from run import tail_percentile  # noqa: E402


# per-layer counts that do not depend on the seed
EXACT_COUNTS = ("substrate.draw_sample_calls", "landscape.objective_profile_calls",
                "landscape.to_distribution_calls", "cli.files", "cli.cells_written")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (its result line, its full record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in args.seeds:
            result, record = _run(workload, seed, seconds, 0)
            walls.extend(w for ws in record["wall_samples"].values() for w in ws)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "env": record["env_start"],
                         "loadavg_end": record["loadavg_end"],
                         "values": {k: m["value"] for k, m in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in runs[-1]["values"].items())
                + f", failed {result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["values"][metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "steady": spread < metric["bound"] / 3,
                "unit": metric["unit"]}
            print(f"  {metric['name']:14s} median {median:.4g} {metric['unit']}, "
                  f"q1 {q1:.4g}, q3 {q3:.4g}, spread {spread:.3f} (bound {metric['bound']})")
        traced = []
        for seed in range(max(args.seeds) + 1, max(args.seeds) + 1 + args.traced):
            result, record = _run(workload, seed, seconds, 1)
            traced.append({"seed": seed, "attempted": result["attempted"],
                           "failed": result["failed"], "missing": record.get("missing", []),
                           "values": {k: m["value"] for k, m in result["metrics"].items()}})
        repeat = {name: len({t["values"][name] for t in traced}) == 1 for name in EXACT_COUNTS}
        if traced:
            print(f"  traced runs: counts repeat exactly: {repeat}, coverage "
                  + ", ".join(f"{t['values']['trace.coverage']:.4f}" for t in traced))
        tail = tail_percentile(walls)
        report["workloads"][workload] = {
            "metrics": summary, "runs": runs, "traced_runs": traced,
            "counts_repeat_exactly": repeat,
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "batch_wall_pooled": {"n": len(walls), "median": statistics.median(walls),
                                  "tail": None if tail is None else
                                  {"percentile": tail[0], "value": tail[1]}},
        }
        if args.out:
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
