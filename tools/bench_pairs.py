"""Compare a parent revision with the working tree by alternating benchmark pairs.

    python tools/bench_pairs.py --parent REV --workload W --pairs N --seconds S [--claim M]
                                [--record PATH]

Extracts `git archive REV` into a temporary directory, copies the working
tree next to it (its tracked files and the untracked ones git does not
ignore, as they are now), and runs
`bench/run.py --workload W --seed SEED --seconds S --trace 0` N times from
each copy, as N pairs: pair i runs both sides at seed `--seed` + i, the
parent first in even pairs and the change first in odd ones, so a drift in
the machine's speed falls on both sides alike. Each run is the benchmark's
own program, started from its own fresh tree in the same directory, so each
side measures its own code and creates its files under the same
conditions. Nothing is written outside the temporary directory.

Before timing, both copies run one fixed output sweep (`sweep_commands`):
every config the change ships, each as `measures` with and without
snapshots at SWEEP_RUNS runs, `simulate --generations 0,5,10` and
`landscape`, in both `--format`s and at `--workers` 1 and 2. It prints
whether the two output trees are identical byte for byte, and how many files
each holds.

It prints every pair, each side's median and quartiles of every end-to-end
metric of BENCHMARK.json, and two verdicts:

- for the claimed metric M (`--claim`, runs_per_s by default; any
  end-to-end metric, judged in its `better` direction), whether a gain may
  be claimed: the change wins at least nine tenths of the pairs, ties
  counting for neither, over at least ten pairs, the medians differ in the
  better direction by more than the parent's interquartile range, and no
  larger share of batches fails;
- for every other metric, whether the change's median is worse than the
  parent's by more than the metric's bound, or the runs spread too widely
  for the bound to tell (unresolved), unless every run of the change reads
  better than every run of the parent.

`--record PATH` also writes what it printed to PATH as JSON: the parent's
commit, the change's base commit and a digest of its files, and one entry
for this invocation with the machine (usable CPU count, Python and numpy
versions), the output sweep's verdict, each side's line count of
`src/coevoscape/*.py` (`src_lines`), and per metric each side's runs,
quartiles, the pairs the change won and the verdict. If PATH already holds a
record of the same parent and change, the entry is added to its list, so
one file can hold every set of pairs a change was measured with.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
WIN_SHARE = 0.9
CLAIM = "runs_per_s"  # the metric whose gain is judged by default
SWEEP_RUNS = 30
# runs the sweep's command lines, given as JSON, in one process of a tree's package
SWEEP_SCRIPT = """\
import json, sys
from coevoscape.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("failed: coevoscape " + " ".join(argv))
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(a: float, b: float, better: str) -> bool:
    """Whether a reads better than b."""
    return a < b if better == "lower" else a > b


def gain_verdict(parent: list[float], change: list[float], better: str,
                 failed: tuple[float, float] = (0.0, 0.0)) -> dict:
    """Whether pairs (parent[i], change[i]) of one metric support claiming a
    gain: at least MIN_PAIRS pairs, the change better in at least WIN_SHARE
    of them (ties count for neither side), the medians apart in the better
    direction by more than the parent's interquartile range, and a failed
    share of batches (parent, change) no larger at the change."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    losses = sum(_better(p, c, better) for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    gap = (parent_median - change_median) if better == "lower" else (change_median - parent_median)
    iqr = q3 - q1
    reasons = []
    if len(parent) < MIN_PAIRS:
        reasons.append(f"{len(parent)} pairs < {MIN_PAIRS}")
    if wins < WIN_SHARE * len(parent):
        reasons.append(f"won {wins}/{len(parent)} < {WIN_SHARE:.0%}")
    if not gap > iqr:
        reasons.append(f"median gap {gap:.6g} <= parent IQR {iqr:.6g}")
    if failed[1] > failed[0]:
        reasons.append(f"failed share {failed[1]:.3g} > parent's {failed[0]:.3g}")
    return {"pairs": len(parent), "wins": wins, "losses": losses, "ties": len(parent) - wins - losses,
            "gap": gap, "parent_iqr": iqr, "claimed": not reasons, "reasons": reasons}


def bound_verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How the change's median of one metric compares with the parent's
    against a relative bound: "better" when every change run reads better
    than every parent run, else "worse" when the median is worse by more
    than the bound, "unresolved" when either side's interquartile range,
    relative to the parent's median, is wider than the bound, and "within"
    otherwise."""
    if all(_better(c, p, better) for c in change for p in parent):
        return "better"
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    scale = abs(p_median) or 1.0
    worse = (c_median - p_median if better == "lower" else p_median - c_median) / scale
    if worse > bound:
        return "worse"
    if max(p_q3 - p_q1, c_q3 - c_q1) / scale > bound:
        return "unresolved"
    return "within"


def extract(rev: str, into: Path) -> None:
    """The tree of `rev` (as `git archive` gives it) written under `into`."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def copy_worktree(into: Path) -> None:
    """The working tree's tracked files, and its untracked files that git does
    not ignore, copied under `into` as they are now; a tracked file deleted
    from the working tree is left out."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def sweep_commands(configs: Path, into: Path) -> list[list[str]]:
    """The output sweep's command lines for every `configs/*.json`, each with
    a relative `--out` of its own. The configs the `measures` lines read,
    set to SWEEP_RUNS runs with and without snapshots, are written under
    `into`."""
    commands = []
    for config in sorted(configs.glob("*.json")):
        data = json.loads(config.read_text(encoding="utf-8"))
        variants = [("simulate", ["simulate", "--generations", "0,5,10", "--config", str(config)]),
                    ("landscape", ["landscape", "--config", str(config)])]
        for name in ("measures", "measures_snapshots"):
            batch = into / f"{config.stem}_{name}.json"
            batch.write_text(json.dumps({**data, "experiment": {
                **data.get("experiment", {}), "runs": SWEEP_RUNS,
                "snapshots": name == "measures_snapshots"}}))
            variants.append((name, ["measures", "--config", str(batch)]))
        for fmt in ("csv", "json"):
            for workers in ("1", "2"):
                commands += [[*command, "--out", f"{config.stem}/{fmt}/workers_{workers}/{name}",
                              "--format", fmt, "--workers", workers]
                             for name, command in variants]
    return commands


def run_sweep(tree: Path, commands: list[list[str]], out: Path) -> None:
    """`commands` run by `tree`'s package, with `--out` under `out`."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT, json.dumps(commands)],
                          cwd=out, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"output sweep in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")


def compare_outputs(parent: Path, change: Path) -> tuple[str, int, list[str]]:
    """("identical" or "differ", the number of files under `parent`, the
    relative names of the files that differ or exist on one side only)."""
    names = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (parent, change)]
    differing = sorted(names[0] ^ names[1]) + sorted(
        name for name in names[0] & names[1]
        if (parent / name).read_bytes() != (change / name).read_bytes())
    return ("differ" if differing else "identical"), len(names[0]), differing


def output_sweep(trees: dict[str, Path], work: Path) -> dict:
    """Run the output sweep from both trees under `work`, print the verdict
    and return it for the record."""
    (work / "configs").mkdir(parents=True)
    commands = sweep_commands(trees["change"] / "configs", work / "configs")
    for side, tree in trees.items():
        run_sweep(tree, commands, work / side)
    verdict, count, differing = compare_outputs(work / "parent", work / "change")
    print(f"outputs: {verdict} byte for byte, {count} files from {len(commands)} commands "
          f"in the parent's tree, {len(differing)} differing")
    for name in differing[:20]:
        print(f"  differs: {name}")
    sys.stdout.flush()
    return {"verdict": verdict, "files": count, "commands": len(commands),
            "differing": differing[:20]}


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` from `tree`: its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: dict[str, list[dict]], spec: dict, claim: str) -> dict:
    """Per end-to-end metric of `spec`: each side's runs and quartiles, the
    pairs the change won and the bound verdict; the failed shares; and the
    gain verdict on `claim`."""
    values = {side: {name: [r["metrics"][name]["value"] for r in rs] for name in spec}
              for side, rs in runs.items()}
    failed = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
              for side, rs in runs.items()}
    metrics = {}
    for name, m in spec.items():
        p, c = values["parent"][name], values["change"][name]
        metrics[name] = {
            "better": m["better"], "bound": m["bound"],
            "parent": {"runs": p, "quartiles": list(quartiles(p))},
            "change": {"runs": c, "quartiles": list(quartiles(c))},
            "wins": sum(_better(b, a, m["better"]) for a, b in zip(p, c)),
            "verdict": bound_verdict(p, c, m["better"], m["bound"])}
    return {"failed": failed, "metrics": metrics,
            "claim": {"metric": claim, **gain_verdict(values["parent"][claim],
                                                      values["change"][claim],
                                                      spec[claim]["better"],
                                                      (failed["parent"], failed["change"]))}}


def git_commit(rev: str) -> str:
    """The full commit id `rev` names."""
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def tree_digest(tree: Path, skip: str | None = None) -> str:
    """sha256 over the relative name and bytes of every file under `tree`
    but the one named `skip`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        name = path.relative_to(tree).as_posix()
        if name != skip:
            for part in (name.encode(), path.read_bytes()):
                digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def src_lines(tree: Path) -> int:
    """Lines in the package's modules, `src/coevoscape/*.py`, under `tree`, as
    `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "coevoscape").glob("*.py"))


def machine() -> dict:
    """The usable CPU count and the Python and numpy versions the pairs ran with."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpus": cpus, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def open_record(path: Path, parent: str, change: dict) -> dict:
    """The record of `parent` and `change` that `path` holds, or a new one
    with no entries if there is no file; a file that records another parent
    or change is an error, raised before any pair runs."""
    if not path.exists():
        return {"parent": parent, "change": change, "entries": []}
    record = json.loads(path.read_text(encoding="utf-8"))
    if (record.get("parent"), record.get("change")) != (parent, change):
        raise SystemExit(f"error: {path} records another parent or change")
    return record


def main(argv=None) -> int:
    spec = {m["name"]: m for m in
            json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--claim", choices=list(spec), default=CLAIM,
                        help=f"end-to-end metric whose gain is judged (default {CLAIM})")
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the results as JSON to this file, or add them to "
                             "its record of the same parent and change")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        if args.record is not None:
            # the record itself, if the working tree holds it, is not part of the change
            path = args.record.resolve()
            skip = path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else None
            record = open_record(args.record, git_commit(args.parent), {
                "base": git_commit("HEAD"), "tree_sha256": tree_digest(trees["change"], skip)})
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        print(f"src/coevoscape/*.py: {lines['parent']} lines in the parent, "
              f"{lines['change']} in the change")
        outputs = output_sweep(trees, Path(tmp) / "sweep")
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(trees[side], args.workload, seed, args.seconds))
            print(f"pair {i + 1} seed {seed} ({order[0]} first): " + ", ".join(
                f"{name} {runs['parent'][-1]['metrics'][name]['value']:.6g} -> "
                f"{runs['change'][-1]['metrics'][name]['value']:.6g}" for name in spec),
                flush=True)

    summary = summarize(runs, spec, args.claim)
    failed = summary["failed"]
    print(f"\nworkload {args.workload}, parent {args.parent}, {args.pairs} pairs, "
          f"{args.seconds:g} s, seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(f"failed batches: parent {failed['parent']:.3g}, change {failed['change']:.3g}")
    for name, m in summary["metrics"].items():
        (p1, pm, p3), (c1, cm, c3) = m["parent"]["quartiles"], m["change"]["quartiles"]
        print(f"{name:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}]  change better in {m['wins']}/{args.pairs}  "
              f"({m['better']} is better, bound {m['bound']:.0%}): {m['verdict']}")
    v = summary["claim"]
    print(f"claim {args.claim}: won {v['wins']}/{v['pairs']} (ties {v['ties']}), median gap "
          f"{v['gap']:.6g} vs parent IQR {v['parent_iqr']:.6g}: "
          + ("gain may be claimed" if v["claimed"] else "NOT MET (" + "; ".join(v["reasons"]) + ")"))
    if args.record is not None:
        record["entries"].append({
            "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
            "seeds": [args.seed, args.seed + args.pairs - 1], "machine": machine(),
            "outputs": outputs, "src_lines": lines, **summary})
        args.record.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
