"""Record a before/after benchmark comparison as one BENCH JSON file.

    python3 bench/record.py --parent REV --out BENCH_name.json \\
        [--seeds 101,102,...]

The parent revision is exported with ``git archive`` into a temporary
directory; the change is the working tree this script lives in.  For each
workload of ``BENCHMARK.json``, ``perfbench/run.py --trace 0`` runs for its
``run_seconds`` in alternating pairs, the parent first in even pairs and the
change first in odd ones, one pair per seed (ten by default), so that a
drift of the machine's speed meets both sides alike.  Per end-to-end metric
the file holds both sides' values, medians and quartiles, the ratio of the
medians, the pairs the change wins, whether the median gain exceeds the
parent's interquartile range, and the metric's bound.  One traced pass per side and workload
(``--trace 1``, TRACE_SECONDS at seed TRACE_SEED) adds the per-layer self
times (``self_s``) and the traced counts, every metric in another unit
(``counts``).  Both trees' ``src`` are byte-compiled before the first pair,
so neither side's set-up pays for compiling its modules, even where the
environment keeps Python from writing bytecode.  Stdlib only.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED, TRACE_SECONDS = 1, 3.0


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """The result object ``perfbench/run.py`` prints last, run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} in {tree} failed:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def export_tree(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Unpack ``git archive rev`` into ``dest``; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=repo, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = dest / "tree.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=repo,
                       check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree")
    archive.unlink()
    return commit


def compile_sources(*trees: Path) -> None:
    """Byte-compile each tree's ``src`` for the interpreter that runs the
    benchmark (``sys.executable``, this one)."""
    for tree in trees:
        if (tree / "src").is_dir():
            compileall.compile_dir(tree / "src", quiet=1)


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": q2, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str, bound) -> dict:
    """Paired comparison of one metric; ``parent[i]`` and ``change[i]`` come
    from pair i."""
    sign = 1 if better == "lower" else -1
    before, after = summary(parent), summary(change)
    out = {"parent": before, "change": after, "better": better, "bound": bound,
           "pairs": len(parent),
           "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change))}
    out["ratio"] = after["median"] / before["median"] if before["median"] else None
    out["median_gain_exceeds_parent_iqr"] = \
        sign * (before["median"] - after["median"]) > before["q3"] - before["q1"]
    if bound is not None and out["ratio"] is not None:
        worse = out["ratio"] - 1 if better == "lower" else 1 - out["ratio"]
        out["worse_beyond_bound"] = worse > bound
    return out


def record(parent_tree: Path, change_tree: Path, seeds, spec: dict,
           runner=run_perfbench) -> dict:
    """Alternating pairs per workload, then one traced pass per side."""
    compile_sources(parent_tree, change_tree)
    seconds = spec["run_seconds"]
    ends = {m["name"]: m for m in spec["end_to_end"]}
    trees = {"parent": parent_tree, "change": change_tree}
    out: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = runner(trees[side], workload, seed, seconds, 0)
                runs[side].append({"seed": seed, "first": side == order[0],
                                   "correct": result["correct"],
                                   "attempted": result["attempted"],
                                   "failed": result["failed"],
                                   "metrics": {k: v["value"] for k, v
                                               in result["metrics"].items()}})
        metrics = {}
        for name, meta in ends.items():
            if all(name in r["metrics"] for side in runs.values() for r in side):
                metrics[name] = compare(
                    [r["metrics"][name] for r in runs["parent"]],
                    [r["metrics"][name] for r in runs["change"]],
                    meta["better"], meta.get("bound"))
        traced = {}
        for side, tree in trees.items():
            result = runner(tree, workload, TRACE_SEED, TRACE_SECONDS, 1)
            layers = result["metrics"].items()
            traced[side] = {"correct": result["correct"],
                            "self_s": {k: v["value"] for k, v in layers if v["unit"] == "s"},
                            "counts": {k: v["value"] for k, v in layers if v["unit"] != "s"}}
        out[workload] = {"runs": runs, "metrics": metrics, "traced": traced}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default=",".join(map(str, range(101, 111))),
                    help="one seed per pair (default 101-110)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        parent = export_tree(args.parent, Path(tmp))
        results = record(Path(tmp) / "tree", ROOT, seeds, spec)
    doc = {"parent": parent, "change": {"head": head, "uncommitted_changes": dirty},
           "python": platform.python_version(), "cpus": os.cpu_count(),
           "seconds": spec["run_seconds"], "seeds": seeds,
           "trace": {"seed": TRACE_SEED, "seconds": TRACE_SECONDS},
           "workloads": results}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            ratio = "-" if m["ratio"] is None else f"x{m['ratio']:.3f}"
            print(f"{workload:9} {name:15} {ratio:>7}  "
                  f"wins {m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
