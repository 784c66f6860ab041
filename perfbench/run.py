"""Benchmark for ieml: three seeded workloads timed from outside the program.

    python3 perfbench/run.py --workload suite|queries|construct --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; ieml is imported from its ``src``.
Every measurement happens in a fresh interpreter (``worker.py``), so the
peak RSS reported is that measurement's own.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median pass time (a
repeated input set counted once, at its fastest pass), the median of seven
set-up times, peak RSS, and latency percentiles over the distinct requests
whose verdict refutes (a countermodel, a rejection, a false formula) or
confirms (no countermodel within budget, an accepted and probed derivation,
a valid or true formula).  A request sent more than once in a run counts
at its fastest send.  Times are scaled to a reference machine speed read
by a probe that runs between operations (see ``oracle.SpeedProbe``); the
unscaled times are on the line before the result.

``--trace 1`` repeats an untraced measurement's passes with every ieml layer
wrapped (see ``tracer.py``) and reports per-layer self time and counts per
pass, and the tracing overhead.  It fails when a span its workload must
open never fires, when the traced self times exceed the traced wall time,
or when tracing changes any answer.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "queries", "construct")
DEADLINE_S = 170.0
# End-to-end times are scaled by (the speed probe's reference time) / (its
# median time around them): reported as if the machine ran at the speed
# the reference was taken at (see oracle.SpeedProbe).
PROBE_WINDOW = 5  # probes on each side of an operation that set its scale


class BenchError(RuntimeError):
    pass


def child(workload: str, seed: int, *extra: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter with no IEML_BUDGET_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IEML_BUDGET_")}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a measurement")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
             *extra], capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} measurement did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def speed_scale(marks: list, reference_s: float, exponent: float) -> list:
    """Per mark of a pass: the probe's reference time over its median time
    among the PROBE_WINDOW probes on either side, raised to the workload's
    exponent (how much its code slows per unit of the probe's slowdown)."""
    probes = [p for _, p in marks]
    return [(reference_s / statistics.median(
        probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])) ** exponent
        for i in range(len(probes))]


def fastest(ops: list, scales: list) -> dict:
    """Per operation name: its verdict kind and its fastest scaled latency
    over the times it was sent.  Noise on a shared machine only ever adds
    time, so the fastest send is the steadiest estimate of a request's
    cost."""
    best: dict = {}
    for kind, ms, _, what, index, k in ops:
        ms *= scales[index][k]
        if kind is not None and (what not in best or ms < best[what][1]):
            best[what] = (kind, ms)
    return best


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    def scaled_setup(out: dict) -> float:
        return out["setup_s"] * (out["probe_reference_s"] / out["setup_probe_s"]) \
            ** out["probe_exponent"]

    # set-up is timed seven times, before and after the measurement, so the
    # median does not hang on one moment's machine speed
    setups = [child(workload, seed, "--setup-only", deadline=deadline) for _ in range(3)]
    run = child(workload, seed, "--seconds", str(seconds), deadline=deadline)
    setups += [child(workload, seed, "--setup-only", deadline=deadline) for _ in range(3)]
    setups.append(run)
    scales = [speed_scale(p["marks"], run["probe_reference_s"], run["probe_exponent"])
              for p in run["passes"]]
    # a repeated input set counts once, at its fastest pass
    by_set: dict = {}
    for p, scale in zip(run["passes"], scales):
        wall = sum(seg * k for (seg, _), k in zip(p["marks"], scale))
        by_set[p["set"]] = min(wall, by_set.get(p["set"], float("inf")))
    metrics = {
        "wall_s": (statistics.median(by_set.values()), "s"),
        "setup_s": (statistics.median(scaled_setup(out) for out in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    best = fastest(run["ops"], scales)
    for kind in ("refute", "confirm"):
        ms = [t for k, t in best.values() if k == kind]
        if not ms:
            raise BenchError(f"{workload} produced no {kind} verdicts")
        metrics[f"{kind}_p50_ms"] = (percentile(ms, 0.5), "ms")
        metrics[f"{kind}_p90_ms"] = (percentile(ms, 0.9), "ms")
    details = {"passes": len(run["passes"]),
               "unscaled_pass_wall_s": [p["wall_s"] for p in run["passes"]],
               "pass_probe_ms": [statistics.median(q for _, q in p["marks"]) * 1e3
                                 for p in run["passes"]],
               "answer_digests": [p["digest"] for p in run["passes"]],
               "unscaled_setup_s": [out["setup_s"] for out in setups],
               "samples": {k: sum(1 for kind, _ in best.values() if kind == k)
                           for k in ("refute", "confirm")}}
    return metrics, run["ops"], 0, details


LAYER_UNITS = (("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio"))


def traced(workload: str, seed: int, seconds: float, deadline: float):
    from tracer import REQUIRED

    plain = child(workload, seed, "--seconds", str(seconds), deadline=deadline)
    n = len(plain["passes"])
    run = child(workload, seed, "--passes", str(n), "--trace", deadline=deadline)
    missing = sorted(set(REQUIRED[workload]) - set(run["fired"]))
    if missing:
        raise BenchError(f"traced {workload} never opened: {', '.join(missing)}")
    traced_wall = sum(p["wall_s"] for p in run["passes"])
    plain_wall = sum(p["wall_s"] for p in plain["passes"])
    if run["self_sum_s"] > traced_wall:
        raise BenchError(f"layer self times {run['self_sum_s']:.3f}s exceed "
                         f"the traced wall time {traced_wall:.3f}s")
    changed = sum(a["digest"] != b["digest"] for a, b in zip(plain["passes"], run["passes"]))
    metrics = {}
    for name, value in run["layers"].items():
        unit = next((u for suffix, u in LAYER_UNITS if name.endswith(suffix)), "count")
        metrics[name] = (value if unit == "ratio" else value / n, unit)
    metrics["trace.wall_s"] = (traced_wall / n, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall / n, "s")
    metrics["trace.overhead_s"] = ((traced_wall - plain_wall) / n, "s")
    metrics["trace.other_s"] = ((traced_wall - run["self_sum_s"]) / n, "s")
    details = {"passes": n, "answers_changed_by_tracing": changed,
               "sites_rebound": len(run["rebound"])}
    return metrics, plain["ops"] + run["ops"], changed, details


def selftest() -> int:
    """Check the benchmark itself: a wrong expectation is counted, one seed
    gives one answer, another seed gives other inputs, and a traced run
    passes its own checks."""
    deadline = time.monotonic() + 900
    problems = []
    flipped = child("queries", 1, "--passes", "1", "--flip", deadline=deadline)
    if sum(not op[2] for op in flipped["ops"]) != 1:
        problems.append("an inverted expectation was not counted exactly once")
    a = child("queries", 1, "--passes", "1", deadline=deadline)
    b = child("queries", 1, "--passes", "1", deadline=deadline)
    if a["passes"][0]["digest"] != b["passes"][0]["digest"]:
        problems.append("queries: one seed gave two different answer digests")
    for workload in WORKLOADS:
        same = [child(workload, s, "--setup-only", deadline=deadline)["inputs_digest"]
                for s in (1, 1, 2)]
        if same[0] != same[1] or same[0] == same[2]:
            problems.append(f"{workload}: inputs do not follow the seed")
    try:
        traced("queries", 1, 1.0, deadline)
    except BenchError as e:
        problems.append(str(e))
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ieml" / "__init__.py").is_file():
        print(f"error: no ieml sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    deadline = time.monotonic() + DEADLINE_S
    measure = traced if args.trace else end_to_end
    try:
        metrics, ops, extra_failures, details = measure(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    failed = [op for op in ops if not op[2]]
    details["failed_ops"] = [op[3] for op in failed[:20]]
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failed and not extra_failures,
        "attempted": len(ops),
        "failed": len(failed) + extra_failures,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
