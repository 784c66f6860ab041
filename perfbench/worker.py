"""One measurement in a fresh interpreter; ``run.py`` starts it.

    worker.py ROOT WORKLOAD SEED [--seconds S | --passes N] [--trace]
              [--setup-only] [--flip]

Set-up (importing ieml and building the first pass's inputs) is timed from
before the import.  Then passes run back to back until ``--seconds`` have
passed (at least one), or exactly ``--passes`` of them.  Each later pass's
inputs are built before its clock starts, and a workload may cycle through
a few input sets so that requests repeat.  The speed probe runs around the
set-up and after every operation; its time is reported and left out of the
pass times.  The result is one JSON line.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--flip", action="store_true",
                    help="self-test: invert the first expected verdict")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        out = measure(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(args, root: Path, tmp: Path) -> dict:
    import oracle
    import workloads

    probe = oracle.SpeedProbe(workloads.WORKLOADS[args.workload].PROBE)
    probes = [probe() for _ in range(5)]
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))

    ie = workloads.Ieml()
    if Path(ie.package.__file__).resolve().parent != root / "src" / "ieml":
        raise RuntimeError(f"imported ieml from {ie.package.__file__}, not {root / 'src'}")
    workload = workloads.WORKLOADS[args.workload](ie, args.seed, tmp)
    inputs = workload.inputs(0)
    # passes cycle through SETS input sets, or get fresh inputs when it is 0
    input_set = (lambda index: index % workload.SETS) if workload.SETS else (lambda index: index)
    setup_s = time.perf_counter() - start
    probes += [probe() for _ in range(5)]
    out = {"setup_s": setup_s, "setup_probe_s": statistics.median(probes),
           "probe_reference_s": probe.reference_s,
           "probe_exponent": workloads.WORKLOADS[args.workload].PROBE_EXPONENT,
           "inputs_digest": input_digest(inputs, (tmp, root))}
    if args.setup_only:
        return out

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    passes, ops = [], []
    began = time.perf_counter()
    index = 0
    while True:
        ps = workloads.Pass(probe, tracer, flip=args.flip and index == 0)
        workload.run(inputs, ps)
        ps.finish()
        passes.append({"wall_s": sum(seg for seg, _ in ps.marks), "marks": ps.marks,
                       "set": input_set(index), "digest": ps.digest.hexdigest()})
        ops.extend([o.kind, o.ms, o.ok, o.what, index, k] for k, o in enumerate(ps.ops))
        index += 1
        if args.passes:
            if index >= args.passes:
                break
        elif time.perf_counter() - began >= args.seconds:
            break
        inputs = workload.inputs(input_set(index))
    out.update(passes=passes, ops=ops,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        out.update(layers=tracer.layer_metrics(), self_sum_s=tracer.self_time_sum(),
                   fired=sorted(tracer.fired()), rebound=tracer.rebound)
    return out


def _canon(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if hasattr(value, "doc"):
        return value.doc()
    raise TypeError(type(value))


def input_digest(inputs, dirs) -> str:
    """Hash of a pass's inputs, blind to where this process keeps its files."""
    import hashlib

    text = json.dumps(inputs, sort_keys=True, default=_canon)
    for d in dirs:
        text = text.replace(str(d), "")
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
