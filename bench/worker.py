"""A benchmark process; `run.py` starts it.

    python3 bench/worker.py --workload W --seed N --mode setup|serve|trace
                            [--frozen] [--trace-file PATH]

Every mode first sets up: import, family enumeration and sampling.  With
`--frozen` the process runs the frozen seed copy of the library
(`frozen/hyperlab_seed`) instead of `src/hyperlab`.

- `setup` prints `ready` and exits.
- `serve` prints one JSON line naming the operations and their reference
  costs, then reads operation indexes from stdin, one per line, runs each
  and prints its latency in seconds; on `end` it prints a JSON summary
  (attempted, failed, peak RSS) and exits.
- `trace` runs each operation once untraced and once traced and prints
  the per-layer metrics as JSON.

Every operation's records are checked against the pinned references.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import workloads as wl

clock = time.perf_counter


class Runner:
    """Runs operations of one workload and scores them against the refs."""

    def __init__(self, workload: str, ops: list, refs: dict, frozen: bool = False):
        self.workload, self.ops, self.refs, self.frozen = workload, ops, refs, frozen
        self.attempted = self.failed = 0
        self.multisets = 0
        self.errors: list[str] = []

    def run(self, k: int) -> float:
        """Run operation k once; return its latency in seconds."""
        op = self.ops[k]
        ring = wl.fresh_ring(op, self.frozen) if op.n else None
        gc.collect()  # each operation starts from the same collector state
        t0 = clock()
        try:
            report = wl.run_op(self.workload, op, ring, self.frozen)
        except Exception as exc:  # a raising operation fails every unit it has
            elapsed = clock() - t0
            attempted = failed = len(self.refs["rows"]) if self.workload == "golden" else 1
            self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        else:
            elapsed = clock() - t0
            attempted, failed = wl.failed_units(self.workload, report, self.refs, op)
            if failed:
                self.errors.append(f"{op.name}: records differ from the reference")
            if self.workload == "golden":
                self.multisets = wl.tested_multisets(report)
        self.attempted += attempted
        self.failed += failed
        return elapsed


def serve(runner: Runner) -> None:
    refs = [wl.ref_seconds(runner.workload, runner.refs, op) for op in runner.ops]
    print(json.dumps({"ops": [op.name for op in runner.ops], "ref_s": refs}), flush=True)
    for line in sys.stdin:
        if line.strip() == "end":
            break
        print(repr(runner.run(int(line))), flush=True)
    print(json.dumps({
        "attempted": runner.attempted, "failed": runner.failed, "errors": runner.errors[:20],
        "multisets": runner.multisets,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), flush=True)


def traced(runner: Runner, trace_path: str) -> dict:
    """Run each operation untraced, then traced, so that drift in machine
    speed during the run falls on both sides of the overhead equally."""
    from tracer import Tracer

    tr = Tracer()
    untraced_wall = traced_wall = 0.0
    for k in range(len(runner.ops)):
        untraced_wall += runner.run(k)
        tr.install()
        try:
            traced_wall += runner.run(k)
        finally:
            tr.uninstall()
    metrics = tr.layer_metrics(traced_wall)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    tr.write(trace_path, workload=runner.workload, wall_s=traced_wall)
    return {"metrics": metrics, "attempted": runner.attempted, "failed": runner.failed,
            "errors": runner.errors[:20], "detail": {"absent": tr.absent, "trace_file": trace_path}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "serve", "trace"))
    ap.add_argument("--frozen", action="store_true")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(wl.REPO_ROOT / "src"), str(wl.FROZEN_DIR)]
    wl.library(args.frozen)  # set-up includes the import for every workload
    refs = wl.load_refs(args.workload)
    ops = wl.sample(args.workload, args.seed, refs, args.frozen)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    runner = Runner(args.workload, ops, refs, args.frozen)
    if args.mode == "trace":
        print(json.dumps(traced(runner, args.trace_file)))
    else:
        serve(runner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
