"""The hyperlab benchmark: one run of one workload.

    python3 bench/run.py --workload {sweep-core,sweep-constructions,golden}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the library is imported from
`src/`.  With `--trace 0` the result holds the end-to-end metrics, with
`--trace 1` the per-layer ones.  Every operation is checked against the
references in `bench/refs/`.

Times are paired.  The host this was built on drifts in speed by up to 2x
for minutes at a time, so every operation of `src/hyperlab` is timed
right next to the same operation of a frozen copy of the library as it
was when the references were made (`frozen/hyperlab_seed`), in two
single-threaded worker processes that take turns on one CPU.  A time is
reported as the pinned reference cost times the measured ratio of the
two timings: the library's own time, at the speed the references were
measured at.  Set-up is paired the same way, over fresh
interpreters that only import, enumerate the family and draw the sample.

Before the result, one line of diagnostics is printed and the run record
is written to `bench/out/`: Python version, core count, the host's steal
seconds from /proc/stat before and after the run (a diagnostic for
contention, not a metric), and each operation's time ratio.  The last
stdout line is the JSON result: {"correct", "attempted", "failed",
"metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, load_refs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PAIRS = 3
TIME_LIMIT_S = 170  # every run, set-up included, ends within this


def steal_seconds() -> float | None:
    """Host steal time summed over all CPUs, or None where not exposed."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def tail_rank(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples above it
    (nearest-rank), or 100 when n is too small for any."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 100


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


class Worker:
    """A `worker.py` process, killed if it outlives the deadline."""

    def __init__(self, args, mode: str, frozen: bool, env: dict, deadline: float, *extra: str):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode, *(["--frozen"] if frozen else []), *extra]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def line(self) -> str:
        text = self.proc.stdout.readline()
        if not text:
            self.close()
            raise RuntimeError(f"worker ended with exit code {self.proc.returncode}")
        return text

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def run(self, k: int) -> float:
        self.send(str(k))
        return float(self.line())

    def close(self) -> None:
        """End the worker by closing its input, and wait for it."""
        self.proc.stdin.close()
        self.proc.wait()
        self.timer.cancel()


def setup_seconds(args, frozen: bool, env: dict, deadline: float) -> float:
    """Seconds from spawning a set-up worker until it reports ready, read
    from a blocking pipe so no polling interval quantizes it."""
    w = Worker(args, "setup", frozen, env, deadline)
    w.line()
    elapsed = time.perf_counter() - w.t0
    w.close()
    return elapsed


def paired(args, env: dict, deadline: float) -> dict:
    """Time operations of both libraries in turn, in a seeded order, for
    about `--seconds` and at least one pair; score the library under test.

    The run's ratio is the reference-weighted mean of its pair ratios, so
    `wall_s` is that ratio times the sample's reference cost.  Operations
    that got no pair in the time take the run's ratio."""
    lib, frozen = (Worker(args, "serve", f, env, deadline) for f in (False, True))
    try:
        return paired_with(args, lib, frozen)
    finally:
        lib.close()
        frozen.close()


def paired_with(args, lib: Worker, frozen: Worker) -> dict:
    ready = json.loads(lib.line())
    ops, ref = ready["ops"], ready["ref_s"]
    if json.loads(frozen.line())["ops"] != ops:
        raise RuntimeError("the library and its frozen copy drew different samples")
    order = list(range(len(ops)))
    random.Random(f"order:{args.seed}").shuffle(order)
    cpus = sorted(os.sched_getaffinity(0))
    ratios: list[list[float]] = [[] for _ in ops]
    spent = paired_ref = 0.0
    stop = time.monotonic() + args.seconds
    i = 0
    while True:
        turn, at = divmod(i, len(ops))
        k = order[at]
        if at == 0:
            # each CPU of a shared host slows down on its own: take turns
            for w in (lib, frozen):
                os.sched_setaffinity(w.proc.pid, {cpus[turn % len(cpus)]})
        if i and time.monotonic() + ref[k] * spent / paired_ref > stop:
            break
        if (turn + at) % 2:
            t_frozen, t_lib = frozen.run(k), lib.run(k)
        else:
            t_lib, t_frozen = lib.run(k), frozen.run(k)
        ratios[k].append(t_lib / t_frozen)
        spent += t_lib + t_frozen
        paired_ref += ref[k]
        i += 1
    summaries = []
    for w in (lib, frozen):
        w.send("end")
        summaries.append(json.loads(w.line()))
    run_ratio = sum(ref[k] * r for k, x in enumerate(ratios) for r in x) / paired_ref
    per_op = [r * (statistics.median(x) if x else run_ratio) for r, x in zip(ref, ratios)]
    wall = run_ratio * sum(ref)
    work = summaries[0]["multisets"] if args.workload == "golden" else len(ops)
    p = tail_rank(len(per_op))
    return {
        "metrics": {
            "wall_s": wall,
            "work_per_s": work / wall,
            "op_p50_ms": statistics.median(per_op) * 1000,
            "op_tail_ms": percentile(per_op, p) * 1000,
            "peak_rss_mb": summaries[0]["peak_rss_mb"],
        },
        "attempted": summaries[0]["attempted"],
        "failed": summaries[0]["failed"],
        "errors": summaries[0]["errors"],
        "detail": {
            "ops": len(ops), "pairs": i, "ops_paired": sum(1 for x in ratios if x),
            "ratio": run_ratio, "reference_wall_s": sum(ref), "measured_pair_s": spent,
            "tail_percentile": p, "tail_beyond": len(per_op) - math.ceil(p * len(per_op) / 100),
            "work_unit": "tested multisets" if args.workload == "golden" else "rings", "work": work,
            "frozen_failed": summaries[1]["failed"],
        },
        "op_ratio": {name: statistics.median(x) for name, x in zip(ops, ratios) if x},
    }


def setup_ratio(args, env: dict, deadline: float) -> float:
    """Median over pairs, on one CPU, of the library's set-up time over
    the frozen copy's."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    ratios = []
    for n in range(SETUP_PAIRS):
        frozen_first = bool(n % 2)
        a = setup_seconds(args, frozen_first, env, deadline)
        b = setup_seconds(args, not frozen_first, env, deadline)
        ratios.append(b / a if frozen_first else a / b)
    os.sched_setaffinity(0, cpus)
    return statistics.median(ratios)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "hyperlab" / "__init__.py").is_file():
        print(f"error: no hyperlab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + TIME_LIMIT_S
    steal_before = steal_seconds()
    if args.trace:
        w = Worker(args, "trace", False, env, deadline, "--trace-file", str(OUT_DIR / f"{tag}.spans.json"))
        out = json.loads(w.line())
        w.close()
    else:
        ratio = setup_ratio(args, env, deadline)
        out = paired(args, env, deadline)
        out["metrics"]["setup_s"] = load_refs(args.workload)["setup_seconds"] * ratio
    steal_after = steal_seconds()
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in declared.items() if name in out["metrics"]}
    absent = [name for name in declared if name not in out["metrics"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "steal_s": None if steal_before is None or steal_after is None else steal_after - steal_before,
        "absent_metrics": absent, **out,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("diagnostics: " + json.dumps({k: record[k] for k in ("python", "nproc", "steal_s", "absent_metrics")}
                                       | {"detail": out["detail"], "errors": out["errors"]}))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
