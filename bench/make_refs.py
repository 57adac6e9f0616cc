"""Regenerate the pinned references in bench/refs/.

    python3 bench/make_refs.py [workload ...]

For a sweep workload it writes, for every ring in the workload's
universe, the record digest and the ring's reference cost (fastest of
two runs, in seconds), which seeded sampling and paired timing use; for
`golden` the report's JSON lines and the call's reference cost.  For
both, the reference set-up time of the frozen copy.
Run it only on a commit whose sweep report is known to be right, and
whose library is the one copied into `frozen/hyperlab_seed`: the benchmark
scores `failed` against these files, and scales the frozen copy's
measured speed by these costs.  Progress, with each
ring's seconds, goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads as wl
from run import setup_seconds

sys.path[:0] = [str(wl.REPO_ROOT / "src"), str(wl.FROZEN_DIR)]
REPEATS = 2


def sweep_refs(workload: str) -> dict:
    rings = {}
    for op in wl.universe(workload):
        times, digests = [], set()
        for _ in range(REPEATS):
            ring = wl.fresh_ring(op)
            t0 = time.perf_counter()
            report = wl.run_op(workload, op, ring)
            times.append(time.perf_counter() - t0)
            digests.add(wl.digest(report))
        if len(digests) != 1:
            raise RuntimeError(f"{op.name}: records differ between repeats")
        rings[op.name] = {"digest": digests.pop(), "seconds": round(min(times), 4)}
        print(f"{workload} {op.name} {min(times):.3f}s", file=sys.stderr, flush=True)
    spec = wl.run_spec(workload)
    return {
        "universe": {
            "moduli": list(spec.moduli),
            "phi_sizes": list(wl.UNIVERSE_PHI_SIZES),
            "include_constructions": spec.include_constructions,
            "mode": spec.mode.value,
            "u_max": spec.u_max,
        },
        "rings": rings,
    }


def golden_refs() -> dict:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = wl.run_op("golden", wl.Op("golden"))
        times.append(time.perf_counter() - t0)
    return {"seconds": round(min(times), 4), "rows": report.to_jsonl().splitlines()}


def setup_reference(workload: str) -> float:
    """Fastest of five set-ups of the frozen copy, in fresh interpreters."""
    args = argparse.Namespace(workload=workload, seed=0)
    env = dict(os.environ, PYTHONHASHSEED="0")
    return round(min(setup_seconds(args, True, env, time.monotonic() + 120) for _ in range(5)), 4)


def main(names: list[str]) -> None:
    wl.REFS_DIR.mkdir(exist_ok=True)
    for workload in names or wl.WORKLOADS:
        refs = sweep_refs(workload) if workload in wl.SWEEPS else golden_refs()
        # set-up workers read the references, so write them before timing set-up
        wl.ref_path(workload).write_text(json.dumps(refs, indent=1) + "\n")
        refs["setup_seconds"] = setup_reference(workload)
        wl.ref_path(workload).write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
