"""Workload definitions for the hyperlab benchmark.

A workload is a list of operations drawn from a fixed universe by seed.
An operation of a sweep workload is one `harness.run_ring` call on one
ring; the one operation of `golden` is a `harness.run_golden_examples()`
call.  Every operation's records are checked against references pinned
in `refs/`, which `make_refs.py` regenerates.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"
# A frozen copy of the library's modules at the commit the references were
# made on, imported as `hyperlab_seed`; runs time it next to `src/hyperlab`.
FROZEN_DIR = BENCH_DIR / "frozen"

SWEEPS = {
    # name: (moduli, include_constructions).  The seed-0 slice uses
    # |Phi| = 2 only; the universe other seeds sample from adds |Phi| = 3.
    "sweep-core": ((12,), False),
    "sweep-constructions": ((8, 9, 10, 11), True),
}
SLICE_PHI_SIZES = (2,)
UNIVERSE_PHI_SIZES = (2, 3)
WORKLOADS = tuple(SWEEPS) + ("golden",)


@dataclass(frozen=True)
class Op:
    """One unit of work: a ring `z<n>:<phi>` of a sweep, or the golden call."""

    name: str
    n: int = 0
    phi: tuple[int, ...] = ()


def library(frozen: bool = False):
    """The library under test, or with `frozen` its frozen seed copy."""
    return importlib.import_module("hyperlab_seed" if frozen else "hyperlab")


def family_spec(workload: str, phi_sizes: tuple[int, ...], frozen: bool = False):
    moduli, constructions = SWEEPS[workload]
    return library(frozen).harness.RingFamilySpec(
        moduli=moduli, phi_sizes=phi_sizes, include_constructions=constructions
    )


def _op_of(ring) -> Op:
    n, _, phi = ring.name[1:].partition(":")
    return Op(ring.name, int(n), tuple(int(c) for c in phi.split(",")))


def universe(workload: str, frozen: bool = False) -> list[Op]:
    """Every ring a seed of the sweep workload may draw, in canonical order."""
    spec = family_spec(workload, UNIVERSE_PHI_SIZES, frozen)
    return [_op_of(r) for r in library(frozen).harness.enumerate_family(spec)]


def sample(workload: str, seed: int, refs, frozen: bool = False) -> list[Op]:
    """The operations of one run.

    Seed 0 is the exact slice (|Phi| = 2).  Any other seed draws a sample
    of the same size from the universe with the slice's spread of costs:
    the universe, ordered by pinned reference cost, is cut halfway between
    consecutive slice rings, and one ring is drawn from each piece.
    """
    if workload == "golden":
        return [Op("golden")]
    ring_universe = universe(workload, frozen)
    in_slice = [len(r.phi) in SLICE_PHI_SIZES for r in ring_universe]
    if seed == 0:
        return [r for r, s in zip(ring_universe, in_slice) if s]
    rings = refs["rings"]
    missing = [r.name for r in ring_universe if r.name not in rings]
    if missing:
        raise LookupError(f"no reference for {len(missing)} rings, first {missing[0]}")
    order = sorted(range(len(ring_universe)), key=lambda i: (rings[ring_universe[i].name]["seconds"], i))
    anchors = [p for p, i in enumerate(order) if in_slice[i]]
    cuts = [0] + [(a + b + 1) // 2 for a, b in zip(anchors, anchors[1:])] + [len(order)]
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(order[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    return [ring_universe[i] for i in sorted(picked)]


def run_op(workload: str, op: Op, ring=None, frozen: bool = False):
    """Execute one operation and return its report.  For sweeps, `ring` is
    a freshly built ring, so no per-ring cache survives from an earlier
    pass."""
    harness = library(frozen).harness
    if workload == "golden":
        return harness.run_golden_examples()
    report = harness.Report()
    harness.run_ring(ring, run_spec(workload, frozen), report)
    return report


def run_spec(workload: str, frozen: bool = False):
    return family_spec(workload, SLICE_PHI_SIZES, frozen)


def fresh_ring(op: Op, frozen: bool = False):
    return library(frozen).core.FiniteHyperring.zn_phi(op.n, op.phi)


def digest(report) -> str:
    """sha256 of the ring's records exactly as `sweep --json` prints them."""
    return hashlib.sha256(report.to_jsonl().encode()).hexdigest()


def ref_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json"


def load_refs(workload: str) -> dict:
    """The pinned references: `setup_seconds`, and for sweeps `rings`
    ({ring name: {"digest", "seconds"}}), for golden `rows` (JSON lines)
    and `seconds`."""
    return json.loads(ref_path(workload).read_text())


def failed_units(workload: str, report, refs: dict, op: Op) -> tuple[int, int]:
    """(attempted, failed) for one operation's report against the refs.
    A sweep operation is one ring; a golden operation counts one unit per
    pinned row."""
    if workload == "golden":
        rows, got = refs["rows"], report.to_jsonl().splitlines()
        bad = sum(1 for i, line in enumerate(rows) if i >= len(got) or got[i] != line)
        return len(rows), bad + max(0, len(got) - len(rows))
    return 1, int(refs["rings"][op.name]["digest"] != digest(report))


def ref_seconds(workload: str, refs: dict, op: Op) -> float:
    """The operation's pinned reference cost."""
    return refs["seconds"] if workload == "golden" else refs["rings"][op.name]["seconds"]


def tested_multisets(report) -> int:
    """Multisets the windowed integer scans tested, from the golden rows."""
    return sum(
        r["params"]["tested"] for r in report.records if r["property"].startswith("windowed-")
    )
