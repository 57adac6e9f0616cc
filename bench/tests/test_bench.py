"""Tests of the benchmark's own code: tracing, sampling and scoring.

    python3 -m pytest bench/tests -q
"""
import contextlib
import copy
import io
import json

import pytest

import tracer
import workloads as wl
from run import tail_rank
from worker import Runner

SWEEP = "sweep-constructions"


@pytest.fixture(scope="module")
def refs():
    return wl.load_refs(SWEEP)


def one_pass(runner):
    return sum(runner.run(k) for k in range(len(runner.ops)))


def cheap_ops(count):
    """The first few Z_8 rings: quick, and with constructions on every
    harness layer runs."""
    return [op for op in wl.universe(SWEEP) if op.n == 8][:count]


def test_spans_nest_and_self_times_add_up(refs):
    ops = cheap_ops(3)
    runner = Runner(SWEEP, ops, refs)
    tr = tracer.Tracer()
    tr.install()
    try:
        wall = one_pass(runner)
    finally:
        tr.uninstall()
    # the wrappers change no result: every digest matches the reference
    assert (runner.attempted, runner.failed) == (3, 0)
    assert tr.absent == []
    for k, (_, start, end, parent) in enumerate(tr.spans):
        assert start <= end
        if parent >= 0:
            assert parent < k
            _, pstart, pend, _ = tr.spans[parent]
            assert pstart <= start and end <= pend
    metrics = tr.layer_metrics(wall)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["trace.untraced_self_s"] == pytest.approx(wall, abs=1e-9)
    assert metrics["trace.untraced_self_s"] >= 0
    assert metrics["harness.run_ring.calls"] == len(ops)
    assert metrics["construct.localize.calls"] >= metrics["construct.localize.refused"]
    assert 0 < metrics["harness.contexts.distinct"] <= metrics["harness.contexts.built"]
    assert 0 < metrics["harness.derived_contexts.s"]


def test_uninstall_restores_every_binding():
    from hyperlab import core, harness, ideals

    def bindings():
        return (harness.run_ring, harness.radical_nilpotent, ideals.radical_nilpotent,
                core.FiniteHyperring.__dict__["validate"], list(harness.IDEAL_CHECKS))

    before = bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        # the from-import alias and the defining module get the same wrapper
        assert harness.radical_nilpotent is ideals.radical_nilpotent is not before[2]
        assert core.FiniteHyperring.__dict__["validate"] is not before[3]
        assert all(fn is not orig for (_, fn), (_, orig) in zip(harness.IDEAL_CHECKS, before[4]))
    finally:
        tr.uninstall()
    assert bindings() == before


def test_missing_boundary_is_reported_absent_by_name():
    gone = "hyperlab.harness:no_such_layer_function"
    tr = tracer.Tracer([("x.gone", gone), ("harness.run_ring", "hyperlab.harness:run_ring")])
    tr.install()
    try:
        op = cheap_ops(1)[0]
        wl.run_op(SWEEP, op, wl.fresh_ring(op))
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics(1.0)
    assert tr.absent == [gone]
    assert not any(k.startswith("x.gone") for k in metrics)
    assert metrics["harness.run_ring.calls"] == 1


@pytest.mark.parametrize("workload", list(wl.SWEEPS))
def test_seeded_sampling_is_deterministic(workload):
    refs = wl.load_refs(workload)
    slice_ops = wl.sample(workload, 0, refs)
    assert slice_ops and all(len(op.phi) == 2 for op in slice_ops)
    assert wl.sample(workload, 0, refs) == slice_ops
    a, b, c = (wl.sample(workload, s, refs) for s in (5, 5, 6))
    assert a == b and a != c
    assert len(a) == len(c) == len(slice_ops)
    assert len(set(a)) == len(a)
    # every seed has the slice's spread of reference costs: its k-th
    # cheapest ring costs between the slice's (k-1)-th and (k+1)-th
    anchor = sorted(refs["rings"][op.name]["seconds"] for op in slice_ops)
    bounds = [anchor[0]] + anchor + [anchor[-1]]
    for ops in (a, c):
        for k, cost in enumerate(sorted(refs["rings"][op.name]["seconds"] for op in ops)):
            assert bounds[k] <= cost <= bounds[k + 2] or k in (0, len(ops) - 1)


def test_corrupted_reference_digest_raises_failed(refs):
    ops = cheap_ops(2)
    clean = Runner(SWEEP, ops, refs)
    one_pass(clean)
    assert (clean.attempted, clean.failed) == (2, 0)
    corrupted = copy.deepcopy(refs)
    corrupted["rings"][ops[1].name]["digest"] = "0" * 64
    runner = Runner(SWEEP, ops, corrupted)
    one_pass(runner)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_frozen_copy_gives_the_reference_records(refs):
    ops = cheap_ops(3)
    runner = Runner(SWEEP, ops, refs, frozen=True)
    one_pass(runner)
    assert (runner.attempted, runner.failed) == (3, 0)
    assert wl.library(True).__name__ == "hyperlab_seed"


def test_golden_rows_are_scored_one_by_one():
    from hyperlab.harness import Report

    refs = wl.load_refs("golden")
    rows = len(refs["rows"])
    report = Report(records=[json.loads(line) for line in refs["rows"]])
    assert wl.failed_units("golden", report, refs, wl.Op("golden")) == (rows, 0)
    report.records[3]["status"] = "fails"
    assert wl.failed_units("golden", report, refs, wl.Op("golden")) == (rows, 1)


def test_tail_rank_leaves_ten_samples_beyond():
    assert tail_rank(66) == 84
    assert tail_rank(164) == 93
    assert tail_rank(1) == 100


def test_seed0_sweep_core_is_the_cli_sweep():
    """The library-driven loop runs the CLI's program: same bytes."""
    from hyperlab.cli import classify_cli

    refs = wl.load_refs("sweep-core")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = classify_cli(["sweep", "--moduli", "12", "--phi-sizes", "2", "--no-constructions", "--json"])
    assert code == 0
    ops = wl.sample("sweep-core", 0, refs)
    reports = [wl.run_op("sweep-core", op, wl.fresh_ring(op)) for op in ops]
    assert "\n".join(r.to_jsonl() for r in reports) + "\n" == buf.getvalue()
    assert [refs["rings"][op.name]["digest"] for op in ops] == [wl.digest(r) for r in reports]
