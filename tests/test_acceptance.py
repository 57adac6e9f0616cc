"""End-to-end acceptance gate: each test is one pass/fail criterion, from
the exact worked integer examples through the full-family theorem sweep.
Budgets are wall-clock seconds and are asserted, not advisory."""
import time
from collections import Counter

import pytest

from hyperlab.harness import IDEAL_CHECKS, RingFamilySpec, run_golden_examples, run_theorem_suite
from hyperlab.verdicts import UVParams
from hyperlab.zphi import (
    ZPhiRing,
    bounded_uv_check,
    ideal_intersection,
    int_product,
    principal_membership,
    radical_membership,
)

from radical_oracle import validate_radical_oracle

R23 = ZPhiRing((2, 3))
R24 = ZPhiRing((2, 4))


@pytest.fixture(scope="session")
def family_run():
    t0 = time.perf_counter()
    report = run_theorem_suite(RingFamilySpec())
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def golden_run():
    return run_golden_examples()


def test_criterion_1_golden_integer_examples_exact():
    t0 = time.perf_counter()
    assert int_product(R23, [2, 3]) == {12, 18}
    assert int_product(R23, [2, 2]) == {8, 12}
    assert int_product(R23, [2, 2, 3]) == {48, 72, 108}
    assert int_product(R23, [2, 2, 2, 3]) == {192, 288, 432, 648}
    assert principal_membership(12, int_product(R23, [2, 3])) == "mixed"
    assert principal_membership(12, int_product(R23, [2, 2])) == "mixed"
    assert principal_membership(12, int_product(R23, [2, 2, 3])) == "subset"
    assert principal_membership(12, int_product(R23, [2, 2, 2, 3])) == "subset"
    assert radical_membership(R23, 12, 2) is False
    assert radical_membership(R23, 12, 3) is False
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_window_50_separates_primary_from_prime():
    t0 = time.perf_counter()
    primary = bounded_uv_check(R23, 12, UVParams(4, 2), window=50, variant="primary")
    assert not primary.fails
    assert primary.witness is None
    assert primary.tested == 2776780
    prime = bounded_uv_check(R23, 12, UVParams(4, 2), window=50, variant="prime")
    assert prime.fails
    assert prime.witness == {"factors": [2, 2, 2, 3]}
    assert time.perf_counter() - t0 < 300.0


def test_criterion_3_small_window_finds_3_2_counterexample():
    t0 = time.perf_counter()
    for window in (3, 5, 8):
        v = bounded_uv_check(R23, 12, UVParams(3, 2), window=window, variant="primary")
        assert v.fails
        assert v.witness == {"factors": [2, 2, 3]}
    assert time.perf_counter() - t0 < 1.0


def test_criterion_4_intersection_value_and_windowed_statuses(golden_run):
    assert ideal_intersection([3, 5, 7]) == 105
    flagged = [
        rec
        for rec in golden_run.records
        if rec["property"] == "principal-intersection"
    ]
    assert len(flagged) == 1
    assert flagged[0]["params"]["computed"] == 105
    assert flagged[0]["params"]["printed_source_value"] == 150
    assert flagged[0]["params"]["matches_printed_value"] is False
    for d in (3, 5, 7):
        v = bounded_uv_check(R24, d, UVParams(3, 2), window=30, variant="primary")
        assert not v.fails, d
    v = bounded_uv_check(R24, 105, UVParams(3, 2), window=30, variant="primary")
    assert v.fails
    assert v.witness == {"factors": [3, 5, 7]}


def test_criterion_5_theorem_suite_zero_violations(family_run, golden_run):
    report, elapsed = family_run
    assert report.violations == 0
    assert not report.incomplete
    assert elapsed < 1800.0
    # the worked-example replays that back criteria 1 through 4 ran in
    # full: nothing skipped, nothing failed
    assert golden_run.skipped == 0
    assert golden_run.violations == 0
    assert len(golden_run.records) == 19


# Rows of the default sweep that each premise of a theorem check gated,
# keyed by (property, the premise's space): 24,075 gated `holds` rows and
# 2,380 identity skips.
PREMISE_COVERAGE = {
    ("radical-of-uv-primary-is-prime", "standing identity hypothesis"): 595,
    ("radical-of-uv-primary-is-prime", "gated on C-hyperideals"): 1655,
    ("radical-of-uv-primary-is-prime", "gated on some (u,v) holding"): 31,
    ("primary-implies-uv-primary", "gated on primary"): 770,
    ("one-absorbing-primary-matches-3-2", "needs u_max >= 3"): 0,
    ("colon-by-nonunit-drops-arity", "standing identity hypothesis"): 595,
    ("prime-times-maximal-is-uv-primary", "gated on local ring and prime C-hyperideal"): 2586,
    ("strong-c-radical-is-strong-c", "gated on strong C"): 2627,
    ("strong-c-unit-padding", "gated on strong C and an identity"): 2730,
    ("strong-c-unit-padding", "gated on a+1 nonunit for some a in P"): 23,
    ("nonlocal-arity-descent", "standing identity hypothesis"): 595,
    ("nonlocal-arity-descent", "gated on nonlocal ring and strong C"): 2156,
    ("nonlocal-uv-primary-equals-primary", "standing identity hypothesis"): 595,
    ("nonlocal-uv-primary-equals-primary", "gated on nonlocal ring and strong C"): 2156,
    ("arity-gap-forces-local-with-maximal-radical", "gated on strong C"): 2627,
    ("top-arity-four-way-agreement", "gated on C-hyperideals"): 2103,
    ("divided-ring-uv-primary-equals-primary", "gated on divided ring and C-hyperideal"): 2508,
    ("radical-forms-agree-on-c-hyperideal", "gated on C-hyperideals"): 2103,
}


def test_criterion_5_premise_coverage(family_run):
    """How often each premise stopped its check on the default family: a
    change that gates a check away, or lets through what a premise used to
    stop, moves a count."""
    report, _ = family_run
    rows = Counter((r["property"], r["status"], r["space"]) for r in report.records if r["params"]["tested"] == 0)
    coverage = {
        (prop, p.space): rows[prop, p.unmet().status, p.space] for prop, check in IDEAL_CHECKS for p in check.premises
    }
    assert coverage == PREMISE_COVERAGE
    assert sum(coverage.values()) == 26455


def test_criterion_6_radical_consistency(family_run):
    report, _ = family_run
    agree = [
        rec
        for rec in report.records
        if rec["property"] == "radical-forms-agree-on-c-hyperideal"
    ]
    assert agree
    assert all(rec["status"] != "fails" for rec in agree)
    assert any(rec["params"].get("tested", 0) > 0 for rec in agree)
    compared = [
        rec for rec in report.records if rec["property"] == "radical-forms-compared"
    ]
    assert compared
    for rec in compared:
        assert "nilpotent" in rec["params"]
        assert "prime_intersection" in rec["params"]


def test_criterion_7_radical_oracle_agreement():
    v = validate_radical_oracle(samples=10000)
    assert v.holds
    assert v.tested == 10000


def test_criterion_8_construction_soundness(family_run):
    report, _ = family_run
    quotient_rows = [
        rec for rec in report.records if rec["property"] == "quotient-is-hyperring"
    ]
    assert quotient_rows
    assert all(rec["status"] == "holds" for rec in quotient_rows)

    # the default family reaches M_2 only for n = 2 (the 64-element cap),
    # and its one n = 2 ring is refused as noncommutative with a witness
    matrix_rows = [
        rec for rec in report.records if rec["property"] == "matrix-ring-valid"
    ]
    assert [(rec["ring"], rec["status"]) for rec in matrix_rows] == [("z2:0,1", "skipped")]
    assert matrix_rows[0]["witness"] == {
        "kind": "noncommutative-product",
        "pair": [[0, 0, 0, 1], [0, 0, 1, 0]],
        "left": [[0, 0, 0, 0], [0, 0, 1, 0]],
        "right": [[0, 0, 0, 0]],
    }
    assert {rec["property"] for rec in report.records if rec["property"].startswith("matrix-")} == {
        "matrix-ring-valid"
    }

    localization_rows = [
        rec
        for rec in report.records
        if rec["property"] == "localization-constructed"
    ]
    assert localization_rows
    assert any(rec["status"] == "holds" for rec in localization_rows)

    # every error row anywhere in the sweep is an explained construction
    # refusal: localization only, with a structured witness
    error_rows = [rec for rec in report.records if rec["status"] == "error"]
    for rec in error_rows:
        assert rec["property"] == "localization-constructed"
        assert rec["witness"] is not None
        assert "message" in rec["witness"]
        assert "detail" in rec["witness"]
