"""Sweep harness report shape and determinism, oracle self-checks, and the
command line interface, driven through subprocesses or, where a test
patches the library, in-process."""
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from hyperlab import classify, cli, harness, verdicts
from hyperlab.cli import classify_cli
from hyperlab.core import FiniteHyperring, mask_of, parse_ring_spec
from hyperlab.harness import (
    IDEAL_CHECKS,
    Report,
    RingFamilySpec,
    build_ring_context,
    check_equal_radical_intersections,
    derived_context,
    enumerate_family,
    run_golden_examples,
    run_localization_checks,
    run_matrix_checks,
    run_quotient_checks,
    run_ring,
    run_theorem_suite,
)
from hyperlab.verdicts import SplitMode

from radical_oracle import validate_radical_oracle

TINY = RingFamilySpec(moduli=(2, 3, 4), phi_sizes=(2,))

# sha256 of the suite report on moduli 4-9, |Phi| = 2, constructions on:
# every verdict, witness, tested count and space string of the (u,v) scan
# and the construction contexts feeds it.  (mode, digest, fails rows)
SUITE_DIGESTS = [
    (SplitMode.ALL, "99c3e652087e451d925b75bf29e536ed9cc1ef7775c65bfece1722b820d3447f", 0),
    (SplitMode.ANY, "2aa4a4aef9d3cae5db58fcfcf0266cfa1ec07f4b2330210978df8b4edda47db1", 3),
]

# sha256 of the suite report on Z_12, |Phi| = 2, constructions off (the
# benchmark's `sweep-core` slice): the 28 rings without an identity scan all
# 12 elements as nonunits, and the unit-padding check scans the full
# carrier, so these pin the kernel on 12-slot pools.  (mode, digest, fails)
Z12_SUITE_DIGESTS = [
    (SplitMode.ALL, "6af7721c32db65105441a267f47da4eb27daf4811bef0aa7662747f10c1e038a", 0),
    (SplitMode.ANY, "92ba63225e34c395dc5afa61208d907c53c3b667abf584bf688cdcb08cff80c9", 40),
]

# The same report with a fixed pattern of (u,v) matrix entries flipped (see
# _flipped_uv_matrices): 17 properties then fail, so the digest pins the
# witness and the tested count that every theorem and transfer walk reports
# on its failing branch, which the clean suite never reaches.
FLIPPED_DIGESTS = [
    (SplitMode.ALL, "37fa9f0f44049c99a475b6996cde9277814e40a33bceb41c678263d0cd8d5a9e", 1162),
    (SplitMode.ANY, "c01ad54aed363158a75b05182059aa4b1f7b1472371ad08160825cb6da30b2df", 1172),
]


def _flip(verdict, uv):
    if verdict.holds:
        return verdicts.Verdict(
            verdicts.FAILS, {"flipped": list(uv)}, verdict.checked_space, verdict.tested, dict(verdict.extra)
        )
    if verdict.fails:
        return verdicts.Verdict(verdicts.HOLDS, None, verdict.checked_space, verdict.tested, dict(verdict.extra))
    return verdict


def _flipped_uv_matrices(real):
    def compute(ring, targets, u_max, mode):
        primary, prime = real(ring, targets, u_max, mode)
        primary = [dict(m) for m in primary]
        prime = [dict(m) for m in prime]
        for t, (p, _rad) in enumerate(targets):
            for u, v in list(primary[t]):
                if (7 * p + 3 * u + v + ring.n) % 5 == 0:
                    primary[t][(u, v)] = _flip(primary[t][(u, v)], (u, v))
                if (5 * p + u + 3 * v + ring.n) % 7 == 0:
                    prime[t][(u, v)] = _flip(prime[t][(u, v)], (u, v))
        return primary, prime

    return compute


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hyperlab", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_report():
    return run_theorem_suite(TINY)


class TestReportShape:
    def test_record_key_order(self, tiny_report):
        for line in tiny_report.to_jsonl().splitlines():
            rec = json.loads(line)
            assert list(rec) == [
                "ring",
                "ideal",
                "property",
                "params",
                "status",
                "witness",
                "space",
            ]

    def test_millis_only_when_requested(self, tiny_report):
        timed = run_theorem_suite(RingFamilySpec(moduli=(2,), phi_sizes=(2,)), timings=True)
        assert all("millis" not in rec for rec in tiny_report.records)
        assert all(isinstance(rec["millis"], int) for rec in timed.records)

    def test_statuses_from_fixed_vocabulary(self, tiny_report):
        allowed = {"holds", "fails", "inconclusive", "skipped", "error"}
        assert {rec["status"] for rec in tiny_report.records} <= allowed

    def test_summary_counts(self, tiny_report):
        s = tiny_report.summary()
        assert f"records={len(tiny_report.records)}" in s
        assert "violations=0" in s

    def test_deterministic_across_runs(self, tiny_report):
        again = run_theorem_suite(TINY)
        assert again.to_jsonl() == tiny_report.to_jsonl()

    def test_tiny_family_is_clean(self, tiny_report):
        assert tiny_report.violations == 0
        assert not tiny_report.incomplete

    @pytest.mark.parametrize("mode,digest,violations", SUITE_DIGESTS, ids=["all", "any"])
    def test_suite_report_is_pinned(self, mode, digest, violations):
        report = run_theorem_suite(RingFamilySpec(moduli=(4, 5, 6, 7, 8, 9), phi_sizes=(2,), mode=mode))
        assert report.violations == violations
        assert hashlib.sha256(report.to_jsonl().encode()).hexdigest() == digest

    @pytest.mark.parametrize("mode,digest,violations", Z12_SUITE_DIGESTS, ids=["all", "any"])
    def test_z12_suite_report_is_pinned(self, mode, digest, violations):
        report = run_theorem_suite(
            RingFamilySpec(moduli=(12,), phi_sizes=(2,), include_constructions=False, mode=mode)
        )
        assert report.violations == violations
        assert hashlib.sha256(report.to_jsonl().encode()).hexdigest() == digest

    @pytest.mark.parametrize("mode,digest,violations", FLIPPED_DIGESTS, ids=["all", "any"])
    def test_flipped_suite_report_is_pinned(self, monkeypatch, mode, digest, violations):
        monkeypatch.setattr(harness, "compute_uv_matrices", _flipped_uv_matrices(harness.compute_uv_matrices))
        report = run_theorem_suite(RingFamilySpec(moduli=(4, 5, 6, 7, 8, 9), phi_sizes=(2,), mode=mode))
        assert report.violations == violations
        assert len({r["property"] for r in report.records if r["status"] == "fails"}) == 17
        assert hashlib.sha256(report.to_jsonl().encode()).hexdigest() == digest


def _rows(report, *props):
    return [json.dumps(r) for r in report.records if r["property"] in props]


class TestTransferBranches:
    """Failing branches that no ring of the family reaches, hit by
    tampering with a built context or a construction."""

    def test_intersection_missing_and_failing_target(self):
        ctx = build_ring_context(parse_ring_spec("z8:1,3"), RingFamilySpec())
        del ctx.by_mask[mask_of({0})]
        target = ctx.by_mask[mask_of({0, 4})]
        planted = dict(target.uv_primary)
        planted[(3, 2)] = verdicts.fails({"planted": [3, 2]}, space="planted")
        ctx.by_mask[target.mask] = replace(target, uv_primary=planted)
        report = Report()
        check_equal_radical_intersections(ctx, report)
        prop = "equal-radical-intersection-stays-uv-primary"
        space = "equal-radical intersections"
        missing = "intersection not in lattice"
        assert report.records == [
            {"ring": "z8:1,3", "ideal": [0], "property": prop,
             "params": {"components": [[0], [0, 4]], "tested": 1}, "status": "fails",
             "witness": {"components": [[0], [0, 4]], "defect": missing}, "space": space},
            {"ring": "z8:1,3", "ideal": [0], "property": prop,
             "params": {"components": [[0], [0, 2, 4, 6]], "tested": 1}, "status": "fails",
             "witness": {"components": [[0], [0, 2, 4, 6]], "defect": missing}, "space": space},
            {"ring": "z8:1,3", "ideal": [0, 4], "property": prop,
             "params": {"components": [[0, 4], [0, 2, 4, 6]], "tested": 3}, "status": "fails",
             "witness": {"components": [[0, 4], [0, 2, 4, 6]], "at": [3, 2], "witness": {"planted": [3, 2]}},
             "space": space},
        ]
        assert [list(r["witness"]) for r in report.records] == [
            ["components", "defect"], ["components", "defect"], ["components", "at", "witness"]
        ]

    @pytest.fixture
    def empty_derived_lookup(self, monkeypatch):
        real = harness.build_ring_context

        def facts_for(ring, spec):
            ctx = real(ring, spec)
            ctx.by_mask.clear()
            return ctx

        monkeypatch.setattr(harness, "build_ring_context", facts_for)

    def test_image_and_preimage_target_missing(self, empty_derived_lookup):
        ctx = build_ring_context(parse_ring_spec("z4:1,3"), RingFamilySpec())
        ctx.by_mask.clear()
        report = Report()
        run_quotient_checks(ctx, report)

        def row(ideal, kernel, side, members):
            return json.dumps({
                "ring": "z4:1,3", "ideal": ideal, "property": f"good-hom-{side}-transfer",
                "params": {"kernel": kernel, "tested": 1}, "status": "fails",
                "witness": {side: members, "defect": f"{side} not a proper hyperideal"},
                "space": f"{side} transfer",
            })

        assert _rows(report, "good-hom-image-transfer", "good-hom-preimage-transfer") == [
            row([0], [0], "image", [0]),
            row([0, 2], [0], "image", [0, 2]),
            row([0], [0], "preimage", [0]),
            row([0, 2], [0], "preimage", [0, 2]),
            row([0, 2], [0, 2], "image", [0]),
            row([0], [0, 2], "preimage", [0, 2]),
        ]

    def test_image_and_preimage_target_not_c(self, monkeypatch):
        planted = verdicts.fails({"planted": "c"}, space="planted")

        def not_c(ctx):
            ctx.by_mask = {m: replace(g, c=planted) for m, g in ctx.by_mask.items()}
            return ctx

        real = harness.build_ring_context
        monkeypatch.setattr(harness, "build_ring_context", lambda ring, spec: not_c(real(ring, spec)))
        ctx = not_c(build_ring_context(parse_ring_spec("z4:1,3"), RingFamilySpec()))
        report = Report()
        run_quotient_checks(ctx, report)

        def row(ideal, kernel, side, members):
            return json.dumps({
                "ring": "z4:1,3", "ideal": ideal, "property": f"good-hom-{side}-transfer",
                "params": {"kernel": kernel, "tested": 1}, "status": "fails",
                "witness": {side: members, "at": [2, 1], "uv_witness": None, "c_witness": {"planted": "c"}},
                "space": f"{side} transfer",
            })

        assert _rows(report, "good-hom-image-transfer", "good-hom-preimage-transfer") == [
            row([0], [0], "image", [0]),
            row([0, 2], [0], "image", [0, 2]),
            row([0], [0], "preimage", [0]),
            row([0, 2], [0], "preimage", [0, 2]),
            row([0, 2], [0, 2], "image", [0]),
            row([0], [0, 2], "preimage", [0, 2]),
        ]

    def test_matrix_checks_write_one_row_per_branch(self):
        # the family's only matrix candidate is refused as noncommutative,
        # a base with the null product builds a 16-element matrix ring, and
        # a Z_3 base exceeds the carrier cap and writes nothing
        null = FiniteHyperring.from_element_table(2, [[0, 1], [1, 0]], [[[0], [0]], [[0], [0]]], name="null-z2")
        rows = []
        for ring in (parse_ring_spec("z2:0,1"), null, parse_ring_spec("z3:1,2")):
            report = Report()
            run_matrix_checks(build_ring_context(ring, RingFamilySpec(moduli=(ring.n,))), report)
            rows.append(report.to_jsonl().splitlines())
        assert rows == [
            [json.dumps({"ring": "z2:0,1", "ideal": None, "property": "matrix-ring-valid",
                         "params": {"tested": 1, "reason": "matrix product is not commutative over this base"},
                         "status": "skipped",
                         "witness": {"kind": "noncommutative-product", "pair": [[0, 0, 0, 1], [0, 0, 1, 0]],
                                     "left": [[0, 0, 0, 0], [0, 0, 1, 0]], "right": [[0, 0, 0, 0]]},
                         "space": "matrix construction"})],
            [json.dumps({"ring": "null-z2", "ideal": None, "property": "matrix-ring-valid",
                         "params": {"tested": 1, "size": 16}, "status": "holds", "witness": None,
                         "space": "matrix construction"})],
            [],
        ]

    def test_localization_forward_target_missing(self, empty_derived_lookup):
        ctx = build_ring_context(parse_ring_spec("z6:1,5"), RingFamilySpec())
        report = Report()
        run_localization_checks(ctx, report)
        s = [1, 3, 5]
        assert _rows(report, "localization-forward", "localization-reverse",
                     "radical-commutes-with-localization") == [json.dumps(r) for r in [
            {"ring": "z6:1,5", "ideal": [0], "property": "localization-forward",
             "params": {"s": s, "tested": 0}, "status": "holds", "witness": None,
             "space": "localization forward"},
            {"ring": "z6:1,5", "ideal": [0, 2, 4], "property": "localization-forward",
             "params": {"s": s, "tested": 1}, "status": "fails",
             "witness": {"image": [0], "defect": "localized ideal not proper"},
             "space": "localization forward"},
            {"ring": "z6:1,5", "ideal": [0, 2, 4], "property": "localization-reverse",
             "params": {"s": s, "tested": 0}, "status": "holds", "witness": None,
             "space": "localization reverse"},
        ]]


class TestDerivedContexts:
    def test_other_table_gets_its_own_context(self):
        # same carrier size, different products: only an equal table may
        # reuse the parent's context
        ctx = build_ring_context(parse_ring_spec("z8:1,3"), RingFamilySpec())
        other = parse_ring_spec("z8:1,5")
        assert derived_context(ctx, parse_ring_spec("z8:1,3")) is ctx
        assert derived_context(ctx, other).ring is other

    @pytest.mark.parametrize("spec,derived", [
        ("z8:1,3", ["z8:1,3/(4 cosets)", "z8:1,3/(2 cosets)"]),
        ("z9:0,1", ["z9:0,1/(3 cosets)", "loc(z9:0,1,2)"]),
    ])
    def test_parent_table_reuses_parent_context(self, monkeypatch, spec, derived):
        real = harness.build_ring_context
        built = []

        def recording(ring, family):
            built.append(ring)
            return real(ring, family)

        monkeypatch.setattr(harness, "build_ring_context", recording)
        ring = parse_ring_spec(spec)
        report = Report()
        run_ring(ring, RingFamilySpec(), report)
        assert built[0] is ring
        # A/{0} repeats the parent's table and is not built again; quotients
        # by nonzero ideals and built localizations still are
        assert all(d.table_key() != ring.table_key() for d in built[1:])
        assert [d.name for d in built[1:]] == derived
        assert {r["ring"] for r in report.records} == {spec}
        by_zero = [r for r in report.records if r["property"] == "quotient-is-hyperring" and r["ideal"] == [0]]
        assert [(r["status"], r["params"]) for r in by_zero] == [("holds", {"tested": 1, "cosets": ring.n})]


class TestScanBudget:
    """z10:1,3 has an identity and 6 nonunits: its nonunit scan up to u = 5
    counts 455 multisets, its full-carrier scan 2,992."""

    RING = "z10:1,3"
    EVENS = [0, 2, 4, 6, 8]  # the one ideal that meets the unit-padding premises

    def test_ring_over_budget_is_one_skipped_row(self):
        report = Report()
        run_ring(parse_ring_spec(self.RING), RingFamilySpec(tuple_budget=454), report)
        assert [r["property"] for r in report.records] == ["hyperring-axioms", "scan-budget"]
        assert report.records[-1]["status"] == "skipped"
        assert report.records[-1]["params"] == {"tested": 0, "pool": 6, "u_max": 5}
        assert report.incomplete

    @pytest.mark.parametrize("budget", [455, 2991])
    def test_full_carrier_scan_over_budget_is_skipped(self, budget):
        ring = parse_ring_spec(self.RING)
        ctx = build_ring_context(ring, RingFamilySpec(tuple_budget=budget))
        verdict = harness.check_strong_c_unit_padding(ctx, ctx.find(mask_of(self.EVENS)))
        assert verdict.status == "skipped"
        assert verdict.checked_space == f"full-carrier scan over tuple budget {budget}"
        assert "full_pool_uv" not in vars(ctx)  # nothing was scanned
        report = Report()
        run_ring(ring, RingFamilySpec(tuple_budget=budget), report)
        padding = {
            tuple(r["ideal"]): r["status"] for r in report.records if r["property"] == "strong-c-unit-padding"
        }
        assert padding.pop(tuple(self.EVENS)) == "skipped"
        assert set(padding.values()) == {"holds"}
        assert report.incomplete

    def test_full_carrier_scan_within_budget_runs(self):
        ctx = build_ring_context(parse_ring_spec(self.RING), RingFamilySpec(tuple_budget=2992))
        verdict = harness.check_strong_c_unit_padding(ctx, ctx.find(mask_of(self.EVENS)))
        assert verdict.holds and verdict.tested > 0
        assert list(ctx.full_pool_uv) == [mask_of(self.EVENS)]
        report = Report()
        run_ring(ctx.ring, RingFamilySpec(tuple_budget=2992), report)
        assert not report.incomplete


class TestPremises:
    """The identity hypothesis of each check that states one is needed: on
    these identity-free rings every other premise is met and the conclusion
    fails.  (property, ring, ideal, part of the conclusion's witness)"""

    IDENTITY_NEEDED = [
        ("colon-by-nonunit-drops-arity", "z4:0,2", [0], {"x": 2, "colon": [0, 1, 2, 3], "defect": "full carrier"}),
        ("radical-of-uv-primary-is-prime", "z4:0,2", [0, 2], {"radical": "full carrier"}),
        ("nonlocal-arity-descent", "z12:2,8", [0, 6], {"premise": [3, 2], "conclusion": [2, 1]}),
        ("nonlocal-uv-primary-equals-primary", "z12:2,8", [0, 6], {"at": [3, 2], "primary_status": "fails"}),
    ]

    @pytest.mark.parametrize("prop,spec,ideal,witness", IDENTITY_NEEDED, ids=[c[0] for c in IDENTITY_NEEDED])
    def test_identity_hypothesis_is_needed(self, prop, spec, ideal, witness):
        check = dict(IDEAL_CHECKS)[prop]
        ctx = build_ring_context(parse_ring_spec(spec), RingFamilySpec())
        f = ctx.find(mask_of(ideal))
        assert [p.test(ctx, f) for p in check.premises] == [p is not harness.IDENTITY for p in check.premises]
        assert check(ctx, f) == verdicts.skipped("ring has no identity", space="standing identity hypothesis")
        conclusion = check.__wrapped__(ctx, f)
        assert conclusion.fails
        assert {k: conclusion.witness[k] for k in witness} == witness


class TestFamily:
    def test_enumeration_is_deduplicated(self):
        family = enumerate_family(TINY)
        keys = [ring.table_key() for ring in family]
        assert len(keys) == len(set(keys))
        assert all(ring.n in (2, 3, 4) for ring in family)

    def test_every_member_validates(self):
        for ring in enumerate_family(TINY):
            assert ring.validate().ok, ring.name


class TestOracles:
    def test_radical_oracle_sample(self):
        v = validate_radical_oracle(samples=500)
        assert v.holds
        assert v.tested == 500

    def test_harness_catches_lying_primary_decider(self, monkeypatch):
        # force the primary decider to accept everything; the arity
        # hierarchy checks must then flag the zero ideal of z6:1,5
        monkeypatch.setattr(
            "hyperlab.classify.is_primary",
            lambda ring, pmask, radmask: verdicts.holds(space="patched", tested=1),
        )
        report = Report()
        spec = RingFamilySpec(
            u_max=3, mode=SplitMode.ALL, include_constructions=False
        )
        run_ring(parse_ring_spec("z6:1,5"), spec, report)
        assert report.violations > 0

    def test_oracle_catches_lying_radical_criterion(self, monkeypatch):
        monkeypatch.setattr(
            "hyperlab.zphi.radical_membership", lambda ring, d, a: True
        )
        v = validate_radical_oracle(samples=200)
        assert v.fails
        assert "bruteforce" in v.witness


GOLDEN_DIGEST = "7724eeb2335f010cd824e218e20bb2ad54efdb88cdf526a70d27a699ef248d47"


class TestGolden:
    def test_replay_is_clean(self):
        report = run_golden_examples()
        assert len(report.records) == 19
        assert report.violations == 0
        assert report.skipped == 0
        assert report.errors == 0

    def test_report_is_pinned(self):
        report = run_golden_examples()
        assert hashlib.sha256(report.to_jsonl().encode()).hexdigest() == GOLDEN_DIGEST


class FakeTime:
    """Stands in for the harness's `time` module: every clock read advances
    the clock by `step_ns`, and `advance` moves it by hand."""

    def __init__(self, step_ns=0):
        self.now_ns, self.step_ns = 0, step_ns

    def perf_counter_ns(self):
        self.now_ns += self.step_ns
        return self.now_ns

    def advance(self, ns):
        self.now_ns += ns


class TestTimings:
    def test_each_stamp_is_its_gap(self, monkeypatch):
        clock = FakeTime()
        monkeypatch.setattr(harness, "time", clock)
        report = Report(timings=True)
        stamps = []
        for gap_ms in (3, 0, 250, 1, 17):
            clock.advance(gap_ms * 1_000_000)
            stamps.append(report.add_verdict("r", None, "p", {}, verdicts.holds())["millis"])
        assert stamps == [3, 0, 250, 1, 17]

    def test_remainder_carries_over(self, monkeypatch):
        monkeypatch.setattr(harness, "time", FakeTime(step_ns=400_000))
        report = Report(timings=True)
        stamps = [report.add_verdict("r", None, "p", {}, verdicts.holds())["millis"] for _ in range(25)]
        # 25 reads after the one at creation: 10 ms in all, never a whole
        # millisecond between two reads
        assert stamps == [0, 0, 1, 0, 1] * 5
        assert sum(stamps) == 10

    def test_context_build_lands_in_the_rings_stamps(self, monkeypatch):
        clock = FakeTime()
        monkeypatch.setattr(harness, "time", clock)
        real = harness.build_ring_context
        builds = []

        def slow_build(ring, spec):
            clock.advance(50_000_000)
            builds.append(ring.name)
            return real(ring, spec)

        monkeypatch.setattr(harness, "build_ring_context", slow_build)
        report = Report(timings=True)
        run_ring(parse_ring_spec("z6:1,5"), RingFamilySpec(), report)
        stamps = [rec["millis"] for rec in report.records]
        assert len(builds) > 1  # the ring's own context and derived ones
        assert sum(stamps) == 50 * len(builds)
        assert set(stamps) == {0, 50}
        # the ring's context is booked to its first ideal-check row
        assert stamps[:2] == [0, 50]
        assert report.records[1]["property"] == IDEAL_CHECKS[0][0]

    def test_stamps_add_up_to_the_wall_time(self):
        t0 = time.perf_counter()
        report = run_theorem_suite(TINY, timings=True)
        wall_ms = (time.perf_counter() - t0) * 1000
        total = sum(rec["millis"] for rec in report.records)
        assert wall_ms - 5 <= total <= wall_ms

    def test_stripped_stamps_give_the_untimed_bytes(self, tiny_report):
        timed = run_theorem_suite(TINY, timings=True)
        for rec in timed.records:
            del rec["millis"]
        assert timed.to_jsonl() == tiny_report.to_jsonl()


class TestCLI:
    def test_validate_ok(self):
        proc = run_cli("validate", "--ring", "z8:1,3", "--json")
        assert proc.returncode == 0
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["property"] == "hyperring-axioms"
        assert rec["params"]["has_identity"] is True

    def test_check_prime_holds(self):
        proc = run_cli(
            "check", "--ring", "z8:1,3", "--prop", "prime", "--ideal", "0,2,4,6"
        )
        assert proc.returncode == 0

    def test_check_prime_fails(self):
        proc = run_cli(
            "check", "--ring", "z6:1,5", "--prop", "prime", "--ideal", "0", "--json"
        )
        assert proc.returncode == 1
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["status"] == "fails"
        assert rec["witness"] == {"x": 2, "y": 3}

    def test_check_mode_flag(self):
        base = (
            "check", "--ring", "z6:1,5", "--prop", "uv-primary",
            "--ideal", "0", "--u", "3", "--v", "1",
        )
        assert run_cli(*base).returncode == 0
        assert run_cli(*base, "--mode", "all").returncode == 1

    @pytest.mark.parametrize("args", [
        ("validate", "--ring", "z6:1,5"),
        ("ideals", "--ring", "z6:1,5"),
        ("golden",),
    ], ids=["validate", "ideals", "golden"])
    def test_mode_flag_is_refused_where_unread(self, args):
        proc = run_cli(*args, "--mode", "all")
        assert proc.returncode == 2
        assert "unrecognized arguments: --mode all" in proc.stderr

    @pytest.mark.parametrize("prop,extra", [
        ("uv-primary", ()),
        ("uv-prime", ()),
        ("uv-i-primary", ("--aux-ideal", "0")),
    ])
    def test_check_scan_over_budget_is_skipped(self, prop, extra, monkeypatch, capsys):
        # z12:1,5 has 8 nonunits: a scan up to u = 40 counts 377,348,985
        # multisets, over the default budget, so the check refuses it
        # without scanning, in one row that marks the report incomplete.
        # Run in-process with the scan kernel raising, so a check that
        # starts the scan fails at once instead of running it
        def no_scan(*args, **kwargs):
            raise AssertionError("the check started a (u,v) scan")

        monkeypatch.setattr(classify, "uv_scan", no_scan)
        args = ["check", "--ring", "z12:1,5", "--prop", prop, "--ideal", "0", "--u", "40", "--v", "1", *extra]
        assert classify_cli([*args, "--json"]) == 0
        (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
        assert rec["status"] == "skipped"
        assert rec["space"] == "nonunit scan over tuple budget 10000000"
        assert {k: rec["params"][k] for k in ("u", "tested", "reason", "pool")} == {
            "u": 40, "tested": 0, "reason": "multiset budget exceeded", "pool": 8,
        }
        classify_cli(args)
        assert capsys.readouterr().out.rstrip().endswith("incomplete=True")

    def test_check_missing_arity_is_usage_error(self):
        proc = run_cli(
            "check", "--ring", "z8:1,3", "--prop", "uv-primary", "--ideal", "0"
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_unwritable_out_is_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        proc = run_cli("validate", "--ring", "z6:1,5", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write report to {str(out)!r}")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("args", [
        ("sweep", "--u-max", "1"),
        ("sweep", "--tuple-budget", "0"),
        ("sweep", "--moduli", "1,2"),
        ("sweep", "--moduli", "3..2"),
        ("sweep", "--moduli", "2", "--phi-universe", "1", "--phi-sizes", "2"),
        ("check", "--ring", "z8:1,3", "--ideal", "0,9", "--prop", "prime"),
        ("check", "--ring", "z8:1,3", "--ideal", "-1", "--prop", "prime"),
        ("check", "--ring", "z8:1,3", "--ideal", "0,4", "--prop", "uv-i-primary",
         "--u", "3", "--v", "2", "--aux-ideal", "0,12"),
        ("check", "--ring", "z6:1,5", "--prop", "uv-primary", "--ideal", "0",
         "--u", "3", "--v", "1", "--mode", "bogus"),
        ("sweep", "--moduli", "2", "--mode", "bogus"),
        ("zphi", "--prop", "uv-primary", "--d", "12", "--u", "3", "--v", "2",
         "--window", "4", "--mode", "bogus"),
        # a replayed witness is exactly u nonunits: too few factors, a
        # unit (5 in z6:1,5, 1 in Z over {1,2}), too many
        ("check", "--ring", "z6:1,5", "--prop", "uv-primary", "--ideal", "0",
         "--u", "3", "--v", "1", "--replay", "2,3"),
        ("check", "--ring", "z6:1,5", "--prop", "uv-primary", "--ideal", "0",
         "--u", "3", "--v", "1", "--mode", "all", "--replay", "3,5,2"),
        ("zphi", "--phi", "1,2", "--prop", "uv-prime", "--d", "4", "--u", "3", "--v", "2",
         "--mode", "all", "--replay", "1,2,2"),
        ("zphi", "--prop", "uv-primary", "--d", "12", "--u", "3", "--v", "2", "--replay", "2,2,3,3"),
    ], ids=["u-max", "tuple-budget", "moduli", "moduli-reversed", "phi-beyond-residues",
            "ideal-member", "ideal-negative", "aux-ideal-member",
            "check-mode", "sweep-mode", "zphi-mode",
            "check-replay-short", "check-replay-unit", "zphi-replay-unit", "zphi-replay-long"])
    def test_out_of_range_argument_is_usage_error(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        if "bogus" in args:  # refused by the parser, which prints its usage first
            assert "argument --mode: invalid choice: 'bogus'" in proc.stderr
        else:
            assert proc.stderr.startswith("error:")
        if "--u-max" in args:
            assert proc.stderr == "error: u_max must be at least 2\n"
        if "--tuple-budget" in args:
            assert proc.stderr == "error: tuple_budget must be at least 1\n"

    @pytest.mark.parametrize("args,unread", [
        (("zphi", "--prop", "product", "--factors", "2,3", "--mode", "all", "--window", "7", "--u", "9"),
         "--mode, --u, --window"),
        (("check", "--ring", "z8:1,3", "--prop", "prime", "--ideal", "0,4", "--mode", "all",
          "--u", "3", "--v", "2", "--aux-ideal", "0"), "--aux-ideal, --mode, --u, --v"),
        (("check", "--ring", "z8:1,3", "--prop", "prime", "--ideal", "0,4", "--mode", "any"), "--mode"),
        (("check", "--ring", "z8:1,3", "--prop", "divided", "--ideal", "0,4"), "--ideal"),
        (("check", "--ring", "z8:1,3", "--prop", "uv-i-primary", "--ideal", "0,4", "--u", "3",
          "--v", "2", "--aux-ideal", "0", "--replay", "2,2,2"), "--replay"),
        (("zphi", "--prop", "intersection", "--d-list", "3,5,7", "--phi", "2,3"), "--phi"),
    ], ids=["zphi-product", "check-prime", "check-prime-default-mode", "check-divided",
            "check-i-primary-replay", "zphi-intersection"])
    def test_option_the_property_does_not_read_is_usage_error(self, args, unread):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == f"error: --prop {args[args.index('--prop') + 1]} does not read {unread}\n"

    @pytest.mark.parametrize("args,needed", [
        (("check", "--ring", "z8:1,3", "--prop", "uv-i-primary", "--ideal", "0", "--u", "3", "--v", "2"),
         "--aux-ideal"),
        (("zphi", "--prop", "radical", "--d", "12"), "--a"),
        (("zphi", "--prop", "uv-prime", "--window", "4"), "--d, --u, --v"),
    ], ids=["check-i-primary", "zphi-radical", "zphi-window"])
    def test_option_the_property_needs_is_usage_error(self, args, needed):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == f"error: --prop {args[args.index('--prop') + 1]} needs {needed}\n"

    def test_window_and_replay_exclude_each_other(self):
        proc = run_cli(
            "zphi", "--prop", "uv-primary", "--d", "12", "--u", "3", "--v", "2",
            "--window", "4", "--replay", "2,2,3",
        )
        assert proc.returncode == 2
        assert "argument --replay: not allowed with argument --window" in proc.stderr

    def test_mode_is_in_params_only_where_read(self):
        prime = run_cli("check", "--ring", "z8:1,3", "--prop", "prime", "--ideal", "0,2,4,6", "--json")
        assert json.loads(prime.stdout.splitlines()[0])["params"] == {"tested": 64}
        one_abs = run_cli(
            "check", "--ring", "z8:1,3", "--prop", "1-absorbing-primary", "--ideal", "0,4", "--json"
        )
        assert json.loads(one_abs.stdout.splitlines()[0])["params"]["mode"] == "any"

    def test_bad_ring_spec_is_usage_error(self):
        proc = run_cli("validate", "--ring", "z6:1,1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("table,field", [
        ({"n": "2", "add": [[0, 1], [1, 0]], "hmul": [[[0], [0]], [[0], [0]]]}, "n="),
        (5, "not a JSON object"),
        ({"n": 2, "add": 5, "hmul": [[[0], [0]], [[0], [0]]]}, "add table"),
        ({"n": 2, "add": [[0, 1], [1, 0]], "hmul": [[[-1], [0]], [[0], [0]]]}, "hmul[0][0]"),
        ({"n": 2, "add": [[0, 1], [1, 0]], "hmul": [[[0], ["a"]], [[0], [0]]]}, "hmul[0][1]"),
        ({"n": 2, "add": [[0, 1], [1, 0]], "hmul": [[[0], [0]], [[0], [0]]], "name": 5}, "name=5"),
        ({"n": True, "add": [[0]], "hmul": [[[0]]]}, "n=True"),
        ({"n": 2, "add": [[0, True], [1, 0]], "hmul": [[[0], [0]], [[0], [0]]]}, "add[0][1]"),
        ({"n": 2, "add": [[0, 1], [1, 0]], "hmul": [[[0], [0]], [[0], [True]]]}, "hmul[1][1]"),
    ], ids=[
        "n-string", "top-level-int", "add-int", "hmul-negative", "hmul-string", "name-int",
        "n-bool", "add-bool", "hmul-bool",
    ])
    def test_malformed_ring_file_is_usage_error(self, tmp_path, table, field):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(table))
        proc = run_cli("validate", "--ring", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_ideals_dump(self):
        proc = run_cli("ideals", "--ring", "z8:1,3", "--json")
        assert proc.returncode == 0
        rows = [json.loads(line) for line in proc.stdout.splitlines() if line]
        assert [r["ideal"] for r in rows] == [
            [0],
            [0, 4],
            [0, 2, 4, 6],
            [0, 1, 2, 3, 4, 5, 6, 7],
        ]
        assert rows[2]["params"]["prime"] is True
        assert rows[2]["params"]["radical"] == [0, 2, 4, 6]

    def test_zphi_product(self):
        proc = run_cli("zphi", "--prop", "product", "--factors", "2,3", "--json")
        assert proc.returncode == 0
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["params"]["value"] == [12, 18]

    def test_zphi_radical(self):
        proc = run_cli("zphi", "--prop", "radical", "--d", "12", "--a", "6", "--json")
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["params"]["member"] is True
        assert rec["params"]["radical_generator"] == 6

    def test_zphi_intersection(self):
        proc = run_cli("zphi", "--prop", "intersection", "--d-list", "3,5,7", "--json")
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["params"]["generator"] == 105

    def test_zphi_replay_confirms(self):
        proc = run_cli(
            "zphi", "--prop", "uv-primary", "--d", "12",
            "--u", "3", "--v", "2", "--replay", "2,2,3", "--json",
        )
        assert proc.returncode == 1
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["witness"] == {"factors": [2, 2, 3]}

    def test_zphi_window_finds_counterexample(self):
        proc = run_cli(
            "zphi", "--prop", "uv-primary", "--d", "12",
            "--u", "3", "--v", "2", "--window", "4", "--json",
        )
        assert proc.returncode == 1
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["witness"] == {"factors": [2, 2, 3]}

    def test_zphi_window_1000(self):
        proc = run_cli(
            "zphi", "--prop", "uv-primary", "--d", "12",
            "--u", "4", "--v", "2", "--window", "1000", "--json",
        )
        assert proc.returncode == 0
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["status"] == "inconclusive"
        assert rec["params"]["tested"] == 435412941375

    def test_out_file_gets_body(self, tmp_path):
        out = tmp_path / "rows.txt"
        proc = run_cli(
            "ideals", "--ring", "z8:1,3", "--out", str(out)
        )
        assert proc.returncode == 0
        assert "records=" in proc.stdout
        assert out.read_text().count("[holds]") == 4

    def test_small_sweep_deterministic(self):
        args = ("sweep", "--moduli", "2..3", "--phi-sizes", "2", "--json")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        rows = [json.loads(line) for line in a.stdout.splitlines() if line]
        assert all(rec["status"] != "fails" for rec in rows)


class TestSweepOptions:
    """`hyperlab sweep` states no default of its own: each option given
    reaches its RingFamilySpec field, and the others keep the spec's."""

    @staticmethod
    def spec_of(monkeypatch, argv):
        runs = []
        monkeypatch.setattr(cli, "run_theorem_suite", lambda spec, timings: runs.append((spec, timings)) or Report())
        assert classify_cli(["sweep", *argv]) == 0
        (run,) = runs
        return run

    def test_no_options_run_the_default_spec(self, monkeypatch, capsys):
        assert self.spec_of(monkeypatch, []) == (RingFamilySpec(), False)

    @pytest.mark.parametrize("argv,field,value", [
        (("--moduli", "3..5"), "moduli", (3, 4, 5)),
        (("--moduli", "7,4"), "moduli", (7, 4)),
        (("--phi-sizes", "3"), "phi_sizes", (3,)),
        (("--phi-universe", "1,5"), "phi_universe", (1, 5)),
        (("--u-max", "3"), "u_max", 3),
        (("--tuple-budget", "1000"), "tuple_budget", 1000),
        (("--mode", "any"), "mode", SplitMode.ANY),
        (("--no-constructions",), "include_constructions", False),
    ], ids=["moduli-range", "moduli-list", "phi-sizes", "phi-universe", "u-max", "tuple-budget", "mode",
            "no-constructions"])
    def test_each_option_reaches_its_field(self, monkeypatch, capsys, argv, field, value):
        assert self.spec_of(monkeypatch, argv) == (replace(RingFamilySpec(), **{field: value}), False)

    def test_timings_reach_the_suite(self, monkeypatch, capsys):
        assert self.spec_of(monkeypatch, ["--timings"]) == (RingFamilySpec(), True)
