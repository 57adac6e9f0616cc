"""Sweep harness report shape and determinism, oracle self-checks, and the
command line interface driven through subprocesses."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

from hyperlab import verdicts
from hyperlab.core import parse_ring_spec
from hyperlab.harness import (
    Report,
    RingFamilySpec,
    enumerate_family,
    run_golden_examples,
    run_ring,
    run_theorem_suite,
    validate_radical_oracle,
)
from hyperlab.verdicts import SplitMode

TINY = RingFamilySpec(moduli=(2, 3, 4), phi_sizes=(2,))

# sha256 of the suite report on moduli 4-9, |Phi| = 2, constructions on:
# every verdict, witness, tested count and space string of the (u,v) scan
# and the construction contexts feeds it.  (mode, digest, fails rows)
SUITE_DIGESTS = [
    (SplitMode.ALL, "99c3e652087e451d925b75bf29e536ed9cc1ef7775c65bfece1722b820d3447f", 0),
    (SplitMode.ANY, "2aa4a4aef9d3cae5db58fcfcf0266cfa1ec07f4b2330210978df8b4edda47db1", 3),
]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperlab", *args],
        capture_output=True,
        text=True,
        env=env,
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
        timed = run_theorem_suite(
            RingFamilySpec(moduli=(2,), phi_sizes=(2,), timings=True)
        )
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


class TestGolden:
    def test_replay_is_clean(self):
        report = run_golden_examples()
        assert len(report.records) == 19
        assert report.violations == 0
        assert report.skipped == 0
        assert report.errors == 0


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

    def test_check_missing_arity_is_usage_error(self):
        proc = run_cli(
            "check", "--ring", "z8:1,3", "--prop", "uv-primary", "--ideal", "0"
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_bad_ring_spec_is_usage_error(self):
        proc = run_cli("validate", "--ring", "z6:1,1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

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

    def test_out_file_gets_body(self, tmp_path):
        out = tmp_path / "rows.txt"
        proc = run_cli(
            "ideals", "--ring", "z8:1,3", "--out", str(out)
        )
        assert proc.returncode == 0
        assert "records=" in proc.stdout
        assert out.read_text().count("[holds]") == 4

    def test_workers_env_validated(self):
        proc = run_cli(
            "sweep", "--moduli", "2..2", "--phi-sizes", "2",
            env_extra={"HYPERLAB_WORKERS": "0"},
        )
        assert proc.returncode == 2
        assert "HYPERLAB_WORKERS" in proc.stderr

    def test_small_sweep_deterministic(self):
        args = ("sweep", "--moduli", "2..3", "--phi-sizes", "2", "--json")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        rows = [json.loads(line) for line in a.stdout.splitlines() if line]
        assert all(rec["status"] != "fails" for rec in rows)
