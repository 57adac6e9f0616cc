"""Isomorphism invariance of the suite records.

For a unit w of Z_n, x ↦ w⁻¹x is an additive automorphism of Z_n that
carries Z_n/Φ onto Z_n/(wΦ): w⁻¹a ∘' w⁻¹b = {w⁻²ab·wφ} = w⁻¹(a ∘ b).  So the
records of Z_n/(wΦ), with every ideal, denominator set `s` and kernel
mapped back through x ↦ wx, must be the records of Z_n/Φ.  A label-dependent
fault (a shortcut keyed on element indices, an off-by-one in a bit walk)
can break this even where every verdict on the unlabelled structure is
right.  Every ideal of Z_n/Φ is a subgroup dZ_n, which x ↦ wx fixes, so
the check bites mostly where labels move: denominator sets and the
localizations built on them.
"""
import json
from collections import Counter
from math import gcd

from hyperlab.core import FiniteHyperring
from hyperlab.harness import Report, RingFamilySpec, enumerate_family, run_ring
from hyperlab.verdicts import SplitMode

SPEC = RingFamilySpec(moduli=(4, 5, 6, 7, 8, 9), phi_sizes=(2,), mode=SplitMode.ALL)

# Its ideal is named in coset indices of the quotient, which x ↦ wx does
# not carry, so these rows are not invariant as reported.
UNMAPPED = "good-hom-preimage-transfer"


def _records(ring, cache):
    """run_ring's records, once per table: beyond the table they depend
    only on the ring's name, which `_rows` leaves out."""
    key = ring.table_key()
    if key not in cache:
        report = Report()
        run_ring(ring, SPEC, report)
        cache[key] = report.records
    return cache[key]


def _rows(records, n, w):
    """The records as (property, ideal, s, kernel, status, tested on holds
    rows), with element labels mapped through x ↦ wx.  Witnesses, and
    `tested` on other rows, depend on the canonical scan order."""

    def image(members):
        return None if members is None else sorted(w * x % n for x in members)

    return Counter(
        json.dumps([
            r["property"], image(r["ideal"]), image(r["params"].get("s")), image(r["params"].get("kernel")),
            r["status"], r["params"].get("tested") if r["status"] == "holds" else None,
        ])
        for r in records
        if r["property"] != UNMAPPED
    )


def test_records_invariant_under_unit_scaling():
    cache = {}
    pairs = relabelled = 0
    for ring in enumerate_family(SPEC):
        n = ring.n
        phi = [int(x) for x in ring.name.split(":")[1].split(",")]
        expected = _rows(_records(ring, cache), n, 1)
        for w in range(2, n):
            if gcd(w, n) != 1:
                continue
            image = FiniteHyperring.zn_phi(n, [w * x for x in phi])
            assert _rows(_records(image, cache), n, w) == expected, (ring.name, w)
            pairs += 1
            relabelled += image.table_key() != ring.table_key()
    assert (pairs, relabelled) == (420, 382)
