"""Carrier-level behavior: table construction, axiom validation, masks,
iterated hyperproducts, and unit detection."""
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.core import (
    FiniteHyperring,
    TableFormatError,
    elems_of,
    iter_bits,
    load_table_file,
    mask_of,
    parse_ring_spec,
    subset,
)
from hyperlab.verdicts import UsageError


def ordinary_ring(n, name="ord"):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    hmul = [[[(i * j) % n] for j in range(n)] for i in range(n)]
    return FiniteHyperring.from_element_table(n, add, hmul, name=f"{name}-z{n}")


class TestMasks:
    def test_mask_roundtrip(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert elems_of(0b100101) == [0, 2, 5]
        assert list(iter_bits(0b1010)) == [1, 3]
        assert elems_of(0) == []

    def test_subset(self):
        assert subset(0b0101, 0b1101)
        assert not subset(0b0101, 0b1001)
        assert subset(0, 0b1)


class TestParsing:
    def test_spec_string(self, z8):
        assert z8.n == 8
        assert z8.name == "z8:1,3"

    @pytest.mark.parametrize(
        "bad",
        ["z6:", "z6:1,1", "z6:1,7", "z0:1", "z6:a,b"],
    )
    def test_bad_spec_strings(self, bad):
        with pytest.raises(UsageError):
            parse_ring_spec(bad)

    def test_table_file_roundtrip(self, tmp_path):
        n = 3
        data = {
            "n": n,
            "add": [[(i + j) % n for j in range(n)] for i in range(n)],
            "hmul": [[[(i * j) % n] for j in range(n)] for i in range(n)],
            "name": "ord-z3",
        }
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(data))
        ring = load_table_file(str(path))
        assert ring.n == 3
        assert ring.name == "ord-z3"
        assert ring.validate().ok

    def test_table_file_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "add": [[0, 1], [1, 0]]}))
        with pytest.raises(TableFormatError, match="missing key"):
            load_table_file(str(path))

    def test_table_file_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"n": 2, "add": [[0]], "hmul": [[[0], [0]], [[0], [0]]]})
        )
        with pytest.raises(TableFormatError, match="n\\*n"):
            load_table_file(str(path))

    def test_table_file_entry_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "add": [[0, 1], [1, 0]],
                    "hmul": [[[5], [0]], [[0], [0]]],
                }
            )
        )
        with pytest.raises(TableFormatError, match="out of range"):
            load_table_file(str(path))

    def test_table_file_name_not_string(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"n": 2, "add": [[0, 1], [1, 0]], "hmul": [[[0], [0]], [[0], [0]]], "name": 5})
        )
        with pytest.raises(TableFormatError, match="name=5 is not a string"):
            load_table_file(str(path))

    def test_bool_product_mask_is_rejected(self):
        # a mask passed to the constructor directly, not read from a file
        with pytest.raises(TableFormatError, match=r"hmul\[0\]\[0\]"):
            FiniteHyperring(1, [[0]], [[True]])

    def test_table_file_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(TableFormatError, match="not valid JSON"):
            load_table_file(str(path))

    def test_missing_file_is_usage_error(self):
        with pytest.raises(UsageError):
            load_table_file("/nonexistent/ring.json")


class TestValidation:
    def test_fixture_rings_are_hyperrings(self, z8, z6a, z6u, z7):
        for ring in (z8, z6a, z6u, z7):
            report = ring.validate()
            assert report.ok, report.failures

    def test_weak_but_not_strong_distributivity(self, z8):
        assert z8.validate().strongly_distributive is False

    def test_ordinary_ring_is_strongly_distributive(self):
        report = ordinary_ring(6).validate()
        assert report.ok
        assert report.strongly_distributive is True

    def test_validation_failure_carries_witness(self):
        # break associativity of + by mangling one entry
        ring = ordinary_ring(3)
        add = [list(row) for row in ring.add]
        add[1][2] = 1
        broken = FiniteHyperring(3, add, ring.hmul, name="broken")
        report = broken.validate()
        assert not report.ok
        assert report.failures
        assert all(f.axiom and isinstance(f.witness, tuple) for f in report.failures)

    def test_random_tables_pinned(self):
        # seeded tables on Z_2..Z_5: Z_n/Phi rings, the same with one product
        # cell changed on both sides or on one (not commutative), random
        # products (symmetric or not), and additive tables that are not
        # groups; every report (ok, the strongly flag, each failure's axiom
        # and witness) is pinned
        rng = random.Random(11)
        reports = []
        for _ in range(4000):
            n = rng.randrange(2, 6)
            add = [[(a + b) % n for b in range(n)] for a in range(n)]
            phi = rng.sample(range(n), rng.randrange(2, n + 1))
            hm = [list(row) for row in FiniteHyperring.zn_phi(n, phi).hmul]
            kind = rng.randrange(7)
            a, b = rng.randrange(n), rng.randrange(n)
            if kind == 1:
                hm[a][b] = hm[b][a] = rng.randrange(1, 1 << n)
            elif kind == 2:
                hm[a][b] = rng.randrange(1, 1 << n)
            elif kind == 3:
                for x in range(n):
                    for y in range(x, n):
                        hm[x][y] = hm[y][x] = rng.randrange(1, 1 << n)
            elif kind == 4:
                hm = [[rng.randrange(1, 1 << n) for _ in range(n)] for _ in range(n)]
            elif kind == 5:
                add[a][b] = rng.randrange(n)
            elif kind == 6:
                add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            report = FiniteHyperring(n, add, hm).validate()
            reports.append([
                report.ok,
                report.strongly_distributive,
                [[f.axiom, list(f.witness)] for f in report.failures],
            ])
        counts = Counter(f[0] for r in reports for f in r[2])
        counts.update("strongly" if r[1] else "weakly" for r in reports if r[0])
        assert counts == {
            "weakly": 977,
            "strongly": 87,
            "additive-identity": 553,
            "additive-inverse": 115,
            "additive-commutativity": 747,
            "additive-associativity": 840,
            "hmul-commutativity": 835,
            "hmul-associativity": 1686,
            "sign-rule": 1650,
            "weak-distributivity": 1881,
        }
        digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
        assert digest == "137dd61f2a63a90138af26c49a576d7ebed5d93dd52ae47e95c373187bc0198e"


class TestTableKey:
    def test_computed_once_per_ring(self, z8):
        ring = FiniteHyperring(z8.n, z8.add, z8.hmul)
        assert "table_key" not in ring._cache
        key = ring.table_key()
        assert key == z8.table_key()
        assert ring._cache["table_key"] is key
        assert ring.table_key() is key

    def test_differs_with_the_table(self, z8):
        other = FiniteHyperring.zn_phi(8, [1, 5])
        assert other.table_key() != z8.table_key()


class TestHyperproduct:
    def test_frozen_products(self, z8):
        assert z8.hyperproduct([2, 2]) == mask_of({4})
        assert z8.hyperproduct([2, 2, 2]) == mask_of({0})

    def test_single_factor(self, z8):
        assert z8.hyperproduct([5]) == mask_of({5})

    def test_pair_matches_table(self, z8):
        for x in z8.elements():
            for y in z8.elements():
                assert z8.hyperproduct([x, y]) == z8.hmul[x][y]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_permutation_invariance(self, z8, z6u, data):
        ring = data.draw(st.sampled_from([z8, z6u]))
        xs = data.draw(st.lists(st.integers(0, ring.n - 1), min_size=2, max_size=5))
        perm = data.draw(st.permutations(xs))
        assert ring.hyperproduct(xs) == ring.hyperproduct(list(perm))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_set_mul_commutes(self, z8, z6a, data):
        ring = data.draw(st.sampled_from([z8, z6a]))
        m1 = data.draw(st.integers(1, (1 << ring.n) - 1))
        m2 = data.draw(st.integers(1, (1 << ring.n) - 1))
        assert ring.set_mul(m1, m2) == ring.set_mul(m2, m1)


class TestUnits:
    def test_z8_units(self, z8):
        report = z8.unit_report()
        assert elems_of(report.identities) == [1, 3]
        assert elems_of(report.units) == [1, 3, 5, 7]
        assert elems_of(report.nonunits) == [0, 2, 4, 6]
        assert z8.has_identity

    def test_z7_units(self, z7):
        report = z7.unit_report()
        assert elems_of(report.identities) == [1, 4]
        assert elems_of(report.units) == [1, 2, 3, 4, 5, 6]

    def test_identity_free_ring(self, z6a):
        report = z6a.unit_report()
        assert report.identities == 0
        assert report.units == 0
        assert not z6a.has_identity

    def test_z6u_units(self, z6u):
        report = z6u.unit_report()
        assert elems_of(report.identities) == [1, 5]
        assert elems_of(report.units) == [1, 5]

    def test_units_partition_carrier(self, small_family):
        for ring in small_family:
            report = ring.unit_report()
            assert report.units & report.nonunits == 0
            assert report.units | report.nonunits == (1 << ring.n) - 1
            assert subset(report.identities, report.units)
