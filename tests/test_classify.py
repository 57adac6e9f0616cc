"""Deciders for prime, primary, divided, and the (u,v)-absorbing family,
including the two split readings and witness replay."""
import hashlib
import json
from collections import Counter
from functools import cache, reduce
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import classify
from hyperlab.classify import (
    check_v1v_characterization,
    is_1_absorbing_primary,
    is_divided,
    is_primary,
    is_prime,
    is_uv_absorbing_i_primary,
    is_uv_absorbing_primary,
    is_uv_absorbing_prime,
    replay_uv_counterexample,
    splits,
)
from hyperlab.core import FiniteHyperring, elems_of, mask_of, parse_ring_spec, subset
from hyperlab.harness import Report, RingFamilySpec, enumerate_family, run_ring
from hyperlab.ideals import (
    enumerate_hyperideals,
    is_c_hyperideal,
    is_strong_c_hyperideal,
    radical_nilpotent,
)
from hyperlab.verdicts import FAILS, HOLDS, ParameterError, SplitMode, UsageError, UVParams, holds

from records import verdict_record

EVENS8 = mask_of({0, 2, 4, 6})
ZERO = mask_of({0})

# on z6:1,5 the zero ideal separates the two split readings: for each of
# these pairs the any-split decider accepts while the all-splits decider
# rejects, with a pinned minimal witness
Z6U_SPLIT_TABLE = {
    (3, 1): {"factors": [3, 2, 2], "v_part": [3], "rest": [2, 2]},
    (3, 2): {"factors": [2, 2, 3], "v_part": [2, 2], "rest": [3]},
    (4, 1): {"factors": [3, 2, 2, 2], "v_part": [3], "rest": [2, 2, 2]},
    (4, 2): {"factors": [2, 2, 3, 3], "v_part": [2, 2], "rest": [3, 3]},
    (4, 3): {"factors": [2, 2, 2, 3], "v_part": [2, 2, 2], "rest": [3]},
    (5, 1): {"factors": [3, 2, 2, 2, 2], "v_part": [3], "rest": [2, 2, 2, 2]},
    (5, 2): {"factors": [3, 3, 2, 2, 2], "v_part": [3, 3], "rest": [2, 2, 2]},
}

# sha256 of the clause rows built in TestCharacterization.test_clauses_pinned_on_family
CLAUSE_DIGEST = "768f6ea6d8659556b273d18d90478229ef0a23ca492de52118a2604e95be1f66"

# sha256 of the verdict rows built in TestDeciderPin.test_pair_and_c_deciders_pinned_on_family
DECIDER_DIGEST = "cda3b02790aebde8cc471c5c91fab24f2123c34dd95203d302b7ee6d39aea06a"


class TestUVParams:
    @pytest.mark.parametrize("u,v", [(2, 2), (1, 1), (3, 0), (2, 3)])
    def test_rejects_bad_arities(self, u, v):
        with pytest.raises(ParameterError):
            UVParams(u, v)

    def test_accepts_valid(self):
        p = UVParams(3, 2)
        assert (p.u, p.v) == (3, 2)


def reference_splits(ms: tuple, v: int) -> list[tuple]:
    """Every (v-part, remainder) of the sorted multiset ms, by choosing how
    many copies of each distinct value go to the v-part."""
    counts = Counter(ms)
    values = sorted(counts)
    out = []
    for ks in product(*(range(counts[x] + 1) for x in values)):
        if sum(ks) == v:
            vpart = tuple(x for x, k in zip(values, ks) for _ in range(k))
            rest = tuple(x for x, k in zip(values, ks) for _ in range(counts[x] - k))
            out.append((vpart, rest))
    return sorted(out)


class TestSplits:
    def test_matches_counter_reference(self):
        for size in range(7):
            for ms in combinations_with_replacement((-2, 1, 3), size):
                for v in range(size + 1):
                    assert list(splits(ms, v)) == reference_splits(ms, v)


class TestPrimePrimary:
    def test_z8_maximal_is_prime(self, z8):
        assert is_prime(z8, EVENS8).holds

    def test_z8_small_ideal_not_prime(self, z8):
        v = is_prime(z8, mask_of({0, 4}))
        assert v.fails
        assert v.witness == {"x": 2, "y": 2}

    def test_z6u_zero_not_prime(self, z6u):
        v = is_prime(z6u, ZERO)
        assert v.fails
        assert v.witness == {"x": 2, "y": 3}

    def test_prime_witness_replays(self, z8):
        v = is_prime(z8, mask_of({0, 4}))
        x, y = v.witness["x"], v.witness["y"]
        prod = z8.hyperproduct([x, y])
        target = mask_of({0, 4})
        # whole product lands in the ideal yet neither factor lies in it
        assert subset(prod, target)
        assert not (mask_of({x}) & target) and not (mask_of({y}) & target)

    def test_z8_primary(self, z8):
        assert is_primary(z8, mask_of({0, 4}), EVENS8).holds

    def test_primary_needs_radical_escape(self, z6u):
        v = is_primary(z6u, ZERO, ZERO)
        assert v.fails


class TestAbsorbingDeciders:
    def test_z8_zero_prime_variant_fails(self, z8):
        v = is_uv_absorbing_prime(z8, ZERO, UVParams(3, 2))
        assert v.fails
        assert v.witness == {"factors": [2, 2, 2]}

    def test_z8_zero_primary_variant_holds(self, z8):
        assert is_uv_absorbing_primary(z8, ZERO, EVENS8, UVParams(3, 2)).holds

    def test_z8_one_absorbing(self, z8):
        v = is_1_absorbing_primary(z8, ZERO, EVENS8)
        assert v.holds
        assert v.tested == 20

    def test_one_absorbing_matches_3_2(self, z8, z6a, z6u, z7):
        for ring in (z8, z6a, z6u, z7):
            for ideal in enumerate_hyperideals(ring).ideals:
                if ideal == ring.full_mask:
                    continue
                rad = radical_nilpotent(ring, ideal)
                a = is_1_absorbing_primary(ring, ideal, rad)
                b = is_uv_absorbing_primary(ring, ideal, rad, UVParams(3, 2))
                assert a.status == b.status, elems_of(ideal)

    def test_split_mode_table(self, z6u):
        for (u, v), witness in Z6U_SPLIT_TABLE.items():
            any_v = is_uv_absorbing_primary(
                z6u, ZERO, ZERO, UVParams(u, v), mode=SplitMode.ANY
            )
            all_v = is_uv_absorbing_primary(
                z6u, ZERO, ZERO, UVParams(u, v), mode=SplitMode.ALL
            )
            assert any_v.holds, (u, v)
            assert all_v.fails, (u, v)
            assert all_v.witness == witness, (u, v)

    def test_split_table_witnesses_replay(self, z6u):
        for (u, v), witness in Z6U_SPLIT_TABLE.items():
            assert replay_uv_counterexample(
                z6u, ZERO, ZERO, witness["factors"], v, mode=SplitMode.ALL
            )

    def test_replay_respects_mode(self, z6u):
        factors = [2, 2, 3]
        assert replay_uv_counterexample(z6u, ZERO, ZERO, factors, 2, mode=SplitMode.ALL)
        assert not replay_uv_counterexample(
            z6u, ZERO, ZERO, factors, 2, mode=SplitMode.ANY
        )

    def test_prime_variant_split_modes(self, z6u):
        v = is_uv_absorbing_prime(z6u, ZERO, UVParams(3, 2), mode=SplitMode.ALL)
        assert v.fails
        assert v.witness == {"factors": [2, 2, 3], "v_part": [2, 2], "rest": [3]}


def one_absorbing_reference(ring, product, pmask, radmask, mode):
    """(status, witness, tested, space) of the 1-absorbing primary property
    straight from the definition: `product` folds a tuple of elements, the
    nonunit triples run in canonical order, and each distinct member z of a
    triple is tried in ascending order against the product of the other
    two."""
    space = f"nonunit triples mode={mode.value}"
    tested = 0
    for ms in combinations_with_replacement(elems_of(ring.unit_report().nonunits), 3):
        if not subset(product(ms), pmask):
            continue
        tested += 1
        failing = []
        for z in sorted(set(ms)):
            pair = list(ms)
            pair.remove(z)
            if not (subset(product(tuple(pair)), pmask) or radmask >> z & 1):
                failing.append((pair, z))
        if mode is SplitMode.ANY and len(failing) == len(set(ms)):
            return FAILS, {"factors": list(ms)}, tested, space
        if mode is SplitMode.ALL and failing:
            pair, z = failing[0]
            return FAILS, {"factors": pair + [z], "v_part": pair, "rest": [z]}, tested, space
    return HOLDS, None, tested, space


class TestOneAbsorbingTable:
    def test_matches_literal_reference_on_family(self):
        # every proper ideal of moduli 2-10, both modes, rings without units
        # (every element a nonunit) included
        rings = enumerate_family(RingFamilySpec(moduli=tuple(range(2, 11))))
        assert sum(not ring.unit_report().units for ring in rings) == 60
        compared = Counter()
        for ring in rings:
            product = cache(ring.hyperproduct)
            for b in enumerate_hyperideals(ring).proper():
                rad = radical_nilpotent(ring, b)
                for mode in SplitMode:
                    v = is_1_absorbing_primary(ring, b, rad, mode)
                    expected = one_absorbing_reference(ring, product, b, rad, mode)
                    assert (v.status, v.witness, v.tested, v.checked_space) == expected, (ring.name, elems_of(b))
                    compared[mode, v.status] += 1
        assert compared == {
            (SplitMode.ANY, HOLDS): 1193,
            (SplitMode.ALL, HOLDS): 1019,
            (SplitMode.ALL, FAILS): 174,
        }

    def test_shares_no_code_with_the_uv_kernel(self, monkeypatch):
        def verdicts():
            # fresh rings, so each call builds its own triple tables
            return [
                verdict_record(is_1_absorbing_primary(ring, b, radical_nilpotent(ring, b), mode))
                for ring in map(parse_ring_spec, ("z8:1,3", "z6:1,5", "z12:4,9", "z10:2,5"))
                for b in enumerate_hyperideals(ring).proper()
                for mode in SplitMode
            ]

        def refuse(*args, **kwargs):
            raise AssertionError("the 1-absorbing decider reached the (u,v) kernel")

        expected = verdicts()
        for name in ("multiset_products", "uv_scan", "_Memo", "splits"):
            monkeypatch.setattr(classify, name, refuse)
        assert verdicts() == expected
        with pytest.raises(AssertionError, match="kernel"):
            is_uv_absorbing_primary(parse_ring_spec("z8:1,3"), ZERO, EVENS8, UVParams(3, 2))


class TestHierarchy:
    def all_proper(self, rings):
        for ring in rings:
            lat = enumerate_hyperideals(ring)
            for ideal, prime in zip(lat.ideals, lat.prime):
                if ideal != ring.full_mask:
                    yield ring, ideal, prime

    def test_prime_implies_uv_prime(self, z8, z6a, z6u, z7):
        pairs = [UVParams(u, v) for u in range(2, 5) for v in range(1, u)]
        for ring, ideal, prime in self.all_proper([z8, z6a, z6u, z7]):
            if not prime:
                continue
            for uv in pairs:
                assert is_uv_absorbing_prime(ring, ideal, uv).holds

    def test_uv_prime_implies_uv_primary(self, z8, z6a, z6u, z7):
        pairs = [UVParams(u, v) for u in range(2, 5) for v in range(1, u)]
        for ring, ideal, _ in self.all_proper([z8, z6a, z6u, z7]):
            rad = radical_nilpotent(ring, ideal)
            for uv in pairs:
                if is_uv_absorbing_prime(ring, ideal, uv).holds:
                    assert is_uv_absorbing_primary(ring, ideal, rad, uv).holds

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_all_mode_implies_any_mode(self, z8, z6a, z6u, data):
        ring = data.draw(st.sampled_from([z8, z6a, z6u]))
        lat = enumerate_hyperideals(ring)
        ideal = data.draw(st.sampled_from([i for i in lat.ideals if i != ring.full_mask]))
        u = data.draw(st.integers(2, 5))
        v = data.draw(st.integers(1, u - 1))
        rad = radical_nilpotent(ring, ideal)
        strict = is_uv_absorbing_primary(
            ring, ideal, rad, UVParams(u, v), mode=SplitMode.ALL
        )
        if strict.holds:
            assert is_uv_absorbing_primary(
                ring, ideal, rad, UVParams(u, v), mode=SplitMode.ANY
            ).holds


class TestAuxIdealVariant:
    def test_frozen_verdicts(self, z8):
        target = mask_of({0, 4})
        v = is_uv_absorbing_i_primary(z8, target, EVENS8, EVENS8, UVParams(3, 2))
        assert v.holds
        assert v.extra["ideal_product"] == [0]
        v = is_uv_absorbing_i_primary(z8, target, ZERO, EVENS8, UVParams(3, 2))
        assert v.holds
        assert v.extra["ideal_product"] == [0]


def characterization_reference(ring, pmask, radmask, v, mode):
    """(status, witness, tested, space) of clauses (ii)-(iv) of the (v+1, v)
    characterization straight from the definitions, each product folded
    afresh by `ring.hyperproduct` or `ring.set_mul` for every case.
    (ii): a v-multiset of nonunits whose product escapes P is a case; it
    fails when the colon (P : product) leaves rad(P).  (iii): a
    (v-multiset, hyperideal Q) with product ∘ Q ⊆ P is a case; it fails
    when the product escapes P and Q leaves rad(P).  (iv): a (v+1)-multiset
    of proper hyperideals whose product lies in P is a case; a split
    (Q, rest), in `splits` order, fails when rest's product escapes P and Q
    leaves rad(P), and the case fails when every split does (ANY) or at its
    first failing split (ALL)."""
    def walk(space, cases):
        tested = 0
        for witness in cases:
            tested += 1
            if witness is not None:
                return FAILS, witness, tested, space
        return HOLDS, None, tested, space

    lattice = enumerate_hyperideals(ring)
    proper = lattice.proper()
    multisets = list(combinations_with_replacement(elems_of(ring.unit_report().nonunits), v))

    def clause_ii():
        for ms in multisets:
            pm = ring.hyperproduct(ms)
            if subset(pm, pmask):
                continue
            col = mask_of({a for a in range(ring.n) if subset(ring.set_mul(1 << a, pm), pmask)})
            yield None if subset(col, radmask) else {"factors": list(ms), "colon": elems_of(col)}

    def clause_iii():
        for ms in multisets:
            pm = ring.hyperproduct(ms)
            for q in lattice.ideals:
                if subset(ring.set_mul(pm, q), pmask):
                    bad = not subset(pm, pmask) and not subset(q, radmask)
                    yield {"factors": list(ms), "ideal": elems_of(q)} if bad else None

    def product(idxs):
        return reduce(ring.set_mul, [proper[i] for i in idxs])

    def clause_iv():
        for idxs in combinations_with_replacement(range(len(proper)), v + 1):
            if not subset(product(idxs), pmask):
                continue
            failing = [
                (q, rest)
                for (q,), rest in splits(idxs, 1)
                if not subset(product(rest), pmask) and not subset(proper[q], radmask)
            ]
            if mode is SplitMode.ANY:
                every = len(failing) == len(splits(idxs, 1))
                yield {"ideals": [elems_of(proper[i]) for i in idxs]} if every else None
            elif failing:
                q, rest = failing[0]
                yield {"ideals": [elems_of(proper[i]) for i in rest], "last": elems_of(proper[q])}
            else:
                yield None

    return (
        walk("v-multisets with product escaping P", clause_ii()),
        walk("v-multisets times hyperideals", clause_iii()),
        walk("(v+1)-multisets of proper hyperideals", clause_iv()),
    )


class TestCharacterization:
    def test_z8_report(self, z8):
        rep = check_v1v_characterization(z8, mask_of({0, 4}), EVENS8, v=1)
        clauses = [rep.i, rep.ii, rep.iii, rep.iv]
        assert [c.status for c in clauses] == ["holds"] * 4
        assert [c.tested for c in clauses] == [10, 2, 14, 6]
        assert rep.v == 1

    def test_clauses_pinned_on_family(self):
        # clauses (ii)-(iv) on every proper ideal of moduli 4-9, |Phi| = 2,
        # v = 1..3, both modes: status, witness, tested and space of each
        rows = []
        rings = enumerate_family(RingFamilySpec(moduli=(4, 5, 6, 7, 8, 9), phi_sizes=(2,)))
        for mode in (SplitMode.ALL, SplitMode.ANY):
            for ring in rings:
                for b in enumerate_hyperideals(ring).proper():
                    rad = radical_nilpotent(ring, b)
                    for v in (1, 2, 3):
                        rep = check_v1v_characterization(ring, b, rad, v, mode=mode)
                        for c in (rep.ii, rep.iii, rep.iv):
                            rows.append(json.dumps(
                                [ring.name, elems_of(b), v, mode.value, c.status, c.witness, c.tested, c.checked_space]
                            ))
        assert len(rows) == 4392
        assert sum('"fails"' in r for r in rows) == 196
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == CLAUSE_DIGEST

    def test_clauses_match_literal_reference_on_family(self):
        # every proper ideal of moduli 2-10, v = 1..3, both modes, rings
        # without units (every element a nonunit) included: status,
        # witness, tested and space of clauses (ii)-(iv)
        rings = enumerate_family(RingFamilySpec(moduli=tuple(range(2, 11))))
        assert sum(not ring.unit_report().units for ring in rings) == 60
        compared = Counter()
        for ring in rings:
            for b in enumerate_hyperideals(ring).proper():
                rad = radical_nilpotent(ring, b)
                for v in (1, 2, 3):
                    for mode in SplitMode:
                        rep = check_v1v_characterization(ring, b, rad, v, mode=mode, clause_i=holds())
                        got = tuple((c.status, c.witness, c.tested, c.checked_space) for c in (rep.ii, rep.iii, rep.iv))
                        assert got == characterization_reference(ring, b, rad, v, mode), (ring.name, elems_of(b), v)
                        compared.update(zip(("ii", "iii", "iv"), (status for status, *_ in got)))
        assert compared == {
            ("ii", HOLDS): 6062,
            ("ii", FAILS): 1096,
            ("iii", HOLDS): 6062,
            ("iii", FAILS): 1096,
            ("iv", HOLDS): 6436,
            ("iv", FAILS): 722,
        }

    def test_noncommutative_table_refused(self):
        # a ∘ b ⊆ P exactly when b ∘ a ⊆ P is what lets one colon serve
        # clauses (ii) and (iii); a table where 0 ∘ 1 = {0} but 1 ∘ 0 = {1}
        # has no such identity, and is refused
        ring = FiniteHyperring(2, [[0, 1], [1, 0]], [[0b01, 0b01], [0b10, 0b11]], name="noncommutative")
        assert "hmul-commutativity" in {f.axiom for f in ring.validate().failures}
        with pytest.raises(UsageError, match="commutative"):
            check_v1v_characterization(ring, ZERO, ZERO, 1)

    def test_nonassociative_table_refused(self):
        # commutative, but (0 ∘ 0) ∘ 1 = {0, 1, 2} and 0 ∘ (0 ∘ 1) = {1, 2}:
        # clauses (ii) and (iii) fold a product in any order, so the table
        # is refused; found by a seeded search over symmetric tables on Z_2
        # and Z_3 addition for one whose only failing axiom is associativity
        ring = FiniteHyperring(
            3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[7, 6, 6], [6, 5, 3], [6, 3, 5]], name="nonassociative"
        )
        assert {f.axiom for f in ring.validate().failures} == {"hmul-associativity"}
        with pytest.raises(UsageError, match="commutative"):
            check_v1v_characterization(ring, ZERO, ZERO, 1)

    def test_reads_counts_not_multiset_products(self):
        """Clauses (ii) and (iii) read product counts, so a fresh ring
        keeps no multiset product memo after the characterization; its
        counts are one memo over the reversed nonunits, extended as v
        grows."""
        for spec in ("z8:1,3", "z12:4,9", "z9:0,1"):
            ring = parse_ring_spec(spec)
            nonunits = tuple(elems_of(ring.unit_report().nonunits))
            for b in enumerate_hyperideals(ring).proper():
                for v in (1, 2, 3):
                    check_v1v_characterization(ring, b, radical_nilpotent(ring, b), v, clause_i=holds())
            assert "msprod" not in ring._cache, spec
            counts = [k for k in ring._cache if isinstance(k, tuple) and k[0] == "mscounts"]
            assert counts == [("mscounts", nonunits[::-1])], spec
            assert [len(t) for t in ring._cache[counts[0]]] == [4] * (len(nonunits) + 1)

    def test_ideal_products_are_one_memo_per_ring(self):
        """Clause (iv) keeps its products of proper hyperideals in one memo
        per ring, shared by every P and v: after run_ring, a ring whose
        C-hyperideals went through the four-way check holds it under
        "iprod" alone, and each entry is the left fold of its ideals."""
        spec = RingFamilySpec(moduli=tuple(range(2, 9)))
        checked = 0
        for ring in enumerate_family(spec):
            if not ring.validate().ok:
                continue
            report = Report()
            run_ring(ring, spec, report)
            keys = [k for k in ring._cache if k == "iprod" or isinstance(k, tuple) and k[0] == "iprod"]
            ran = any(
                r["property"] == "top-arity-four-way-agreement" and r["space"] == "four-way characterization"
                for r in report.records
            )
            assert keys == (["iprod"] if ran else []), ring.name
            if ran:
                proper = enumerate_hyperideals(ring).proper()
                for idxs, m in ring._cache["iprod"].items():
                    assert m == reduce(ring.set_mul, [proper[i] for i in idxs]), (ring.name, idxs)
                checked += 1
        assert checked == 85


def literal_counts(ring, elems, k, canonical=False):
    """Counter of the products of the k-multisets of `elems`, each folded
    by `ring.hyperproduct` in the order of `elems`, or with `canonical` in
    ascending order; None counts the one empty multiset."""
    if k == 0:
        return Counter({None: 1})
    return Counter(
        ring.hyperproduct(sorted(ms) if canonical else ms) for ms in combinations_with_replacement(elems, k)
    )


class TestMultisetCounts:
    K_MAX = 4

    def assert_tables(self, ring, elems, canonical=False):
        tables = classify.multiset_counts(ring, elems, self.K_MAX)
        assert len(tables) == len(elems) + 1
        for i, table in enumerate(tables):
            assert len(table) == self.K_MAX + 1
            for k, level in enumerate(table):
                assert level == literal_counts(ring, elems[:i], k, canonical), (ring.name, elems[:i], k)

    def test_forward_order_on_family(self):
        for ring in enumerate_family(RingFamilySpec(moduli=(4, 5, 6, 7, 8, 9), phi_sizes=(2,))):
            self.assert_tables(ring, elems_of(ring.unit_report().nonunits))
            self.assert_tables(ring, list(range(ring.n)))

    def test_forward_order_on_noncommutative_table(self):
        # the fold follows `elems`, so the counts hold on any table
        ring = FiniteHyperring(2, [[0, 1], [1, 0]], [[0b01, 0b01], [0b10, 0b11]], name="noncommutative")
        assert "hmul-commutativity" in {f.axiom for f in ring.validate().failures}
        self.assert_tables(ring, [0, 1])
        self.assert_tables(ring, [1, 0])

    def test_reversed_order_counts_canonical_products(self):
        # what the characterization relies on: on a commutative, associative
        # table the counts over reversed elements are those of the products
        # folded in ascending order
        for ring in enumerate_family(RingFamilySpec(moduli=(4, 5, 6, 7, 8, 9), phi_sizes=(2,))):
            assert ring.validate().ok
            self.assert_tables(ring, elems_of(ring.unit_report().nonunits)[::-1], canonical=True)

    def test_extends_one_memo(self):
        ring = parse_ring_spec("z12:4,9")
        first = classify.multiset_counts(ring, range(12), 2)
        assert classify.multiset_counts(ring, list(range(12)), 4) is first
        assert [len(t) for t in first] == [5] * 13
        assert sum(first[-1][4].values()) == 1365


class TestDivided:
    def test_z8_divided(self, z8):
        v = is_divided(z8)
        assert v.holds
        assert v.tested == 4

    def test_z6a_not_divided(self, z6a):
        v = is_divided(z6a)
        assert v.fails
        assert v.witness == {"prime": [0, 3], "a": 2, "principal": [0, 2, 4]}


class TestDeciderPin:
    def test_pair_and_c_deciders_pinned_on_family(self):
        # is_divided once per validated ring of moduli 2-10, and per proper
        # ideal is_primary, is_c_hyperideal, is_strong_c_hyperideal,
        # is_prime and is_1_absorbing_primary in both modes: the status,
        # witness, space and tested of every verdict
        rows = []
        for ring in enumerate_family(RingFamilySpec(moduli=tuple(range(2, 11)))):
            if not ring.validate().ok:
                continue
            rows.append([ring.name, None, "divided", verdict_record(is_divided(ring))])
            for b in enumerate_hyperideals(ring).proper():
                rad = radical_nilpotent(ring, b)
                verdicts = {
                    "primary": is_primary(ring, b, rad),
                    "c": is_c_hyperideal(ring, b),
                    "strong-c": is_strong_c_hyperideal(ring, b),
                    "prime": is_prime(ring, b),
                    "1-absorbing-any": is_1_absorbing_primary(ring, b, rad, SplitMode.ANY),
                    "1-absorbing-all": is_1_absorbing_primary(ring, b, rad, SplitMode.ALL),
                }
                rows += [[ring.name, elems_of(b), name, verdict_record(v)] for name, v in verdicts.items()]
        kinds = Counter((name, rec["status"]) for _, _, name, rec in rows)
        assert len(rows) == 7653
        assert kinds == {
            ("divided", "holds"): 295,
            ("divided", "fails"): 200,
            ("primary", "holds"): 993,
            ("primary", "fails"): 200,
            ("c", "holds"): 333,
            ("c", "fails"): 860,
            ("strong-c", "holds"): 94,
            ("strong-c", "fails"): 1099,
            ("prime", "holds"): 654,
            ("prime", "fails"): 539,
            ("1-absorbing-any", "holds"): 1193,
            ("1-absorbing-all", "holds"): 1019,
            ("1-absorbing-all", "fails"): 174,
        }
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == DECIDER_DIGEST
