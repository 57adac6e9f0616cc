"""Derived structures: quotients with their canonical maps, the M_2
carrier, multiplicatively closed sets, and localization."""
import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from hyperlab.construct import (
    GoodHom,
    canonical_mcs_list,
    check_good_hom,
    gamma_mask,
    is_mcs,
    localize,
    matrix_hyperring,
    mcs_closure,
    nonunit_preservation_witness,
    quotient,
    require_good_hom,
    require_valid,
)
from hyperlab.core import FiniteHyperring, elems_of, mask_of
from hyperlab.harness import RingFamilySpec, enumerate_family
from hyperlab.verdicts import ConstructionError, ResourceError, UsageError

EVENS8 = mask_of({0, 2, 4, 6})


def ordinary_ring(n, name="ord"):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    hmul = [[[(i * j) % n] for j in range(n)] for i in range(n)]
    return FiniteHyperring.from_element_table(n, add, hmul, name=f"{name}-z{n}")


def zn_table_ring(n, hmul_masks):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteHyperring(n, add, hmul_masks, name=f"table-z{n}")


def localize_outcome(ring, smask):
    """Everything localize decides: the class map and both tables when it
    builds, the message and witness when it refuses."""
    try:
        loc = localize(ring, smask)
    except ConstructionError as e:
        return ["refused", str(e), e.witness]
    return ["built", sorted(loc.class_of.items()), loc.ring.add, loc.ring.hmul]


def reference_relation(ring, smask):
    """The localization relation straight from its definition: (x, r) ~
    (y, s) iff t∘r∘y and t∘s∘x are the same set for some t in S."""
    s_elems = elems_of(smask)
    value = {
        (t, r, y): ring.hyperproduct([t, r, y]) for t in s_elems for r in s_elems for y in range(ring.n)
    }

    def related(p, q):
        (x, r), (y, s) = p, q
        return any(value[t, r, y] == value[t, s, x] for t in s_elems)

    return related


def random_identity_tables(count=3000, seed=7):
    """Random symmetric product tables on Z_3..Z_5 with 1 forced to be an
    identity."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([3, 4, 5])
        hm = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                hm[a][b] = hm[b][a] = rng.randrange(1, 1 << n)
        for a in range(n):
            hm[1][a] |= 1 << a
            hm[a][1] = hm[1][a]
        yield zn_table_ring(n, hm)


def null_product_ring(n=2):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    hmul = [[[0] for _ in range(n)] for _ in range(n)]
    return FiniteHyperring.from_element_table(n, add, hmul, name=f"null-z{n}")


class TestQuotient:
    def test_z8_by_04(self, z8):
        quot, hom = quotient(z8, mask_of({0, 4}))
        assert quot.n == 4
        assert quot.validate().ok
        assert hom.mapping == (0, 1, 2, 3, 0, 1, 2, 3)
        assert check_good_hom(hom) == []
        assert nonunit_preservation_witness(hom) is None

    def test_quotient_by_zero_preserves_table(self, z8):
        quot, _ = quotient(z8, mask_of({0}))
        assert quot.n == z8.n
        assert quot.table_key() == z8.table_key()
        assert quot.validate() == z8.validate()

    def test_quotient_by_zero_of_invalid_table(self):
        # {0} is a hyperideal of this table, but the table fails the axioms:
        # the quotient by {0} repeats the table and refuses with its failures
        ring = zn_table_ring(3, [[1, 1, 1], [1, 4, 5], [1, 5, 7]])
        with pytest.raises(ConstructionError) as exc:
            quotient(ring, mask_of({0}))
        assert str(exc.value) == "quotient is not a hyperring"
        assert exc.value.witness == [
            "hmul-associativity violated at (1, 1, 2)",
            "sign-rule violated at (1, 1)",
            "weak-distributivity violated at (1, 1, 1)",
        ]

    def test_ill_defined_coset_product_refused(self):
        # {0, 2} absorbs every product, but 1∘3 = {0} lies in the coset of
        # 0 while 1∘1 = {1} does not: the coset product of [1] and [1]
        # depends on representatives.  The quotient table itself validates,
        # so the projection's multiplicative law is what refuses it
        hmul = [[1] * 4 for _ in range(4)]
        hmul[1][1] = hmul[3][3] = mask_of({1})
        ring = zn_table_ring(4, hmul)
        with pytest.raises(ConstructionError) as exc:
            quotient(ring, mask_of({0, 2}))
        assert str(exc.value) == "quotient projection is not a good homomorphism"
        assert exc.value.witness == [{"law": "multiplicative", "x": 1, "y": 3}]

    def test_full_carrier_rejected(self, z8):
        with pytest.raises(UsageError, match="full carrier"):
            quotient(z8, z8.full_mask)

    def test_non_ideal_rejected(self, z8):
        with pytest.raises(UsageError, match="hyperideal"):
            quotient(z8, mask_of({0, 2}))

    def test_hom_laws_checked(self, z8):
        # a deliberately wrong map must produce law violations
        bad = GoodHom(z8, z8, tuple((i + 1) % 8 for i in range(8)))
        assert check_good_hom(bad) != []

    def test_additive_law_checked(self):
        # every product is {0}, so any map fixing 0 keeps the multiplicative
        # law; swapping 1 and 2 breaks only the additive one
        ring = null_product_ring(4)
        assert check_good_hom(GoodHom(ring, ring, (0, 2, 1, 3))) == [
            {"law": "additive", "x": x, "y": y} for x, y in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
        ]


class TestRefusalHelpers:
    """The validation and map checks every construction refuses through."""

    def test_table_equal_to_the_base_takes_its_report(self, z8):
        validated = []

        class Watched(FiniteHyperring):
            def validate(self):
                validated.append(self.name)
                return super().validate()

        base = Watched(z8.n, z8.add, z8.hmul, name="base")
        require_valid(Watched(z8.n, z8.add, z8.hmul, name="derived"), base, "not a hyperring")
        assert validated == ["base"]

    def test_other_table_of_the_base_size_is_validated(self):
        # the base validates; the derived table, of the same size, does not
        derived = zn_table_ring(3, [[1, 1, 1], [1, 4, 5], [1, 5, 7]])
        with pytest.raises(ConstructionError) as exc:
            require_valid(derived, ordinary_ring(3), "derived ring is not a hyperring")
        assert str(exc.value) == "derived ring is not a hyperring"
        assert exc.value.witness == [
            "hmul-associativity violated at (1, 1, 2)",
            "sign-rule violated at (1, 1)",
            "weak-distributivity violated at (1, 1, 1)",
        ]

    def test_map_refusal_carries_the_failures(self):
        ring = null_product_ring(4)
        swap = GoodHom(ring, ring, (0, 2, 1, 3))
        with pytest.raises(ConstructionError) as exc:
            require_good_hom(swap, "map is not a good homomorphism")
        assert str(exc.value) == "map is not a good homomorphism"
        assert exc.value.witness == check_good_hom(swap) != []
        require_good_hom(GoodHom(ring, ring, (0, 1, 2, 3)), "identity map refused")


class TestMatrix:
    def test_oriented_product_refused_when_asymmetric(self):
        z2 = FiniteHyperring.zn_phi(2, [0, 1])
        with pytest.raises(ConstructionError) as exc:
            matrix_hyperring(z2)
        w = exc.value.witness
        assert w["kind"] == "noncommutative-product"
        assert w["pair"] == [[0, 0, 0, 1], [0, 0, 1, 0]]
        assert w["left"] == [[0, 0, 0, 0], [0, 0, 1, 0]]
        assert w["right"] == [[0, 0, 0, 0]]

    def test_family_matrix_rings_never_commute(self):
        # entry (0,1) of E00(1)∘E01(1) is 1∘1 + 0∘0 = Phi, and of
        # E01(1)∘E00(1) it is 0∘0 + 1∘0 = {0}; Phi holds two distinct
        # residues, so no cap admits a commutative M_2 of a family ring
        for r in enumerate_family(RingFamilySpec()):
            hm = r.hmul
            assert r.set_add(hm[1][1], hm[0][0]) != r.set_add(hm[0][0], hm[1][0]), r.name

    def test_carrier_cap(self):
        z3 = FiniteHyperring.zn_phi(3, [1, 2])
        with pytest.raises(ResourceError, match="exceeds cap 64"):
            matrix_hyperring(z3)

    def test_null_product_base_builds(self):
        mring = matrix_hyperring(null_product_ring())
        assert mring.n == 16
        assert mring.validate().ok


class TestMCS:
    def test_unit_sets(self, z8):
        assert [elems_of(m) for m in canonical_mcs_list(z8)] == [
            [1, 3],
            [1, 3, 5, 7],
        ]

    def test_closure(self, z8):
        assert elems_of(mcs_closure(z8, mask_of({1}))) == [1, 3]

    def test_closure_matches_reference(self, z8, z6u):
        # the closure straight from its definition: add every product of
        # two members until nothing changes.  Seeds of up to three elements
        # reach closures of all 8 elements of z8, so a walk that skips
        # members past the first few shows
        def reference(ring, seed):
            grown = seed
            while True:
                cur = grown
                for s in elems_of(cur):
                    for t in elems_of(cur):
                        grown |= ring.hmul[s][t]
                if grown == cur:
                    return cur

        for ring in (z8, z6u):
            for k in (1, 2, 3):
                for seed in combinations(range(ring.n), k):
                    assert mcs_closure(ring, mask_of(seed)) == reference(ring, mask_of(seed)), (ring.name, seed)

    def test_predicates(self, z8):
        assert is_mcs(z8, mask_of({1, 3}))
        assert not is_mcs(z8, mask_of({0, 2}))
        # closed under ∘ (every product is {0}) but holds no identity
        assert not is_mcs(z8, mask_of({0, 4}))

    def test_gamma_of_small_ideal(self, z8):
        assert gamma_mask(z8, mask_of({0, 4})) == EVENS8


class TestLocalize:
    def test_ordinary_ring_at_units(self):
        ring = ordinary_ring(6)
        loc = localize(ring, mask_of({1, 5}))
        assert loc.ring.n == 6
        assert loc.ring.validate().ok

    def test_zero_in_s_collapses(self):
        ring = ordinary_ring(6)
        loc = localize(ring, ring.full_mask)
        assert loc.ring.n == 1

    def test_multivalued_addition_refused(self):
        z3 = FiniteHyperring.zn_phi(3, [1, 2])
        with pytest.raises(ConstructionError, match="not single valued") as exc:
            localize(z3, mask_of({1, 2}))
        assert "class_pair" in exc.value.witness

    def test_identity_required(self, z6a):
        with pytest.raises(UsageError, match="identity"):
            localize(z6a, mask_of({2}))

    @pytest.mark.parametrize("n,hmul,smask,message,witness", [
        (3, [[4, 7, 4], [7, 6, 6], [4, 6, 4]], 6,
         "localization relation is not transitive",
         {"p1": (0, 1), "p2": (0, 2), "p3": (2, 2)}),
        (3, [[3, 5, 6], [5, 7, 6], [6, 6, 6]], 7,
         "fraction operations depend on representatives",
         {"class_pair": (0, 0), "p1": (0, 0), "p2": (1, 0)}),
        (4, [[2, 9, 11, 9], [9, 2, 13, 11], [11, 13, 9, 14], [9, 11, 14, 7]], 2,
         "fraction addition is not single valued",
         {"class_pair": (0, 0), "classes": [0, 2, 3]}),
        (3, [[5, 1, 5], [1, 2, 4], [5, 4, 2]], 2,
         "localized ring failed validation",
         ["hmul-associativity violated at (0, 0, 2)",
          "sign-rule violated at (0, 0)",
          "weak-distributivity violated at (1, 1, 0)"]),
    ], ids=["not-transitive", "representatives", "not-single-valued", "validation"])
    def test_refusal_branches(self, n, hmul, smask, message, witness):
        with pytest.raises(ConstructionError) as exc:
            localize(zn_table_ring(n, hmul), smask)
        assert str(exc.value) == message
        assert exc.value.witness == witness

    def test_random_tables_pinned(self):
        # random tables localized at every canonical MCS: every outcome
        # (classes, tables, refusal message and witness) is pinned
        outcomes = []
        for ring in random_identity_tables():
            outcomes.extend(localize_outcome(ring, s) for s in canonical_mcs_list(ring))
        kinds = Counter(o[1] if o[0] == "refused" else "built" for o in outcomes)
        assert kinds == {
            "built": 432,
            "localization relation is not transitive": 2568,
            "fraction addition is not single valued": 335,
            "fraction operations depend on representatives": 135,
        }
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == "26277d1dea0e58e1b9f10ad01826303b389e881459cbec3e831c4b938ace8730"

    def test_default_family_pinned(self):
        # every canonical MCS of every default-family ring with an identity:
        # the ring, the MCS and every outcome are pinned
        outcomes = [
            [ring.name, s, localize_outcome(ring, s)]
            for ring in enumerate_family(RingFamilySpec())
            if ring.has_identity
            for s in canonical_mcs_list(ring)
        ]
        kinds = Counter(o[1] if o[0] == "refused" else "built" for _, _, o in outcomes)
        assert kinds == {"built": 498, "fraction addition is not single valued": 634}
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == "5d721ee58b1ccffb64777021a5691031cc17dcf70e112114ec3f7ecef3c6e1b9"

    def test_zero_in_s_is_the_one_element_ring(self):
        # every default-family localization with 0 in S (where 0∘x = {0}
        # for every x) is the one-element ring of the definition: every
        # pair in class 0, the base's identity in S as `one`
        one_element = FiniteHyperring(1, [[0]], [[1]]).table_key()
        checked = 0
        for ring in enumerate_family(RingFamilySpec()):
            if not ring.has_identity:
                continue
            for smask in canonical_mcs_list(ring):
                if not smask & 1:
                    continue
                assert all(m == 1 for m in ring.hmul[0]), ring.name
                loc = localize(ring, smask)
                assert loc.ring.n == 1
                assert loc.ring.table_key() == one_element
                assert loc.pairs == tuple((a, s) for a in range(ring.n) for s in elems_of(smask))
                assert set(loc.class_of) == set(loc.pairs)
                assert set(loc.class_of.values()) == {0}
                assert loc.one == min(elems_of(smask & ring.unit_report().identities))
                assert loc.ring.name == f"loc({ring.name},{bin(smask).count('1')})"
                checked += 1
        assert checked == 406

    def test_zero_in_s_without_absorbing_zero_is_constructed(self):
        # 1 is an identity and 0 is in S, but 0∘0 = {0, 2}: the relation is
        # built and found not transitive, so no one-element ring is returned
        ring = zn_table_ring(3, [[5, 3, 1], [3, 3, 4], [1, 4, 4]])
        assert ring.unit_report().identities == mask_of({1})
        assert localize_outcome(ring, 7) == [
            "refused", "localization relation is not transitive", {"p1": (0, 0), "p2": (1, 1), "p3": (1, 0)},
        ]

    def test_built_classes_match_reference(self):
        # every localization of the moduli 2-8 family that builds has the
        # classes of the relation written from its definition
        built = 0
        for ring in enumerate_family(RingFamilySpec(moduli=tuple(range(2, 9)))):
            if not ring.has_identity:
                continue
            for smask in canonical_mcs_list(ring):
                try:
                    loc = localize(ring, smask)
                except ConstructionError:
                    continue
                related = reference_relation(ring, smask)
                for p in loc.pairs:
                    for q in loc.pairs:
                        assert related(p, q) == (loc.class_of[p] == loc.class_of[q]), (ring.name, smask, p, q)
                built += 1
        assert built == 130

    def test_transitivity_refusals_match_reference(self):
        # every "not transitive" refusal on the random tables names pairs
        # with p1 ~ p2 ~ p3 and p1 not related to p3 under the definition
        refused = 0
        for ring in random_identity_tables():
            for smask in canonical_mcs_list(ring):
                try:
                    localize(ring, smask)
                except ConstructionError as e:
                    if str(e) != "localization relation is not transitive":
                        continue
                    related = reference_relation(ring, smask)
                    p1, p2, p3 = e.witness["p1"], e.witness["p2"], e.witness["p3"]
                    assert related(p1, p2) and related(p2, p3) and not related(p1, p3), (ring.table_key(), smask)
                    refused += 1
        assert refused == 2568


class TestHoms:
    def test_identity_hom_is_clean(self, z8):
        hom = GoodHom(z8, z8, tuple(range(8)))
        assert check_good_hom(hom) == []
        assert nonunit_preservation_witness(hom) is None
