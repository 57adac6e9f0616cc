"""Hyperideal lattice, generation, colon, the two radical constructions,
and the C / strong-C classes."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.core import FiniteHyperring, elems_of, mask_of, subset
from hyperlab.ideals import (
    absorbs,
    colon,
    enumerate_hyperideals,
    generate,
    ideal_product,
    is_c_hyperideal,
    is_hyperideal,
    is_strong_c_hyperideal,
    radical_nilpotent,
    radical_prime_intersection,
)

EVENS8 = mask_of({0, 2, 4, 6})


class TestLattice:
    def test_z8_lattice(self, z8):
        lat = enumerate_hyperideals(z8)
        assert [elems_of(i) for i in lat.ideals] == [
            [0],
            [0, 4],
            [0, 2, 4, 6],
            [0, 1, 2, 3, 4, 5, 6, 7],
        ]
        assert lat.prime == [False, False, True, False]
        assert lat.maximal == [False, False, True, False]
        assert elems_of(lat.jacobson) == [0, 2, 4, 6]
        assert lat.local

    def test_z6a_lattice(self, z6a):
        lat = enumerate_hyperideals(z6a)
        assert [elems_of(i) for i in lat.ideals] == [
            [0],
            [0, 3],
            [0, 2, 4],
            [0, 1, 2, 3, 4, 5],
        ]
        assert lat.prime == [False, True, True, False]
        assert not lat.local

    def test_z7_lattice(self, z7):
        lat = enumerate_hyperideals(z7)
        assert [elems_of(i) for i in lat.ideals] == [[0], [0, 1, 2, 3, 4, 5, 6]]
        assert lat.prime == [True, False]
        assert lat.local

    def test_lattice_accessors(self, z8):
        lat = enumerate_hyperideals(z8)
        assert [elems_of(i) for i in lat.primes()] == [[0, 2, 4, 6]]
        assert [elems_of(i) for i in lat.maximals()] == [[0, 2, 4, 6]]
        assert len(lat.proper()) == 3

    def test_jacobson_is_intersection_of_maximals(self, small_family):
        for ring in small_family:
            lat = enumerate_hyperideals(ring)
            expected = (1 << ring.n) - 1
            for ideal, mx in zip(lat.ideals, lat.maximal):
                if mx:
                    expected &= ideal
            assert lat.jacobson == expected

    def test_membership_predicates(self, z8):
        assert is_hyperideal(z8, EVENS8)
        assert not is_hyperideal(z8, mask_of({0, 2}))
        assert absorbs(z8, EVENS8) is None
        assert absorbs(z8, mask_of({0, 2})) is not None


class TestGenerate:
    def test_principal(self, z8):
        assert elems_of(generate(z8, mask_of({4}))) == [0, 4]

    def test_empty_seed(self, z8):
        assert elems_of(generate(z8, 0)) == [0]

    def test_z6a_principal(self, z6a):
        assert elems_of(generate(z6a, mask_of({2}))) == [0, 2, 4]

    def test_generated_is_smallest(self, small_family):
        for ring in small_family:
            lat = enumerate_hyperideals(ring)
            for seed_elem in range(ring.n):
                seed = mask_of({seed_elem})
                gen = generate(ring, seed)
                containing = [i for i in lat.ideals if subset(seed, i)]
                assert gen in containing
                for mask in containing:
                    assert subset(gen, mask)

    def test_recloses_under_addition(self):
        # F_2^3 with coordinatewise product: the multiples of the three
        # even-weight vectors are every vector but 7 = 3 + 5 + 6, which
        # only the additive closure after absorption brings in
        f = FiniteHyperring(
            8, [[a ^ b for b in range(8)] for a in range(8)], [[1 << (a & b) for b in range(8)] for a in range(8)]
        )
        assert f.validate().ok
        assert generate(f, mask_of({3, 5, 6})) == f.full_mask

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generate_yields_ideal(self, z8, z6u, data):
        ring = data.draw(st.sampled_from([z8, z6u]))
        seed = data.draw(st.integers(0, (1 << ring.n) - 1))
        out = generate(ring, seed)
        assert is_hyperideal(ring, out)
        assert subset(seed, out)


class TestColonAndProduct:
    def test_colon_frozen(self, z8):
        assert colon(z8, mask_of({0, 4}), mask_of({2})) == EVENS8
        assert colon(z8, EVENS8, mask_of({1})) == EVENS8

    def test_colon_by_a_set_needs_every_member(self, z8):
        # 1 ∘ 0 ⊆ {0, 4} but 1 ∘ 2 is not; the empty divisor leaves nothing to test
        assert colon(z8, mask_of({0, 4}), EVENS8) == EVENS8
        assert colon(z8, mask_of({0, 4}), 0) == z8.full_mask

    def test_colon_contains_numerator(self, z8):
        lat = enumerate_hyperideals(z8)
        for a in lat.ideals:
            for b in lat.ideals:
                assert subset(a, colon(z8, a, b))

    def test_product_frozen(self, z8):
        assert elems_of(ideal_product(z8, mask_of({0, 4}), EVENS8)) == [0]

    def test_product_within_intersection(self, small_family):
        for ring in small_family:
            lat = enumerate_hyperideals(ring)
            for a in lat.ideals:
                for b in lat.ideals:
                    prod = ideal_product(ring, a, b)
                    assert is_hyperideal(ring, prod)
                    assert subset(prod, a & b)


class TestRadicals:
    def test_frozen_values(self, z8):
        assert radical_nilpotent(z8, mask_of({0})) == EVENS8
        assert radical_nilpotent(z8, mask_of({0, 4})) == EVENS8
        assert radical_prime_intersection(z8, mask_of({0})) == EVENS8
        assert radical_prime_intersection(z8, mask_of({0, 4})) == EVENS8

    def test_radical_contains_ideal(self, small_family):
        for ring in small_family:
            for ideal in enumerate_hyperideals(ring).ideals:
                assert subset(ideal, radical_nilpotent(ring, ideal))

    def test_forms_agree_on_c_ideals(self, small_family):
        for ring in small_family:
            for ideal in enumerate_hyperideals(ring).ideals:
                if ideal == ring.full_mask:
                    continue
                if is_c_hyperideal(ring, ideal).holds:
                    assert radical_nilpotent(ring, ideal) == radical_prime_intersection(
                        ring, ideal
                    )

    def test_non_c_ideal_where_forms_still_agree(self, z6a):
        # the equality is only guaranteed for C-hyperideals, but it is not
        # forbidden elsewhere; this ideal shows both sides of that line
        mask = mask_of({0, 3})
        assert is_c_hyperideal(z6a, mask).fails
        assert radical_nilpotent(z6a, mask) == mask
        assert radical_prime_intersection(z6a, mask) == mask


class TestCClasses:
    def test_z8_c_holds(self, z8):
        assert is_c_hyperideal(z8, mask_of({0, 4})).holds
        assert is_c_hyperideal(z8, mask_of({0})).holds

    def test_z6a_c_fails_with_witness(self, z6a):
        v = is_c_hyperideal(z6a, mask_of({0}))
        assert v.fails
        assert v.witness == {"factors": [5, 2], "product": [0, 2]}
        v = is_c_hyperideal(z6a, mask_of({0, 3}))
        assert v.fails
        assert v.witness == {"factors": [5, 1], "product": [3, 4]}

    def test_c_witness_replays(self, z6a):
        # the recorded product set must really straddle the ideal
        v = is_c_hyperideal(z6a, mask_of({0}))
        prod = z6a.hyperproduct(v.witness["factors"])
        assert elems_of(prod) == v.witness["product"]
        assert prod & mask_of({0})
        assert not subset(prod, mask_of({0}))

    def test_strong_c_frozen(self, z8):
        v = is_strong_c_hyperideal(z8, mask_of({0, 4}))
        assert v.fails
        assert v.witness == {"summands": [[7, 1], [3]], "sum": [0, 2]}
        assert is_strong_c_hyperideal(z8, EVENS8).holds

    def test_strong_c_implies_c(self, small_family):
        for ring in small_family:
            for ideal in enumerate_hyperideals(ring).ideals:
                if is_strong_c_hyperideal(ring, ideal).holds:
                    assert is_c_hyperideal(ring, ideal).holds
