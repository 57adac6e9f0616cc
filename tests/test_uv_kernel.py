"""The bit-sliced (u,v) scan kernel against the one-target deciders and
against a literal reference decider written straight from the definition:
frozenset products folded from the multiplication table, distinct v-parts
in sorted order, remainders by multiset difference, no bitsets and no
shared product cache."""
from collections import Counter
from functools import partial
from itertools import combinations, combinations_with_replacement

import pytest

from hyperlab.classify import (
    is_uv_absorbing_i_primary,
    is_uv_absorbing_prime,
    is_uv_absorbing_primary,
    multiset_products,
    replay_uv_counterexample,
    splits,
    uv_scan,
)
from hyperlab.core import elems_of, mask_of, parse_ring_spec
from hyperlab.harness import RingFamilySpec, compute_uv_matrices, enumerate_family, uv_pairs
from hyperlab.ideals import enumerate_hyperideals, ideal_product, radical_nilpotent
from hyperlab.verdicts import FAILS, HOLDS, SplitMode, UVParams

FAMILY = RingFamilySpec(moduli=(4, 5, 6, 7, 8, 9), phi_sizes=(2,))
U_MAX = 5
# the full-pool and avoid scans run the same kernel at smaller arity
U_MAX_WIDE = 4


class Reference:
    """Literal (u,v) decider over one ring and one element pool."""

    def __init__(self, ring, pool):
        self.table = [[frozenset(elems_of(ring.hmul[a][b])) for b in range(ring.n)] for a in range(ring.n)]
        self.pool = tuple(pool)
        self.products = {}
        self.rows = {}

    def product(self, xs: tuple) -> frozenset:
        if xs not in self.products:
            out = frozenset(xs[:1])
            for x in xs[1:]:
                out = frozenset(z for s in out for z in self.table[s][x])
            self.products[xs] = out
        return self.products[xs]

    def splits(self, u, v):
        """Every u-multiset in canonical order with its product and its
        (v-part, remainder, v-part product, remainder product) splits, one
        per distinct v-part, in sorted order."""
        if (u, v) not in self.rows:
            self.rows[(u, v)] = [
                (ms, self.product(ms), [
                    (vp, rest, self.product(vp), self.product(rest))
                    for vp in sorted(set(combinations(ms, v)))
                    for rest in [tuple(sorted((Counter(ms) - Counter(vp)).elements()))]
                ])
                for ms in combinations_with_replacement(self.pool, u)
            ]
        return self.rows[(u, v)]

    def decide(self, pmask, concl_mask, u, v, mode, avoid_mask=0):
        """(status, witness, tested): the multisets whose product lies in P
        and misses `avoid` are tested in canonical order; a split passes
        when its v-part product lies in P or its remainder product in the
        conclusion set."""
        p, concl, avoid = (frozenset(elems_of(m)) for m in (pmask, concl_mask, avoid_mask))
        tested = 0
        for ms, total, splits in self.splits(u, v):
            if not total <= p or total & avoid:
                continue
            tested += 1
            passes = [pv <= p or pr <= concl for _, _, pv, pr in splits]
            if mode is SplitMode.ANY and not any(passes):
                return FAILS, {"factors": list(ms)}, tested
            if mode is SplitMode.ALL and not all(passes):
                vp, rest, _, _ = splits[passes.index(False)]
                return FAILS, {"factors": list(vp + rest), "v_part": list(vp), "rest": list(rest)}, tested
        return HOLDS, None, tested


def assert_matches_reference(ring, ref, verdict, pmask, concl_mask, u, v, mode, avoid_mask=0):
    expected = ref.decide(pmask, concl_mask, u, v, mode, avoid_mask)
    assert (verdict.status, verdict.witness, verdict.tested) == expected, (ring.name, elems_of(pmask), u, v)
    if verdict.fails:
        assert replay_uv_counterexample(ring, pmask, concl_mask, verdict.witness["factors"], v, mode=mode)


def proper_targets(ring):
    return [(b.mask, radical_nilpotent(ring, b.mask)) for b in enumerate_hyperideals(ring).ideals if b.proper]


def family():
    for ring in enumerate_family(FAMILY):
        yield ring, proper_targets(ring)


def assert_matrix_matches_reference(ring, targets, uvs, mode, pool):
    """Both readings of one kernel call over `pool`, for every target and
    (u, v) in `uvs`, field for field against the literal reference."""
    ref = Reference(ring, pool)
    primary = [(p, r, 0, "absorbing-primary") for p, r in targets]
    prime = [(p, p, 0, "absorbing-prime") for p, _ in targets]
    rows = uv_scan(ring, primary + prime, uvs, mode, pool)
    assert len(rows) == 2 * len(targets)
    for (pmask, concl, _, _), row in zip(primary + prime, rows):
        assert list(row) == uvs
        for u, v in uvs:
            assert_matches_reference(ring, ref, row[(u, v)], pmask, concl, u, v, mode)


@pytest.mark.parametrize("mode", list(SplitMode))
def test_matrix_matches_one_target_deciders_and_reference(mode):
    for ring, targets in family():
        nonunits = elems_of(ring.unit_report().nonunits)
        ref = Reference(ring, nonunits)
        mat_p, mat_q = compute_uv_matrices(ring, targets, U_MAX, mode)
        for (pmask, rad), row_p, row_q in zip(targets, mat_p, mat_q):
            assert list(row_p) == list(row_q) == uv_pairs(U_MAX)
            for u, v in uv_pairs(U_MAX):
                uv = UVParams(u, v)
                assert row_p[(u, v)] == is_uv_absorbing_primary(ring, pmask, rad, uv, mode=mode)
                assert row_q[(u, v)] == is_uv_absorbing_prime(ring, pmask, uv, mode=mode)
                assert_matches_reference(ring, ref, row_p[(u, v)], pmask, rad, u, v, mode)
                assert_matches_reference(ring, ref, row_q[(u, v)], pmask, pmask, u, v, mode)


@pytest.mark.parametrize("mode", list(SplitMode))
def test_full_pool_and_avoid_paths(mode):
    """The full-element pool (the unit-padding check's scan) as a
    multi-target kernel call against the reference, and the I∘P avoid set
    of the i-primary variant as a multi-target kernel call and as
    one-target deciders."""
    for ring, targets in family():
        nonunits = elems_of(ring.unit_report().nonunits)
        carrier = list(range(ring.n))
        ref_wide, ref = Reference(ring, carrier), Reference(ring, nonunits)
        wide = uv_scan(
            ring, [(p, r, 0, "absorbing-primary") for p, r in targets], uv_pairs(U_MAX_WIDE), mode, carrier
        )
        for (pmask, rad), row in zip(targets, wide):
            for u, v in uv_pairs(U_MAX_WIDE):
                space = f"absorbing-primary u={u} v={v} pool={ring.n} mode={mode.value}"
                assert row[(u, v)].checked_space == space
                assert_matches_reference(ring, ref_wide, row[(u, v)], pmask, rad, u, v, mode)
        avoided = [
            (p, r, ideal_product(ring, i, p).mask, i) for p, r in targets for i, _ in targets
        ]
        rows = uv_scan(
            ring,
            [(p, r, a, "absorbing-i-primary") for p, r, a, _ in avoided],
            uv_pairs(U_MAX_WIDE),
            mode,
            nonunits,
        )
        for (pmask, rad, avoid, imask), row in zip(avoided, rows):
            for u, v in uv_pairs(U_MAX_WIDE):
                one = is_uv_absorbing_i_primary(ring, pmask, imask, rad, UVParams(u, v), mode=mode)
                assert one.extra == {"ideal_product": elems_of(avoid)}
                assert fields(row[(u, v)]) == fields(one)
                assert_matches_reference(ring, ref, one, pmask, rad, u, v, mode, avoid)


def fields(verdict):
    """A verdict without `extra`, which only the one-target i-primary
    decider fills."""
    return verdict.status, verdict.witness, verdict.tested, verdict.checked_space


@pytest.mark.parametrize("mode", list(SplitMode))
def test_mixed_readings_in_one_call(mode):
    """Primary, prime and I∘P-avoid targets interleaved in one kernel call,
    each with its own label: every row is, field for field, the one-target
    decider's verdict and the reference's, and its space names its own
    reading."""
    for ring, targets in family():
        nonunits = elems_of(ring.unit_report().nonunits)
        ref = Reference(ring, nonunits)
        readings = []
        # I runs over the targets shifted by one, so the avoid sets differ
        for (p, r), (i, _) in zip(targets, targets[1:] + targets[:1]):
            readings += [
                ((p, r, 0, "absorbing-primary"), partial(is_uv_absorbing_primary, ring, p, r)),
                ((p, p, 0, "absorbing-prime"), partial(is_uv_absorbing_prime, ring, p)),
                (
                    (p, r, ideal_product(ring, i, p).mask, "absorbing-i-primary"),
                    partial(is_uv_absorbing_i_primary, ring, p, i, r),
                ),
            ]
        rows = uv_scan(ring, [target for target, _ in readings], uv_pairs(U_MAX_WIDE), mode, nonunits)
        assert len(rows) == len(readings)
        for ((pmask, concl, avoid, label), decide), row in zip(readings, rows):
            for u, v in uv_pairs(U_MAX_WIDE):
                verdict = row[(u, v)]
                assert fields(verdict) == fields(decide(UVParams(u, v), mode=mode))
                assert verdict.checked_space.startswith(label + " u=")
                assert_matches_reference(ring, ref, verdict, pmask, concl, u, v, mode, avoid)


# Rings without an identity, so all 12 elements are nonunits, each with 5
# proper ideals: a 12 x 12 grid of 144 slots of 2 * 5 bits, 1,440-bit
# packed ints.
Z12_WITHOUT_IDENTITY = ("z12:4,9", "z12:3,10", "z12:0,10", "z12:2,4")


@pytest.mark.parametrize("mode", list(SplitMode))
@pytest.mark.parametrize("spec", Z12_WITHOUT_IDENTITY)
def test_twelve_slot_pools(spec, mode):
    ring = parse_ring_spec(spec)
    targets = proper_targets(ring)
    pool = elems_of(ring.unit_report().nonunits)
    assert (ring.has_identity, len(pool), len(targets)) == (False, 12, 5)
    assert_matrix_matches_reference(ring, targets, uv_pairs(U_MAX_WIDE), mode, pool)


@pytest.mark.parametrize("mode", list(SplitMode))
def test_sweep_arity_on_a_twelve_slot_pool(mode):
    """The sweep scans 12-element nonunit pools up to u = 5: the (u-2)-
    prefixes of u = 5 are 3 factors long, and the longest split chains of
    the kernel run there."""
    ring = parse_ring_spec(Z12_WITHOUT_IDENTITY[0])
    pool = elems_of(ring.unit_report().nonunits)
    assert_matrix_matches_reference(ring, proper_targets(ring), uv_pairs(U_MAX), mode, pool)


@pytest.mark.parametrize("mode", list(SplitMode))
def test_one_element_pool(mode):
    ring = parse_ring_spec("z5:1,2")
    pool = elems_of(ring.unit_report().nonunits)
    assert pool == [0]
    assert_matrix_matches_reference(ring, proper_targets(ring), uv_pairs(U_MAX), mode, pool)


@pytest.mark.parametrize("mode", list(SplitMode))
def test_u2_alone_has_an_empty_prefix(mode):
    ring = parse_ring_spec("z12:4,9")
    assert_matrix_matches_reference(ring, proper_targets(ring), [(2, 1)], mode, list(range(ring.n)))


def test_lower_of_two_failing_slots_is_the_witness():
    """z6:0,3 has no identity, so its pool is all 6 elements.  P = {0}
    fails (3,1) under ALL at [1,1,2] and again at [1,1,4]: two slots of
    row y = 1 of the grid of prefix [1].  The witness is the lower slot,
    and `tested` stops there, at 22 of the 23 multisets that meet the
    hypothesis up to and including [1,1,4]."""
    ring = parse_ring_spec("z6:0,3")
    pmask, rad = mask_of([0]), mask_of([0, 2, 4])
    assert radical_nilpotent(ring, pmask) == rad
    pool = list(range(ring.n))
    (verdict,) = uv_scan(ring, [(pmask, rad, 0, "absorbing-primary")], [(3, 1)], SplitMode.ALL, pool)
    assert verdict[(3, 1)].witness == {"factors": [2, 1, 1], "v_part": [2], "rest": [1, 1]}
    assert verdict[(3, 1)].tested == 22
    # [1,1,4] fails too, and it is the next multiset to meet the hypothesis
    assert replay_uv_counterexample(ring, pmask, rad, [4, 1, 1], 1, mode=SplitMode.ALL)
    hits = [ms for ms, total, _ in Reference(ring, pool).splits(3, 1) if total == {0}]
    assert (hits.index((1, 1, 2)), hits.index((1, 1, 4))) == (21, 22)


def test_grid_is_row_major():
    """z6:0,3 over its full carrier, P = {0} and the conclusion set
    {0,1,2,5}: (2,1) fails under ALL at [1,4], and again at [2,3], which
    comes later in canonical order (slot 1 * 6 + 4 = 10 of the row-major
    grid, before 2 * 6 + 3 = 15) but first in x-major order.  So the
    witness and `tested` are the reference's only if the grid's slots run
    y-major, as canonical order does."""
    ring = parse_ring_spec("z6:0,3")
    pmask, concl = mask_of([0]), mask_of([0, 1, 2, 5])
    pool = list(range(ring.n))
    (row,) = uv_scan(ring, [(pmask, concl, 0, "absorbing-primary")], [(2, 1)], SplitMode.ALL, pool)
    assert_matches_reference(ring, Reference(ring, pool), row[(2, 1)], pmask, concl, 2, 1, SplitMode.ALL)
    assert row[(2, 1)].witness["factors"] == [1, 4]
    assert replay_uv_counterexample(ring, pmask, concl, [2, 3], 1, mode=SplitMode.ALL)
    assert min([(1, 4), (2, 3)], key=lambda ms: ms[::-1]) == (2, 3)


def test_products_stop_at_the_longest_head():
    """At u_max = 5 the kernel reads the products of its heads, the (u-2)-
    prefixes of at most 3 factors, off the ring's product memo.  The only
    longer products it reads are the 4-factor v-parts and remainders of
    ALL witnesses at (5,1) and (5,4), and each witness is still the
    reference's."""
    ring = parse_ring_spec(Z12_WITHOUT_IDENTITY[0])
    pool = tuple(elems_of(ring.unit_report().nonunits))
    targets = proper_targets(ring)
    mat_p, mat_q = compute_uv_matrices(ring, targets, U_MAX, SplitMode.ALL)
    prods = dict(multiset_products(ring))
    assert max(map(len, prods)) == 4
    witness_parts = {
        part
        for row in mat_p + mat_q
        for (_, v), verdict in row.items()
        if verdict.fails
        for split in splits(tuple(sorted(verdict.witness["factors"])), v)
        for part in split
    }
    assert {ms for ms in prods if len(ms) == 4} <= witness_parts
    assert all(m == (ring.hyperproduct(ms) if ms else None) for ms, m in prods.items())
    ref = Reference(ring, pool)
    long_parts = 0
    for (pmask, rad), row_p, row_q in zip(targets, mat_p, mat_q):
        for row, concl in ((row_p, rad), (row_q, pmask)):
            for v in (1, 4):
                verdict = row[(5, v)]
                assert_matches_reference(ring, ref, verdict, pmask, concl, 5, v, SplitMode.ALL)
                if verdict.fails:
                    assert 4 in (len(verdict.witness["v_part"]), len(verdict.witness["rest"]))
                    long_parts += 1
    assert long_parts == 10
