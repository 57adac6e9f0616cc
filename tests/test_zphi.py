"""Integer hyperrings induced by a finite multiplier set: exact products,
principal-ideal membership, the valuation radical, and windowed
counterexample search."""
import math
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.core import elems_of, parse_ring_spec
from hyperlab.verdicts import SplitMode, UVParams
from hyperlab.zphi import (
    ZPhiRing,
    bounded_uv_check,
    ideal_intersection,
    identities,
    int_product,
    is_nonunit,
    principal_membership,
    radical_membership,
    radical_profile,
    replay_int_counterexample,
    units,
)

from radical_oracle import radical_membership_bruteforce
from records import verdict_record


@pytest.fixture(scope="module")
def r23():
    return ZPhiRing((2, 3))


@pytest.fixture(scope="module")
def r24():
    return ZPhiRing((2, 4))


class TestProducts:
    def test_frozen_products(self, r23):
        assert int_product(r23, [2, 3]) == {12, 18}
        assert int_product(r23, [2, 2]) == {8, 12}
        assert int_product(r23, [2, 2, 3]) == {48, 72, 108}
        assert int_product(r23, [2, 2, 2, 3]) == {192, 288, 432, 648}

    def test_single_factor(self, r23):
        assert int_product(r23, [7]) == {7}

    def test_sign_rule(self, r23):
        assert int_product(r23, [-2, 3]) == {-12, -18}

    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(1, 30), min_size=2, max_size=4),
        n=st.integers(2, 12),
    )
    def test_projection_to_residue_ring(self, r23, xs, n):
        # reducing factors mod n and multiplying in Z_n must match the
        # residues of the integer product set
        zn = parse_ring_spec(f"z{n}:2,3")
        lhs = sorted({p % n for p in int_product(r23, xs)})
        rhs = elems_of(zn.hyperproduct([x % n for x in xs]))
        assert lhs == rhs

    @settings(max_examples=80, deadline=None)
    @given(xs=st.lists(st.integers(1, 30), min_size=1, max_size=5))
    def test_size_bound(self, r23, xs):
        assert len(int_product(r23, xs)) <= len(r23.phi) ** (len(xs) - 1)

    @settings(max_examples=60, deadline=None)
    @given(xs=st.lists(st.integers(1, 30), min_size=2, max_size=4))
    def test_permutation_invariance(self, r23, xs):
        assert int_product(r23, xs) == int_product(r23, list(reversed(xs)))


class TestMembership:
    def test_frozen_verdicts(self, r23):
        assert principal_membership(12, int_product(r23, [2, 3])) == "mixed"
        assert principal_membership(12, int_product(r23, [2, 2])) == "mixed"
        assert principal_membership(12, int_product(r23, [2, 2, 3])) == "subset"
        assert principal_membership(12, int_product(r23, [2, 2, 2, 3])) == "subset"
        assert principal_membership(12, [5, 7]) == "disjoint"


class TestUnits:
    def test_no_identity_when_multipliers_exceed_one(self, r23):
        assert identities(r23) == ()
        assert units(r23) == frozenset()
        assert is_nonunit(r23, 1)

    def test_identity_when_one_is_a_multiplier(self):
        ring = ZPhiRing((1, 2))
        assert identities(ring) == (1,)
        assert units(ring) == {1, -1}
        assert not is_nonunit(ring, -1)
        assert is_nonunit(ring, 2)


class TestRadical:
    def test_frozen_memberships(self, r23):
        assert radical_membership(r23, 12, 6) is True
        assert radical_membership(r23, 12, 2) is False
        assert radical_membership(r23, 12, 3) is False

    def test_profile(self, r23):
        profile = radical_profile(r23, 12)
        assert profile.generator == 6
        assert profile.primes == ((2, 2, 0), (3, 1, 0))

    def test_agrees_with_bruteforce_on_small_grid(self, r23):
        for d in (4, 6, 12, 18):
            for a in range(1, 20):
                assert radical_membership(r23, d, a) == radical_membership_bruteforce(
                    r23, d, a
                )

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 500),
        a=st.integers(-60, 60).filter(lambda a: a != 0),
        phi=st.sets(st.sampled_from([2, 3, 5, 7]), min_size=2, max_size=3),
    )
    def test_agrees_with_bruteforce_randomized(self, d, a, phi):
        ring = ZPhiRing(tuple(sorted(phi)))
        assert radical_membership(ring, d, a) == radical_membership_bruteforce(
            ring, d, a
        )


class TestIntersection:
    def test_frozen_value(self):
        assert ideal_intersection([3, 5, 7]) == 105

    def test_lcm_semantics(self):
        assert ideal_intersection([4, 6]) == 12
        assert ideal_intersection([12]) == 12


class TestWindowedChecks:
    def test_3_2_counterexample_at_tiny_window(self, r23):
        v = bounded_uv_check(r23, 12, UVParams(3, 2), window=3, variant="primary")
        assert v.fails
        assert v.witness == {"factors": [2, 2, 3]}

    def test_4_2_prime_counterexample(self, r23):
        v = bounded_uv_check(r23, 12, UVParams(4, 2), window=10, variant="prime")
        assert v.fails
        assert v.witness == {"factors": [2, 2, 2, 3]}

    def test_clean_window_reports_tested_count(self, r24):
        v = bounded_uv_check(r24, 3, UVParams(3, 2), window=10, variant="primary")
        assert not v.fails
        assert v.tested > 0

    def test_windowed_checks_are_deterministic(self, r23):
        a = bounded_uv_check(r23, 12, UVParams(3, 2), window=6, variant="primary")
        b = bounded_uv_check(r23, 12, UVParams(3, 2), window=6, variant="primary")
        assert verdict_record(a) == verdict_record(b)

    def test_replay_confirms_and_rejects(self, r23):
        assert replay_int_counterexample(r23, 12, [2, 2, 3], UVParams(3, 2))
        assert not replay_int_counterexample(r23, 12, [12, 12, 12], UVParams(3, 2))

    def test_witness_really_breaks_the_property(self, r23):
        # premise: the full product lies in <12>; conclusion would need a
        # 2-subproduct inside <12> or the rest inside the radical
        prod = int_product(r23, [2, 2, 3])
        assert principal_membership(12, prod) == "subset"
        assert principal_membership(12, int_product(r23, [2, 2])) != "subset"
        assert principal_membership(12, int_product(r23, [2, 3])) != "subset"
        assert not radical_membership(r23, 12, 2)
        assert not radical_membership(r23, 12, 3)


def _literal_scan(ring, d, uv, window, variant, mode, memo):
    """The windowed scan written straight from the definitions: full
    hyperproduct sets tested element by element against dZZ and rad(dZZ),
    every distinct v-part of every nonunit multiset in nondecreasing order
    over 2, -2, 3, -3, ..., then, when 1 is not a unit, the multisets over
    1, -1, 2, -2, ... that contain ±1.  No gcd shortcut and no valuation
    classes; `memo` only remembers each integer multiset's own split facts."""
    u, v = uv.u, uv.v

    def inside(xs):
        key = ("d", tuple(sorted(xs)))
        if key not in memo:
            memo[key] = principal_membership(d, int_product(ring, xs)) == "subset"
        return memo[key]

    def conclusion(xs):
        if variant == "prime":
            return inside(xs)
        key = ("rad", tuple(sorted(xs)))
        if key not in memo:
            memo[key] = all(radical_membership(ring, d, a) for a in int_product(ring, xs))
        return memo[key]

    def rest_of(ms, part):
        rest = list(ms)
        for x in part:
            rest.remove(x)
        return tuple(rest)

    base = [s * k for k in range(2, window + 1) for s in (1, -1)]
    scans = [combinations_with_replacement(base, u)]
    if 1 not in units(ring):
        scans.append(
            ms for ms in combinations_with_replacement([1, -1] + base, u) if 1 in ms or -1 in ms
        )

    def facts(ms):
        # premise met, the failing splits in sorted v-part order, and the
        # number of splits
        if not inside(ms):
            return False, [], 0
        splits = [(vp, rest_of(ms, vp)) for vp in sorted(set(combinations(ms, v)))]
        bad = [(vp, rest) for vp, rest in splits if not (inside(vp) or conclusion(rest))]
        return True, bad, len(splits)

    space = f"nonunit multisets |x|<={window} u={u} v={v} mode={mode.value}"
    extra = {"window": window, "variant": variant}
    tested = 0
    known = memo.setdefault((variant, v), {})
    for scan in scans:
        for ms in scan:
            if ms not in known:
                known[ms] = facts(ms)
            hit, bad, n_splits = known[ms]
            tested += hit
            if mode is SplitMode.ANY and hit and len(bad) == n_splits:
                witness = {"factors": list(ms)}
            elif mode is SplitMode.ALL and bad:
                vp, rest = bad[0]
                witness = {"factors": list(vp + rest), "v_part": list(vp), "rest": list(rest)}
            else:
                continue
            return {"status": "fails", "witness": witness, "space": space, "tested": tested, "extra": extra}
    extra["note"] = f"no counterexample with all |x_i| <= {window}"
    return {"status": "inconclusive", "witness": None, "space": space, "tested": tested, "extra": extra}


# identity 1 (units ±1), identity -1 with a negative multiplier, no identity,
# every multiplier even (rad(dZZ) is wider than the squarefree part), and a
# negative non-unit multiplier; d = 1 and d with repeated primes (at window 2
# the only counterexamples for d = 4 contain ±1)
REFERENCE_PHIS = [(2, 3), (1, 2), (-1, 2), (2, 4), (-2, 6)]
REFERENCE_DS = [1, 4, 12]


class TestWindowedReference:
    @pytest.mark.parametrize("phi", REFERENCE_PHIS, ids=str)
    def test_matches_literal_scan_on_every_small_window(self, phi):
        ring = ZPhiRing(phi)
        statuses = set()
        for d in REFERENCE_DS:
            memo: dict = {}
            for (u, v), window, variant, mode in product(
                [(u, v) for u in range(2, 5) for v in range(1, u)],
                range(2, 13),
                ("primary", "prime"),
                SplitMode,
            ):
                uv = UVParams(u, v)
                got = verdict_record(bounded_uv_check(ring, d, uv, window, variant=variant, mode=mode))
                assert got == _literal_scan(ring, d, uv, window, variant, mode, memo), (
                    d, u, v, window, variant, mode
                )
                statuses.add(got["status"])
        assert statuses == {"fails", "inconclusive"}

    def test_window_1000_counts_every_multiset(self, r23):
        # 435,412,941,375 = C(2003, 4) minus the 4-multisets of the 2,000
        # nonzero |x| <= 1000 whose product misses 12ZZ (W = {8, 12, 18, 27}
        # has gcd 1, so the premise is 12 | product), by inclusion-exclusion
        # over "not divisible by 4" and "not divisible by 3"
        pool = [x for x in range(-1000, 1001) if x]

        def multisets(n, k):
            return math.comb(n + k - 1, k)

        def missing_4(xs):
            odd = sum(1 for x in xs if x % 2)
            twice = sum(1 for x in xs if x % 4 == 2)
            return multisets(odd, 4) + twice * multisets(odd, 3)

        prime_to_3 = [x for x in pool if x % 3]
        missing = missing_4(pool) + multisets(len(prime_to_3), 4) - missing_4(prime_to_3)
        assert multisets(len(pool), 4) - missing == 435_412_941_375

        v = bounded_uv_check(r23, 12, UVParams(4, 2), window=1000, variant="primary")
        assert v.status == "inconclusive"
        assert v.tested == 435_412_941_375
        prime = bounded_uv_check(r23, 12, UVParams(4, 2), window=1000, variant="prime")
        assert prime.fails
        assert prime.witness == {"factors": [2, 2, 2, 3]}
