"""Exact-integer hyperring over ZZ induced by a finite multiplier set Phi:
a ∘ b = {a·x·b : x in Phi}.

Principal hyperideals are realized as dZZ (the generate-closure of {d}
inside any window is exactly the multiples of d; the finite-ring tests
cross-check this against the lattice machinery on Z_m quotients).

The (u,v) checks here are windowed: the carrier is infinite, so a scan
that finds no counterexample reports INCONCLUSIVE with the window size,
never a proof.  A found counterexample is exact and final.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, islice
from typing import Iterable, Sequence

from .classify import splits
from .verdicts import (
    ParameterError,
    SplitMode,
    UsageError,
    UVParams,
    Verdict,
    fails,
    inconclusive,
)

SUBSET = "subset"
DISJOINT = "disjoint"
MIXED = "mixed"


@dataclass(frozen=True)
class ZPhiRing:
    """The hyperring (ZZ, +, ∘) with ∘ induced by the multiplier set phi."""

    phi: tuple[int, ...]

    def __init__(self, phi: Iterable[int]):
        vals = tuple(phi)
        if len(vals) < 2:
            raise UsageError("phi needs at least two multipliers")
        if len(set(vals)) != len(vals):
            raise UsageError("phi multipliers must be distinct")
        if any(x == 0 for x in vals):
            raise UsageError("phi multipliers must be nonzero")
        object.__setattr__(self, "phi", tuple(sorted(vals)))


@lru_cache(maxsize=None)
def phi_power_products(ring: ZPhiRing, j: int) -> tuple[int, ...]:
    """All products of j multipliers from phi, with repetition (j=0 gives 1)."""
    if j < 0:
        raise UsageError("power length must be nonnegative")
    if j == 0:
        return (1,)
    acc = {1}
    for _ in range(j):
        acc = {w * x for w in acc for x in ring.phi}
    return tuple(sorted(acc))


def int_product(ring: ZPhiRing, xs: Sequence[int]) -> frozenset[int]:
    """Hyperproduct of the integer factors xs, as an exact set."""
    if not xs:
        raise UsageError("hyperproduct needs at least one factor")
    base = math.prod(xs)
    return frozenset(base * w for w in phi_power_products(ring, len(xs) - 1))


def identities(ring: ZPhiRing) -> tuple[int, ...]:
    """Elements e with a in e ∘ a for every a; e·x = 1 must be solvable in phi."""
    return tuple(e for e in (1, -1) if any(e * x == 1 for x in ring.phi))


def units(ring: ZPhiRing) -> frozenset[int]:
    """Units per the definition: x with some y and identity e, e in y ∘ x.
    Without an identity there are no units and every integer is a nonunit."""
    ids = identities(ring)
    out = set()
    for e in ids:
        for x in (1, -1):
            # y·t·x = e needs |t| = 1; an identity guarantees such a t exists
            if any(abs(t) == 1 and e % (t * x) == 0 for t in ring.phi):
                out.add(x)
    return frozenset(out)


def is_nonunit(ring: ZPhiRing, a: int) -> bool:
    return a not in units(ring)


def principal_membership(d: int, values: Iterable[int]) -> str:
    """Classify a finite set of integers against dZZ."""
    if d < 1:
        raise UsageError("principal generator must be positive")
    vals = list(values)
    inside = sum(1 for m in vals if m % d == 0)
    if inside == len(vals):
        return SUBSET
    return DISJOINT if inside == 0 else MIXED


def _factorize(d: int) -> list[tuple[int, int]]:
    out = []
    p, rest = 2, d
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def _vp(x: int, p: int) -> int:
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class RadicalProfile:
    """Per-prime data deciding rad(dZZ): e_p the valuation of d, m_p the
    least valuation across phi.  rad(dZZ) = rZZ with r the product of the
    primes p | d whose m_p is zero (any p with m_p > 0 is fed into every
    long product by the multipliers themselves)."""

    d: int
    primes: tuple[tuple[int, int, int], ...]  # (p, e_p, m_p)

    @property
    def generator(self) -> int:
        return math.prod(p for p, _e, m in self.primes if m == 0)


def radical_profile(ring: ZPhiRing, d: int) -> RadicalProfile:
    if d < 1:
        raise UsageError("principal generator must be positive")
    entries = tuple(
        (p, e, min(_vp(x, p) for x in ring.phi)) for p, e in _factorize(d)
    )
    return RadicalProfile(d, entries)


def radical_membership(ring: ZPhiRing, d: int, a: int) -> bool:
    """a in rad(dZZ), by the valuation criterion: for every prime p | d,
    v_p(a) + m_p >= 1.  Validated against a direct power search in the
    tests' radical oracle."""
    if a == 0:
        return True
    return all(m > 0 or a % p == 0 for p, _e, m in radical_profile(ring, d).primes)


def ideal_intersection(ds: Sequence[int]) -> int:
    """Generator of the intersection of the principal hyperideals d_i ZZ."""
    if not ds:
        raise UsageError("intersection needs at least one generator")
    if any(d < 1 for d in ds):
        raise UsageError("generators must be positive")
    return math.lcm(*ds)


# -- windowed (u,v) checks ----------------------------------------------------


def _gcd_of(ws: Sequence[int]) -> int:
    return math.gcd(*ws) if len(ws) > 1 else abs(ws[0])


def _subset_q(modulus: int, plain_product: int) -> int:
    # product·W ⊆ modulus·ZZ  iff  (modulus / gcd(modulus, product)) divides
    # every member of W; the divisor is returned for a gcd comparison
    return modulus // math.gcd(modulus, plain_product)


def bounded_uv_check(
    ring: ZPhiRing,
    d: int,
    uv: UVParams,
    window: int,
    variant: str = "primary",
    mode: SplitMode = SplitMode.ANY,
) -> Verdict:
    """Scan multisets of u nonunit integers with |x| <= window for a
    counterexample to the (u,v)-absorbing property of dZZ.

    variant "primary" sends the remainder clause to rad(dZZ), "prime"
    to dZZ itself.  Zero is skipped: any multiset containing 0 satisfies
    every split through the {0} product.  Multisets avoiding ±1 are
    scanned before those containing them, so reported witnesses prefer
    factors of absolute value at least 2; the union of the two passes
    covers every nonunit multiset in the window.  Each pass runs in
    nondecreasing order over the pool 2, -2, 3, -3, ... (1, -1 in front
    in the second).

    Whether x·W ⊆ mZZ holds, for m = d or the radical generator (which
    divides d), depends only on the valuations of x at the primes p | d,
    capped at their exponents in d.  So the premise and every split are
    decided once per multiset of capped-valuation classes, and `tested`,
    the number of integer multisets in the window whose hyperproduct lies
    in dZZ, sums the multinomial counts of the classes that meet the
    premise; ±1 form a class of their own so the second pass is counted
    apart.  A pass is walked multiset by multiset only when it is known
    to hold a counterexample, to report the first one in the order above
    with `tested` counted up to it, so the cost of a scan that finds none
    does not grow with window**u.
    """
    if window < 2:
        raise ParameterError("window must be at least 2")
    if variant not in ("primary", "prime"):
        raise UsageError(f"unknown variant: {variant!r}")
    if d < 1:
        raise UsageError("principal generator must be positive")
    u, v = uv.u, uv.v
    concl_mod = d if variant == "prime" else radical_profile(ring, d).generator
    g_total = _gcd_of(phi_power_products(ring, u - 1))
    g_parts = {
        size: _gcd_of(phi_power_products(ring, size - 1))
        for size in range(1, u)
    }

    def split_ok(vpart: tuple, rest: tuple) -> bool:
        if g_parts[v] % _subset_q(d, math.prod(vpart)) == 0:
            return True
        return g_parts[u - v] % _subset_q(concl_mod, math.prod(rest)) == 0

    def breaks(ms: tuple) -> bool:
        oks = (split_ok(vp, rest) for vp, rest in splits(ms, v))
        return not any(oks) if mode is SplitMode.ANY else not all(oks)

    # The second pass is the start of the nondecreasing order over pool, up
    # to the first multiset without ±1.  Its walk never gets that far: a
    # failing class multiset holding ±1 has a member holding only 1s there.
    base_pool = [s * k for k in range(2, window + 1) for s in (1, -1)]
    passes = [base_pool]
    pool = base_pool
    if 1 not in units(ring):
        pool = [1, -1] + base_pool
        passes.append(pool)

    # Class label of each element: its capped valuation vector, None for ±1.
    # A class multiset is keyed by the sum of (u+1)**label over its members,
    # unique because no label occurs more than u times.
    primes = _factorize(d)
    caps = {x: None if abs(x) == 1 else tuple(min(_vp(x, p), e) for p, e in primes) for x in pool}
    label = {cap: i for i, cap in enumerate(dict.fromkeys(caps.values()))}
    sizes = Counter(label[cap] for cap in caps.values())
    reps = [math.prod(p**k for (p, _e), k in zip(primes, cap or ())) for cap in label]
    weight = {x: (u + 1) ** label[cap] for x, cap in caps.items()}

    unit = label.get(None)  # a class multiset holding ±1 is in the second pass
    broken: dict[int, bool] = {}  # class multisets meeting the premise
    hits = [0, 0]  # integer multisets meeting the premise, per pass
    failing = [False, False]
    for cm in combinations_with_replacement(range(len(reps)), u):
        ms = tuple(reps[c] for c in cm)
        if g_total % _subset_q(d, math.prod(ms)):
            continue
        second = unit in cm
        broken[sum((u + 1) ** c for c in cm)] = bad = breaks(ms)
        hits[second] += math.prod(math.comb(sizes[c] + k - 1, k) for c, k in Counter(cm).items())
        failing[second] |= bad

    def witness(ms: tuple) -> dict:
        if mode is SplitMode.ANY:
            return {"factors": list(ms)}
        vp, rest = next((vp, rest) for vp, rest in splits(ms, v) if not split_ok(vp, rest))
        return {"factors": list(vp + rest), "v_part": list(vp), "rest": list(rest)}

    space = f"nonunit multisets |x|<={window} u={u} v={v} mode={mode.value}"
    tested = 0
    for scan_pool, count, has_failure in zip(passes, hits, failing):
        if not has_failure:
            tested += count
            continue
        keys = map(sum, combinations_with_replacement([weight[x] for x in scan_pool], u))
        for pos, bad in enumerate(map(broken.get, keys)):
            if bad is None:
                continue
            tested += 1
            if bad:
                ms = next(islice(combinations_with_replacement(scan_pool, u), pos, None))
                return fails(witness(ms), space=space, tested=tested, window=window, variant=variant)
    return inconclusive(
        space=space,
        tested=tested,
        window=window,
        variant=variant,
        note=f"no counterexample with all |x_i| <= {window}",
    )


def replay_int_counterexample(
    ring: ZPhiRing,
    d: int,
    factors: Sequence[int],
    uv: UVParams,
    variant: str = "primary",
    mode: SplitMode = SplitMode.ANY,
) -> bool:
    """Recheck a windowed witness straight from the definitions, using full
    product sets rather than the gcd shortcut."""
    u, v = uv.u, uv.v
    if len(factors) != u:
        return False
    concl_mod = d if variant == "prime" else radical_profile(ring, d).generator
    if principal_membership(d, int_product(ring, factors)) != SUBSET:
        return False
    ms = tuple(sorted(factors))

    def ok(vp: tuple, rest: tuple) -> bool:
        if principal_membership(d, int_product(ring, vp)) == SUBSET:
            return True
        return principal_membership(concl_mod, int_product(ring, rest)) == SUBSET

    if mode is SplitMode.ALL:
        return not ok(tuple(factors[:v]), tuple(factors[v:]))
    return not any(ok(vp, rest) for vp, rest in splits(ms, v))
