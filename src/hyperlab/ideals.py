"""Hyperideals of a finite multiplicative hyperring.

A hyperideal is an additive subgroup B with r ∘ x ⊆ B for every carrier
element r and x in B.  Like every other subset of the carrier it is a
plain ``Mask``: ``generate``, ``ideal_product`` and the entries of
``enumerate_hyperideals(ring).ideals`` are ints.  The full lattice is
enumerated by walking additive subgroups and filtering by absorption,
which is exhaustive at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import FiniteHyperring, Mask, elems_of, iter_bits, subset
from .verdicts import UsageError, Verdict, first_failure


def is_subgroup(ring: FiniteHyperring, mask: Mask) -> bool:
    if ring.zero is None or not mask >> ring.zero & 1:
        return False
    add, neg = ring.add, ring.neg
    for a in iter_bits(mask):
        if not mask >> neg[a] & 1:
            return False
        for b in iter_bits(mask):
            if not mask >> add[a][b] & 1:
                return False
    return True


def absorbs(ring: FiniteHyperring, mask: Mask) -> Optional[tuple]:
    """None if r ∘ x ⊆ mask for all r, x in mask; else witness (r, x)."""
    hm = ring.hmul
    notm = ~mask
    for x in iter_bits(mask):
        for r in range(ring.n):
            if hm[r][x] & notm:
                return (r, x)
    return None


def is_hyperideal(ring: FiniteHyperring, mask: Mask) -> bool:
    return mask != 0 and is_subgroup(ring, mask) and absorbs(ring, mask) is None


def subgroup_closure(ring: FiniteHyperring, mask: Mask) -> Mask:
    """Smallest additive subgroup containing mask (plus zero)."""
    if ring.zero is None:
        raise UsageError("ring has no additive identity")
    add = ring.add
    closed = mask | 1 << ring.zero
    frontier = closed
    while frontier:
        new = 0
        for a in iter_bits(frontier):
            row = add[a]
            for b in iter_bits(closed):
                new |= 1 << row[b]
        # subtraction closure comes from inverses: fold them in directly
        for a in iter_bits(frontier):
            new |= 1 << ring.neg[a]
        frontier = new & ~closed
        closed |= new
    return closed


def generate(ring: FiniteHyperring, seed: Mask) -> Mask:
    """Least hyperideal containing the seed set (closure under group
    subtraction and carrier absorption)."""
    cur = subgroup_closure(ring, seed)
    hm = ring.hmul
    while True:
        grown = cur
        for x in iter_bits(cur):
            for r in range(ring.n):
                grown |= hm[r][x]
        if grown != cur:
            cur = subgroup_closure(ring, grown)
            continue
        return cur


@dataclass
class IdealLattice:
    ring: FiniteHyperring
    ideals: list[Mask]
    prime: list[bool]
    maximal: list[bool]
    jacobson: Mask
    local: bool

    def proper(self) -> list[Mask]:
        return [b for b in self.ideals if b != self.ring.full_mask]

    def primes(self) -> list[Mask]:
        return [b for b, p in zip(self.ideals, self.prime) if p]

    def maximals(self) -> list[Mask]:
        return [b for b, m in zip(self.ideals, self.maximal) if m]


def enumerate_subgroups(ring: FiniteHyperring) -> list[Mask]:
    if ring.zero is None:
        raise UsageError("ring has no additive identity")
    base = 1 << ring.zero
    seen = {base}
    work = [base]
    while work:
        h = work.pop()
        for g in range(ring.n):
            if h >> g & 1:
                continue
            h2 = subgroup_closure(ring, h | 1 << g)
            if h2 not in seen:
                seen.add(h2)
                work.append(h2)
    return sorted(seen)


def enumerate_hyperideals(ring: FiniteHyperring) -> IdealLattice:
    return ring.memo("lattice", lambda: _lattice(ring))


def _lattice(ring: FiniteHyperring) -> IdealLattice:
    ideals = [m for m in enumerate_subgroups(ring) if absorbs(ring, m) is None]
    full = ring.full_mask
    prime = [b != full and prime_pair_witness(ring, b) is None for b in ideals]
    maximal = []
    for b in ideals:
        if b == full:
            maximal.append(False)
            continue
        strictly_between = any(c != b and c != full and subset(b, c) for c in ideals)
        maximal.append(not strictly_between)
    jac = full
    for b, m in zip(ideals, maximal):
        if m:
            jac &= b
    return IdealLattice(ring, ideals, prime, maximal, jac, sum(maximal) == 1)


def prime_pair_witness(ring: FiniteHyperring, pmask: Mask) -> Optional[tuple]:
    """The first pair x <= y of elements outside P with x ∘ y ⊆ P, or None
    when P is prime (for proper P)."""
    hm = ring.hmul
    notp = ~pmask
    for x in range(ring.n):
        if pmask >> x & 1:
            continue
        row = hm[x]
        for y in range(x, ring.n):
            if pmask >> y & 1:
                continue
            if row[y] & notp == 0:
                return (x, y)
    return None


def colon(ring: FiniteHyperring, b2: Mask, b1: Mask) -> Mask:
    """(b2 : b1) = elements a with a ∘ b ⊆ b2 for every b in b1."""
    hm = ring.hmul
    notb2 = ~b2
    out = 0
    b1_elems = elems_of(b1)
    for a in range(ring.n):
        row = hm[a]
        if all(row[b] & notb2 == 0 for b in b1_elems):
            out |= 1 << a
    return out


# -- radicals ----------------------------------------------------------------


def radical_prime_intersection(ring: FiniteHyperring, bmask: Mask) -> Mask:
    """Intersection of the prime hyperideals containing B; the full carrier
    when no prime contains B."""
    lattice = enumerate_hyperideals(ring)
    out = ring.full_mask
    for b, p in zip(lattice.ideals, lattice.prime):
        if p and subset(bmask, b):
            out &= b
    return out


def power_reaches(ring: FiniteHyperring, a: int, bmask: Mask) -> Optional[int]:
    """Least k with a^k ⊆ B, or None.  The power sequence of subsets is
    eventually periodic, so the scan stops when a set repeats."""
    cur = 1 << a
    seen = set()
    k = 1
    while cur not in seen:
        if subset(cur, bmask):
            return k
        seen.add(cur)
        cur = ring.mul_elem(cur, a)
        k += 1
    return None


def radical_nilpotent(ring: FiniteHyperring, bmask: Mask) -> Mask:
    """Elements a with a^k ⊆ B for some k >= 1 (whole-set containment)."""
    out = 0
    for a in range(ring.n):
        if power_reaches(ring, a, bmask) is not None:
            out |= 1 << a
    return out


# -- product-set closure and the C / strong C conditions ---------------------


def product_set_closure(ring: FiniteHyperring) -> dict[Mask, tuple]:
    """Every set value ⊙(a1..ak) of a finite hyperproduct, k >= 1, with one
    witness factor tuple per distinct set.

    Worklist closure of the singletons under "multiply by one more carrier
    element"; termination is the worklist draining, i.e. the reachable
    family is verified to be a fixed point rather than trusted to stop at
    any particular product length.
    """
    return ring.memo("prodsets", lambda: _product_sets(ring))


def _product_sets(ring: FiniteHyperring) -> dict[Mask, tuple]:
    out: dict[Mask, tuple] = {}
    work: list[Mask] = []
    for a in range(ring.n):
        m = 1 << a
        out[m] = (a,)
        work.append(m)
    while work:
        m = work.pop()
        factors = out[m]
        for a in range(ring.n):
            m2 = ring.mul_elem(m, a)
            if m2 not in out:
                out[m2] = factors + (a,)
                work.append(m2)
    return out


def is_c_hyperideal(ring: FiniteHyperring, bmask: Mask) -> Verdict:
    """C condition: every finite hyperproduct that meets B lies inside B."""
    prods = product_set_closure(ring)
    return first_failure(f"{len(prods)} distinct product sets", (
        {"factors": list(factors), "product": elems_of(m)} if m & ~bmask else None
        for m, factors in prods.items()
        if m & bmask
    ))


def is_strong_c_hyperideal(ring: FiniteHyperring, bmask: Mask) -> Verdict:
    """Strong C condition: every finite sum of hyperproducts that meets B
    lies inside B.

    Decided exactly via cosets: singletons are length-1 products and
    setwise sums only translate or grow, so a violating sum exists iff
    some single product set straddles two cosets of B (translate it by
    the negative of one of its B-coset members to exhibit the sum).
    """
    if not is_subgroup(ring, bmask):
        raise UsageError("strong C test needs an additive subgroup")
    prods = product_set_closure(ring)

    def case(m: Mask, factors: tuple) -> Optional[dict]:
        t0 = (m & -m).bit_length() - 1
        shifted = ring.set_add(m, 1 << ring.neg[t0])
        if shifted & ~bmask:
            # sum ⊙(factors) + (-t0) meets B at zero but leaves B
            return {"summands": [list(factors), [ring.neg[t0]]], "sum": elems_of(shifted)}
        return None

    # a singleton is always inside one coset
    return first_failure(f"{len(prods)} product sets vs cosets of B", (
        case(m, factors) for m, factors in prods.items() if m & (m - 1)
    ))


def ideal_product(ring: FiniteHyperring, p: Mask, q: Mask) -> Mask:
    """Hyperideal generated by all pointwise products p ∘ q."""
    seed = 0
    hm = ring.hmul
    for a in iter_bits(p):
        row = hm[a]
        for b in iter_bits(q):
            seed |= row[b]
    return generate(ring, seed)
