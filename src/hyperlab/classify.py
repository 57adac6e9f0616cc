"""Deciders for hyperideal classes: prime, primary, and the arity-graded
absorbing variants.

The (u,v) deciders quantify over multisets of u nonunits whose full
hyperproduct lands in P, then aggregate over the ways the multiset splits
into a v-part and a remainder.  Split aggregation is a parameter
(SplitMode) because the source material is readable both ways; see the
module tests for a worked pair of examples where the two disagree.
ANY is the default: a counterexample is a multiset for which every split
fails its disjunction, which is the reading that matches the worked
integer examples this library reproduces.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement
from operator import or_
from typing import Optional, Sequence

from .core import FiniteHyperring, Mask, elems_of, iter_bits
from .ideals import (
    colon,
    enumerate_hyperideals,
    generate,
    ideal_product,
    prime_pair_witness,
)
from .verdicts import (
    ParameterError,
    SplitMode,
    UsageError,
    UVParams,
    Verdict,
    fails,
    first_failure,
    holds,
)


def _require_proper(ring: FiniteHyperring, pmask: Mask) -> None:
    if pmask == ring.full_mask:
        raise UsageError("property is defined for proper hyperideals only")
    if pmask == 0:
        raise UsageError("hyperideal must be nonempty")


# -- multiset product cache ---------------------------------------------------


class _Memo(dict):
    """key -> fn(key), filled on first use."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = out = self.fn(key)
        return out


def multiset_products(ring: FiniteHyperring) -> dict[tuple, Optional[Mask]]:
    """Hyperproduct masks of nondecreasing element tuples, one memo per
    ring: a tuple's product is folded from its prefix's the first time it
    is read.  The empty tuple maps to None, the empty product."""
    def build():
        prods = _Memo(lambda ms: ring.mul_elem(prods[ms[:-1]], ms[-1]))
        prods[()] = None
        prods.update(((a,), 1 << a) for a in range(ring.n))
        return prods

    return ring.memo("msprod", build)


def multiset_counts(ring: FiniteHyperring, elems: Sequence[int], k_max: int) -> list[list[dict]]:
    """tables[i][k]: product mask -> the number of k-multisets of elems[:i]
    with that product, folded in the order of `elems` (None, the empty
    product, for k = 0).  A DP over distinct products: adding x = elems[i],
    level k reads level k-1 of the table that already holds x, so repeats
    are counted.  One memo per ring and `elems`, extended to k_max on
    demand."""
    elems = tuple(elems)
    tables = ring.memo(("mscounts", elems), lambda: [[{None: 1}] for _ in range(len(elems) + 1)])
    for k in range(len(tables[0]), k_max + 1):
        tables[0].append({})
        for i, x in enumerate(elems):
            level = dict(tables[i][k])
            for m, c in tables[i + 1][k - 1].items():
                m = 1 << x if m is None else ring.mul_elem(m, x)
                level[m] = level.get(m, 0) + c
            tables[i + 1].append(level)
    return tables


def _fold_order_free(ring: FiniteHyperring) -> bool:
    """hmul is commutative and associative, so prod(A ⊎ B) = prod(A) ∘
    prod(B) whatever order either is folded in."""
    axioms = {f.axiom for f in ring.validate().failures}
    return not axioms & {"hmul-commutativity", "hmul-associativity"}


def _complement(ms: Sequence[int], part: Sequence[int]) -> tuple:
    rest = list(ms)
    for x in part:
        rest.remove(x)
    return tuple(rest)


@cache
def splits(ms: tuple, v: int) -> tuple[tuple[tuple, tuple], ...]:
    """The canonical split order: each distinct (v-part, remainder) of the
    multiset ms once, v-parts in ascending order.  A v-part keeps the order
    of ms and the remainder is ms without the v-part's members, so both
    are sorted when ms is.  Every split walk that reports a witness walks
    this order, so its witness is the first failing split in it.  Memoized:
    the walks ask for the same small multisets again and again."""
    return tuple((vp, _complement(ms, vp)) for vp in sorted(set(combinations(ms, v))))


# -- prime / primary ----------------------------------------------------------


def is_prime(ring: FiniteHyperring, pmask: Mask) -> Verdict:
    """x ∘ y ⊆ P forces x in P or y in P, over all pairs."""
    _require_proper(ring, pmask)
    pair = prime_pair_witness(ring, pmask)
    if pair is not None:
        return fails({"x": pair[0], "y": pair[1]}, space="all element pairs", tested=1)
    return holds(space="all element pairs", tested=ring.n * ring.n)


def is_primary(ring: FiniteHyperring, pmask: Mask, radmask: Mask) -> Verdict:
    """x ∘ y ⊆ P forces x in P or y in rad(P), over all ordered pairs."""
    _require_proper(ring, pmask)
    hm = ring.hmul
    notp = ~pmask

    # one case per unordered pair with x ∘ y ⊆ P; (x, y) is tried first
    def cases():
        for x in range(ring.n):
            row = hm[x]
            for y in range(x, ring.n):
                if row[y] & notp:
                    continue
                if not (pmask >> x & 1 or radmask >> y & 1):
                    yield {"x": x, "y": y}
                elif not (pmask >> y & 1 or radmask >> x & 1):
                    yield {"x": y, "y": x}
                else:
                    yield None

    return first_failure("all ordered element pairs", cases())


# -- (u,v)-absorbing deciders -------------------------------------------------


def target_bits(targets: Sequence[tuple[Mask, Mask, Mask, str]]) -> _Memo:
    """m -> (v-part bits, remainder bits, hypothesis bits) of the product
    mask m: bit t of each is set where m ⊆ P, m ⊆ C, and m ⊆ P misses
    avoid, for target t.  A split is ok where its v-part bits or its
    remainder bits are set."""
    def read(m: Mask) -> tuple[int, int, int]:
        bp = bc = bh = 0
        for t, (pmask, concl, avoid, _) in enumerate(targets):
            if not m & ~pmask:
                bp |= 1 << t
                if not m & avoid:
                    bh |= 1 << t
            if not m & ~concl:
                bc |= 1 << t
        return bp, bc, bh

    return _Memo(read)


def uv_flags(
    ring: FiniteHyperring,
    bits: _Memo,
    every: int,
    uvs: Sequence[tuple[int, int]],
    pool: Sequence[int],
) -> dict[tuple[int, int], int]:
    """Per (u, v), the target bits of the pairs that can fail over `pool`.
    Under ALL a pair fails where some split (A, B) has prod(A ⊎ B) in the
    hypothesis, prod(A) ⊄ P and prod(B) ⊄ C, so the flags are the OR, over
    the distinct products α of the v-multisets and β of the
    (u-v)-multisets, of hyp(α∘β) & ~vpart(α) & ~concl(β) read off `bits`:
    exactly the failing pairs under ALL, a superset under ANY.  That needs
    prod(A ⊎ B) = α∘β, so a table that is not commutative and associative
    gets every target flagged."""
    if not _fold_order_free(ring):
        return dict.fromkeys(uvs, every)
    # prods[k]: the distinct products of the k-multisets of the pool, keys
    # of their counts
    prods = multiset_counts(ring, pool, max((u for u, _ in uvs), default=0))[-1]
    # α∘β, read under (min, max): (u, v) and (u, u-v) pair the same products
    both = _Memo(lambda ab: ring.set_mul(*ab))
    flags = {}
    for u, v in uvs:
        got = 0
        for a in prods[v]:
            gap = every & ~bits[a][0]
            for b in prods[u - v]:
                fail = gap & ~bits[b][1] & ~got
                if fail:
                    got |= bits[both[(a, b) if a < b else (b, a)]][2] & fail
        flags[(u, v)] = got
    return flags


def uv_scan(
    ring: FiniteHyperring,
    targets: Sequence[tuple[Mask, Mask, Mask, str]],
    uvs: Sequence[tuple[int, int]],
    mode: SplitMode,
    pool: Sequence[int],
) -> list[dict]:
    """The (u,v) scan kernel: one pass over the u-multisets of the sorted
    `pool` per u decides every (target, v) pair.

    A target is (P, C, avoid, label).  Hypothesis: the full product of the
    multiset lies in P and misses `avoid`.  A split passes when its v-part
    ⊆ P or its remainder ⊆ the conclusion set C: C = rad(P) is the primary
    reading, C = P the prime one, and avoid = I∘P the I-primary one.  ANY:
    a pair fails at a multiset where no split passes; ALL: where some split
    does not.  Returns, per target, {(u, v): Verdict} with spaces labelled
    by the target's label.

    Before the pass, `uv_flags` marks the pairs that can fail.  A pair
    that holds takes `tested` from `multiset_counts`, which counts the
    u-multisets of the pool by product, with no walk.  Prefixes are walked
    only while a flagged pair has no witness, and a prefix is searched
    only where its hypothesis bits meet such a pair.  A witness's `tested`
    is read from the hypothesis bits of the prefixes searched before it:
    a prefix skipped holds no hypothesis bit of a target still open, so
    it adds nothing to a later witness's count.

    Targets are bit-sliced, and so are the last two factors: a u-multiset
    is a (u-2)-prefix followed by y <= x, and one int of |pool|² * n bits
    holds a (y, x) grid, slot y * |pool| + x holding the n target bits of
    the multiset (prefix, pool[y], pool[x]).  A valid-slot mask keeps the
    canonical slots, last(prefix) <= y <= x.  Per product mask m and field,
    four memoized tables, built from a one-factor row of the bits of m∘x
    per slot x, lay out the bits of m∘y∘x in each slot, of m∘y repeated
    along row y, of m∘x repeated down column x, and of m in every slot.
    The prefix's splits are its `splits`, read as (v-part, remainder)
    product pairs.  y and x each join the v-part or the remainder, so a
    split (a, b) of the prefix with a v-part of size v-2, v-1 or v gives
    the splits (a∘y∘x, b), (a∘y, b∘x), (a∘x, b∘y) and (a, b∘y∘x) of every
    multiset of the grid in a few int operations.  Prefixes come in
    canonical order and slots row-major, which is canonical order within a
    prefix, so a pair's witness is its lowest failing valid slot in the
    first prefix that has one: the multiset (ANY) or its first failing
    split (ALL).  A witness's `tested` counts the multisets meeting the
    hypothesis up to it, by popcounts of the packed hypothesis bits.
    Products are read off `multiset_products`, the ring's one product
    memo, filled on first use.
    """
    pool = tuple(pool)
    n, size = len(targets), len(pool)
    every = (1 << n) - 1
    row = n * size  # bits per grid row
    row_ones = sum(1 << n * x for x in range(size))  # bit 0 of every slot of row 0
    col_ones = sum(1 << row * y for y in range(size))  # bit 0 of slot 0 of every row
    ones = row_ones * col_ones  # bit 0 of every slot
    # valid[lo]: every target bit of the slots with lo <= y <= x
    valid = [0] * (size + 1)
    for lo in reversed(range(size)):
        valid[lo] = valid[lo + 1] | (every * row_ones >> n * lo << n * lo << row * lo)
    prods = multiset_products(ring)
    mul = ring.mul_elem
    bits = target_bits(targets)
    flags = uv_flags(ring, bits, every, uvs, pool)
    # totals[u]: the u-multisets of the pool by product, folded as the grid
    # folds them, so this holds on every table
    totals = multiset_counts(ring, pool, max((u for u, _ in uvs), default=0))[-1]
    # by slot x: m -> m∘x, None (the empty product) -> {x}
    times = [_Memo(lambda m, x=x: 1 << x if m is None else mul(m, x)) for x in pool]

    def grid(field: int) -> tuple[_Memo, _Memo, _Memo, _Memo]:
        """The tables m -> field of m∘y∘x, m∘y, m∘x and m in slot (y, x),
        built from the one-factor row m -> field of m∘x in slot x of row 0
        (None, the empty product, standing for {x})."""
        line = _Memo(lambda m: sum(bits[tx[m]][field] << n * x for x, tx in enumerate(times)))
        return (
            _Memo(lambda m: sum(line[ty[m]] << row * y for y, ty in enumerate(times))),
            _Memo(lambda m: sum(bits[ty[m]][field] * row_ones << row * y for y, ty in enumerate(times))),
            _Memo(lambda m: line[m] * col_ones),
            _Memo(lambda m: bits[m][field] * ones),
        )

    vb_yx, vb_y, vb_x, vb = grid(0)
    rb_yx, rb_y, rb_x, rb = grid(1)
    hb_yx = grid(2)[0]
    any_mode = mode is SplitMode.ANY
    out = [{} for _ in targets]
    vs_of: dict[int, list[int]] = {}
    for u, v in uvs:
        vs_of.setdefault(u, []).append(v)
    for u, vs in vs_of.items():
        # open_[v]: the target bits of flagged pairs with no witness yet, in
        # every slot; live: their union over v, the bits worth a search
        open_ = {v: flags[(u, v)] * ones for v in vs}
        live = reduce(or_, open_.values())
        found: dict[tuple[int, int], tuple[dict, int]] = {}
        # packed hypothesis bits of a prefix's grid -> prefixes searched
        counts: dict[int, int] = {}
        for head_at in combinations_with_replacement(range(size), u - 2) if live else ():
            head = tuple(pool[i] for i in head_at)
            hb = hb_yx[prods[head]] & valid[head_at[-1] if head else 0]
            if not hb & live:
                continue
            # lv[j + 1]: the distinct (v-part, remainder) products of the
            # prefix's splits with a v-part of size j, None for an empty part
            lv = ((), *({(prods[a], prods[b]) for a, b in splits(head, j)} for j in range(u - 1)), ())
            closed = False
            for v in vs:
                need = hb & open_[v]
                if not need:
                    continue
                # ok: the pairs that some split (ANY) or every split (ALL)
                # satisfies, per slot (y, x)
                if any_mode:
                    ok = 0
                    for a, b in lv[v - 1]:  # y and x join the v-part
                        ok |= vb_yx[a] | rb[b]
                    for a, b in lv[v]:  # one joins the v-part, one the remainder
                        ok |= vb_y[a] | rb_x[b] | vb_x[a] | rb_y[b]
                    for a, b in lv[v + 1]:  # y and x join the remainder
                        ok |= vb[a] | rb_yx[b]
                else:
                    ok = -1
                    for a, b in lv[v - 1]:
                        ok &= vb_yx[a] | rb[b]
                    for a, b in lv[v]:
                        ok &= (vb_y[a] | rb_x[b]) & (vb_x[a] | rb_y[b])
                    for a, b in lv[v + 1]:
                        ok &= vb[a] | rb_yx[b]
                bad = need & ~ok
                closed = closed or bool(bad)
                while bad:
                    k = ((bad & -bad).bit_length() - 1) // n
                    first = bad >> n * k & every  # failing first at slot k
                    bad &= ~(first * ones)
                    open_[v] &= ~(first * ones)
                    y, x = divmod(k, size)
                    ms = head + (pool[y], pool[x])
                    for t in iter_bits(first):
                        if any_mode:
                            witness = {"factors": list(ms)}
                        else:
                            vp, rest = next(
                                (vp, rest)
                                for vp, rest in splits(ms, v)
                                if not (bits[prods[vp]][0] | bits[prods[rest]][1]) >> t & 1
                            )
                            witness = {"factors": list(vp + rest), "v_part": list(vp), "rest": list(rest)}
                        tested = sum(c * (g >> t & ones).bit_count() for g, c in counts.items())
                        tested += (hb >> t & ones & ((1 << n * (k + 1)) - 1)).bit_count()
                        found[(t, v)] = (witness, tested)
            counts[hb] = counts.get(hb, 0) + 1
            if closed:
                live = reduce(or_, open_.values())
                if not live:
                    break
        for t, (verdicts, target) in enumerate(zip(out, targets)):
            total = sum(c for m, c in totals[u].items() if bits[m][2] >> t & 1)
            for v in vs:
                space = f"{target[3]} u={u} v={v} pool={len(pool)} mode={mode.value}"
                if (t, v) in found:
                    witness, tested = found[(t, v)]
                    verdicts[(u, v)] = fails(witness, space=space, tested=tested)
                else:
                    verdicts[(u, v)] = holds(space=space, tested=total)
    return out


def _uv_one(
    ring: FiniteHyperring,
    target: tuple[Mask, Mask, Mask, str],
    uv: UVParams,
    mode: SplitMode,
) -> Verdict:
    """One-target call of the kernel over the nonunit pool."""
    _require_proper(ring, target[0])
    pool = elems_of(ring.unit_report().nonunits)
    (row,) = uv_scan(ring, [target], [(uv.u, uv.v)], mode, pool)
    return row[(uv.u, uv.v)]


def is_uv_absorbing_primary(
    ring: FiniteHyperring,
    pmask: Mask,
    radmask: Mask,
    uv: UVParams,
    mode: SplitMode = SplitMode.ANY,
) -> Verdict:
    """Product of u nonunits inside P forces a v-part inside P or the
    remainder inside rad(P)."""
    return _uv_one(ring, (pmask, radmask, 0, "absorbing-primary"), uv, mode)


def is_uv_absorbing_prime(
    ring: FiniteHyperring,
    pmask: Mask,
    uv: UVParams,
    mode: SplitMode = SplitMode.ANY,
) -> Verdict:
    """Same hypothesis, but the remainder must land in P itself."""
    return _uv_one(ring, (pmask, pmask, 0, "absorbing-prime"), uv, mode)


def is_uv_absorbing_i_primary(
    ring: FiniteHyperring,
    pmask: Mask,
    imask: Mask,
    radmask: Mask,
    uv: UVParams,
    mode: SplitMode = SplitMode.ANY,
) -> Verdict:
    """Variant whose hypothesis also avoids the product ideal I∘P: the
    u-product must lie in P and miss I∘P entirely."""
    ip = ideal_product(ring, imask, pmask)
    verdict = _uv_one(ring, (pmask, radmask, ip, "absorbing-i-primary"), uv, mode)
    verdict.extra["ideal_product"] = elems_of(ip)
    return verdict


def _triple_table(ring: FiniteHyperring) -> tuple[list[int], list[Mask]]:
    """The nonunits and, for every nondecreasing triple of them in
    canonical order, its product mask x∘y∘z, folded from `ring.hmul` alone;
    its caller keeps one per ring.  A product of two is one `hmul` cell, so the table
    holds no pair products."""
    hm = ring.hmul
    nonunits = elems_of(ring.unit_report().nonunits)
    totals = []
    for a, b, c in combinations_with_replacement(nonunits, 3):
        total = 0
        for e in iter_bits(hm[a][b]):
            total |= hm[e][c]
        totals.append(total)
    return nonunits, totals


def is_1_absorbing_primary(
    ring: FiniteHyperring,
    pmask: Mask,
    radmask: Mask,
    mode: SplitMode = SplitMode.ANY,
) -> Verdict:
    """Triples of nonunits: x ∘ y ∘ z ⊆ P forces x ∘ y ⊆ P or z in rad(P).

    Walks its own per-ring triple table and reads pair products from
    `ring.hmul` (no code shared with the (u,v) kernel or its product cache)
    so it can serve as a cross-check of the (3,2) decider.
    """
    _require_proper(ring, pmask)
    hm = ring.hmul
    nonunits, totals = ring.memo("triples", lambda: _triple_table(ring))
    notp = ~pmask
    hits = 0
    space = f"nonunit triples mode={mode.value}"
    for (a, b, c), total in zip(combinations_with_replacement(nonunits, 3), totals):
        if total & notp:
            continue
        hits += 1
        # z = a, b, c in ascending order against the other two; a repeated
        # member repeats its test, which changes no outcome
        others = ((a, b, c), (b, a, c), (c, a, b))
        if mode is SplitMode.ANY:
            if all(hm[x][y] & notp and not radmask >> z & 1 for z, x, y in others):
                return fails({"factors": [a, b, c]}, space=space, tested=hits)
        else:
            for z, x, y in others:
                if hm[x][y] & notp and not radmask >> z & 1:
                    return fails(
                        {"factors": [x, y, z], "v_part": [x, y], "rest": [z]},
                        space=space,
                        tested=hits,
                    )
    return holds(space=space, tested=hits)


def replay_uv_counterexample(
    ring: FiniteHyperring,
    pmask: Mask,
    concl_mask: Mask,
    factors: Sequence[int],
    v: int,
    mode: SplitMode = SplitMode.ANY,
) -> bool:
    """True iff the given factor multiset really violates the property:
    full product ⊆ P while (ANY) every split fails its disjunction, or
    (ALL) the as-ordered split fails."""
    ms = tuple(sorted(factors))
    total = ring.hyperproduct(ms)
    if total & ~pmask:
        return False
    if mode is SplitMode.ALL:
        vpart, rest = tuple(factors[:v]), tuple(factors[v:])
        return bool(ring.hyperproduct(vpart) & ~pmask) and bool(
            ring.hyperproduct(rest) & ~concl_mask
        )
    return all(
        ring.hyperproduct(vpart) & ~pmask and ring.hyperproduct(rest) & ~concl_mask
        for vpart, rest in splits(ms, v)
    )


# -- the top-arity characterization ------------------------------------------


@dataclass
class CharacterizationReport:
    """Four equivalent faces of the (v+1, v) absorbing-primary property for
    a C-hyperideal: (i) the decider itself, (ii) colons of v-products not
    inside P stay inside rad(P), (iii) the element-times-ideal form,
    (iv) the all-ideals form."""

    v: int
    i: Verdict
    ii: Verdict
    iii: Verdict
    iv: Verdict

    def booleans(self) -> tuple[bool, bool, bool, bool]:
        return (self.i.holds, self.ii.holds, self.iii.holds, self.iv.holds)

    @property
    def equivalent(self) -> bool:
        return len(set(self.booleans())) == 1


def check_v1v_characterization(
    ring: FiniteHyperring,
    pmask: Mask,
    radmask: Mask,
    v: int,
    mode: SplitMode = SplitMode.ANY,
    clause_i: Optional[Verdict] = None,
) -> CharacterizationReport:
    """The four clauses for P with radical `radmask` at arity v; `clause_i`
    is the (v+1, v) verdict when the caller already has it.  Raises
    UsageError on a table whose hypermultiplication is not commutative and
    associative: clauses (ii) and (iii) read a product through one colon
    and fold it in any order."""
    if v < 1:
        raise ParameterError("v must be >= 1")
    _require_proper(ring, pmask)
    if not _fold_order_free(ring):
        raise UsageError("the characterization needs a commutative, associative hypermultiplication")
    uv = UVParams(v + 1, v)
    lattice = enumerate_hyperideals(ring)
    nonunits = elems_of(ring.unit_report().nonunits)
    notp = ~pmask

    if clause_i is None:
        clause_i = is_uv_absorbing_primary(ring, pmask, radmask, uv, mode=mode)

    # (ii) every colon by a v-product that escapes P stays inside rad(P);
    # (iii) product ∘ Q ⊆ P forces the product into P or Q into rad(P).
    # Both read a v-multiset only through its product pm, and on a
    # commutative table pm ∘ Q ⊆ P exactly when Q ⊆ (P : pm).  So each
    # distinct product gets its colon, the ideals it absorbs into P and,
    # when pm escapes P, the index of the first of those outside rad(P)
    def product_facts(pm: Mask) -> tuple[Mask, list[Mask], Optional[int]]:
        col = colon(ring, pmask, pm)
        absorbed = [q for q in lattice.ideals if not q & ~col]
        bad = next((k for k, q in enumerate(absorbed) if q & ~radmask), None) if pm & notp else None
        return col, absorbed, bad

    facts = _Memo(product_facts)
    # tables[p - j][k]: the k-multisets of nonunits[j:] by product
    p = len(nonunits)
    tables = multiset_counts(ring, nonunits[::-1], v)

    def clause(space: str, weight, is_bad, witness) -> Verdict:
        """Holds, with the weights of every v-multiset's product summed,
        when no product at level v is bad.  Otherwise fails at the first
        v-multiset in canonical order whose product is bad, built position
        by position: the least x whose completions, drawn from x and the
        nonunits after it, reach a bad product is taken, and each x skipped
        adds the weights of its completions; witness(product) gives the
        witness's own weight and its fields besides the factors."""
        if not any(map(is_bad, tables[p][v])):
            return holds(space, sum(c * weight(m) for m, c in tables[p][v].items()))
        factors, pre, tested, j = [], None, 0, 0
        for i in range(v):
            for j in range(j, p):
                x = nonunits[j]
                head = 1 << x if pre is None else ring.mul_elem(pre, x)
                ends: dict[Mask, int] = {}
                for s, c in tables[p - j][v - i - 1].items():
                    m = head if s is None else ring.set_mul(head, s)
                    ends[m] = ends.get(m, 0) + c
                if any(map(is_bad, ends)):
                    break
                tested += sum(c * weight(m) for m, c in ends.items())
            factors.append(x)
            pre = head
        own, fields = witness(pre)
        return fails({"factors": factors, **fields}, space, tested + own)

    # (ii): a case per product escaping P, failing where its colon leaves
    # rad(P); (iii): a case per ideal a product absorbs, failing at `bad`
    clause_ii = clause(
        "v-multisets with product escaping P",
        lambda m: bool(m & notp),
        lambda m: bool(m & notp and facts[m][0] & ~radmask),
        lambda m: (1, {"colon": elems_of(facts[m][0])}),
    )
    clause_iii = clause(
        "v-multisets times hyperideals",
        lambda m: len(facts[m][1]),
        lambda m: facts[m][2] is not None,
        lambda m: (facts[m][2] + 1, {"ideal": elems_of(facts[m][1][facts[m][2]])}),
    )

    # (iv) products of v+1 proper hyperideals, aggregated like the element
    # deciders: remainder ideal must fall into rad(P).  The products depend
    # on neither P nor v: one memo per ring over tuples of indices into
    # `proper`, each folded from its prefix's product on first use, and
    # the folds keyed on (prefix product, ideal index), so tuples whose
    # prefixes have one product share them.  A split (Q, rest) can fail
    # only when Q escapes rad(P), so that is tested before rest's product
    # is read
    proper = lattice.proper()
    def build():
        fold = _Memo(lambda key: ring.set_mul(key[0], proper[key[1]]))
        iprod = _Memo(lambda idxs: fold[iprod[idxs[:-1]], idxs[-1]])
        iprod.update(((i,), m) for i, m in enumerate(proper))
        return iprod

    iprod = ring.memo("iprod", build)
    escapes = [bool(q & ~radmask) for q in proper]

    def clause_iv_witness(idxs: tuple) -> Optional[dict]:
        if mode is SplitMode.ANY:
            if any(not escapes[q] or not iprod[rest] & notp for (q,), rest in splits(idxs, 1)):
                return None
            return {"ideals": [elems_of(proper[i]) for i in idxs]}
        for (q,), rest in splits(idxs, 1):
            if escapes[q] and iprod[rest] & notp:
                return {"ideals": [elems_of(proper[i]) for i in rest], "last": elems_of(proper[q])}
        return None

    clause_iv = first_failure("(v+1)-multisets of proper hyperideals", (
        clause_iv_witness(idxs)
        for idxs in combinations_with_replacement(range(len(proper)), v + 1)
        if not iprod[idxs] & notp
    ))

    return CharacterizationReport(v, clause_i, clause_ii, clause_iii, clause_iv)


# -- divided rings ------------------------------------------------------------


def is_divided(ring: FiniteHyperring) -> Verdict:
    """Every prime hyperideal is comparable with every principal one:
    Q ⊆ <a> whenever a is outside the prime Q."""
    principal = cache(lambda a: generate(ring, 1 << a))
    return first_failure("primes vs principal hyperideals", (
        {"prime": elems_of(q), "a": a, "principal": elems_of(principal(a))} if q & ~principal(a) else None
        for q in enumerate_hyperideals(ring).primes()
        for a in range(ring.n)
        if not q >> a & 1
    ))
