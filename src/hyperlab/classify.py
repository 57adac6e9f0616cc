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
from functools import cache
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

from .core import FiniteHyperring, Mask, elems_of, iter_bits, subset
from .ideals import (
    HyperIdeal,
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
    if "msprod" not in ring._cache:
        prods = ring._cache["msprod"] = _Memo(lambda ms: ring.mul_elem(prods[ms[:-1]], ms[-1]))
        prods[()] = None
        prods.update(((a,), 1 << a) for a in range(ring.n))
    return ring._cache["msprod"]


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
    split (ALL).  `tested` counts the multisets meeting the hypothesis up
    to the witness, or in total for a holding pair, by popcounts of the
    packed hypothesis bits.  Products are read off `multiset_products`,
    the ring's one product memo, filled on first use.
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

    def target_bits(m: Mask) -> tuple[int, int, int]:
        """(v-part bits, remainder bits, hypothesis bits) of m: bit t of
        each is set where m ⊆ P, m ⊆ C, and m ⊆ P misses avoid, for target
        t.  A split is ok where its v-part bits or its remainder bits are
        set."""
        bp = bc = bh = 0
        for t, (pmask, concl, avoid, _) in enumerate(targets):
            if not m & ~pmask:
                bp |= 1 << t
                if not m & avoid:
                    bh |= 1 << t
            if not m & ~concl:
                bc |= 1 << t
        return bp, bc, bh

    bits = _Memo(target_bits)
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
        # open_[v]: the target bits of pairs with no witness yet, in every
        # slot; live: their union over v
        open_ = dict.fromkeys(vs, every * ones)
        live = every * ones
        found: dict[tuple[int, int], tuple[dict, int]] = {}
        # packed hypothesis bits of a prefix's grid -> prefixes seen
        counts: dict[int, int] = {}
        for head_at in combinations_with_replacement(range(size), u - 2):
            if not live:
                break
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
                live = 0
                for v in vs:
                    live |= open_[v]
        for t, (verdicts, target) in enumerate(zip(out, targets)):
            total = sum(c * (g >> t & ones).bit_count() for g, c in counts.items())
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
    ip = ideal_product(ring, imask, pmask).mask
    verdict = _uv_one(ring, (pmask, radmask, ip, "absorbing-i-primary"), uv, mode)
    verdict.extra["ideal_product"] = elems_of(ip)
    return verdict


def _triple_table(ring: FiniteHyperring) -> tuple[list[int], list[Mask]]:
    """The nonunits and, for every nondecreasing triple of them in
    canonical order, its product mask x∘y∘z, folded from `ring.hmul` alone;
    built once per ring.  A product of two is one `hmul` cell, so the table
    holds no pair products."""
    if "triples" not in ring._cache:
        hm = ring.hmul
        nonunits = elems_of(ring.unit_report().nonunits)
        totals = []
        for a, b, c in combinations_with_replacement(nonunits, 3):
            total = 0
            for e in iter_bits(hm[a][b]):
                total |= hm[e][c]
            totals.append(total)
        ring._cache["triples"] = (nonunits, totals)
    return ring._cache["triples"]


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
    nonunits, totals = _triple_table(ring)
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
    if v < 1:
        raise ParameterError("v must be >= 1")
    _require_proper(ring, pmask)
    uv = UVParams(v + 1, v)
    lattice = enumerate_hyperideals(ring)
    nonunits = elems_of(ring.unit_report().nonunits)
    prods = multiset_products(ring)
    notp = ~pmask

    if clause_i is None:
        clause_i = is_uv_absorbing_primary(ring, pmask, radmask, uv, mode=mode)

    # (ii) every colon by a v-product that escapes P stays inside rad(P)
    def clause_ii_cases():
        colons: dict[Mask, Mask] = {}
        for ms in combinations_with_replacement(nonunits, v):
            pm = prods[ms]
            if not pm & notp:
                continue
            if pm not in colons:
                colons[pm] = colon(ring, pmask, pm)
            yield {"factors": list(ms), "colon": elems_of(colons[pm])} if colons[pm] & ~radmask else None

    clause_ii = first_failure("v-multisets with product escaping P", clause_ii_cases())

    # (iii) product ∘ Q ⊆ P forces the product into P or Q into rad(P)
    def clause_iii_cases():
        absorbed: dict[Mask, list[HyperIdeal]] = {}
        for ms in combinations_with_replacement(nonunits, v):
            pm = prods[ms]
            if pm not in absorbed:
                absorbed[pm] = [q for q in lattice.ideals if not ring.set_mul(pm, q.mask) & notp]
            for q in absorbed[pm]:
                yield {"factors": list(ms), "ideal": q.members()} if pm & notp and q.mask & ~radmask else None

    clause_iii = first_failure("v-multisets times hyperideals", clause_iii_cases())

    # (iv) products of v+1 proper hyperideals, aggregated like the element
    # deciders: remainder ideal must fall into rad(P).  The products depend
    # on neither P nor v: one memo per ring over tuples of indices into
    # `proper`, each folded from its prefix's product on first use
    proper = [b.mask for b in lattice.proper()]
    if "iprod" not in ring._cache:
        iprod = ring._cache["iprod"] = _Memo(lambda idxs: ring.set_mul(iprod[idxs[:-1]], proper[idxs[-1]]))
        iprod.update(((i,), m) for i, m in enumerate(proper))
    iprod = ring._cache["iprod"]

    def clause_iv_witness(idxs: tuple) -> Optional[dict]:
        if mode is SplitMode.ANY:
            if any(not iprod[rest] & notp or subset(proper[q], radmask) for (q,), rest in splits(idxs, 1)):
                return None
            return {"ideals": [elems_of(proper[i]) for i in idxs]}
        for (q,), rest in splits(idxs, 1):
            if iprod[rest] & notp and proper[q] & ~radmask:
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
    principal = cache(lambda a: generate(ring, 1 << a).mask)
    return first_failure("primes vs principal hyperideals", (
        {"prime": q.members(), "a": a, "principal": elems_of(principal(a))} if q.mask & ~principal(a) else None
        for q in enumerate_hyperideals(ring).primes()
        for a in range(ring.n)
        if a not in q
    ))
