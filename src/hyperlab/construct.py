"""Derived hyperrings: quotients A/P, the 2x2 matrix hyperring M_2(A),
localizations S^{-1}A, and transfer of classifications along good
homomorphisms.

Every construction validates its output with `require_valid`, where a
table equal to its base's (the quotient by {0}) takes the base's
validation report, and checks the map it comes with by `require_good_hom`.
Where the underlying theory asserts well-definedness (quotient products
on cosets, localization operations on equivalence classes), this module
checks it per instance and raises ConstructionError with a witness
instead of assuming it.  The quotient's coset products are checked once,
as the multiplicative law of its projection (check_good_hom).  The one
case decided by proof instead is a localization with 0 in S over a table
whose 0 absorbs (0∘x = {0} for every x): every pair is related, so S^{-1}A
is the one-element ring, returned without building the relation and
still passed through both checks.

M_2(A) is built only for carriers of at most 64 elements, and over every
Z_n/Φ ring its product is not commutative, so it is refused there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product as cartesian
from typing import Optional

from .core import FiniteHyperring, Mask, elems_of, image, iter_bits, subset
from .ideals import enumerate_hyperideals, is_hyperideal
from .verdicts import ConstructionError, ResourceError, UsageError


# -- good homomorphisms -------------------------------------------------------


@dataclass
class GoodHom:
    """A total map between hyperrings that respects + exactly and ∘ setwise."""

    source: FiniteHyperring
    target: FiniteHyperring
    mapping: tuple[int, ...]

    def image_mask(self, mask: Mask) -> Mask:
        return image(mask, self.mapping)

    def preimage_mask(self, mask: Mask) -> Mask:
        out = 0
        for x in range(self.source.n):
            if mask >> self.mapping[x] & 1:
                out |= 1 << x
        return out


def check_good_hom(hom: GoodHom) -> list[dict]:
    """Exhaustive check of both homomorphism laws; returns failures."""
    src, tgt, f = hom.source, hom.target, hom.mapping
    if len(f) != src.n or any(not 0 <= y < tgt.n for y in f):
        raise UsageError("mapping must send the source carrier into the target")
    failures = []
    for x in range(src.n):
        for y in range(x, src.n):
            if f[src.add[x][y]] != tgt.add[f[x]][f[y]]:
                failures.append({"law": "additive", "x": x, "y": y})
            if hom.image_mask(src.hmul[x][y]) != tgt.hmul[f[x]][f[y]]:
                failures.append({"law": "multiplicative", "x": x, "y": y})
    return failures


def require_valid(ring: FiniteHyperring, base: FiniteHyperring, message: str) -> None:
    """ConstructionError with `message` and the failed axioms unless `ring`,
    built from `base`, validates; a table equal to the base's takes its report."""
    report = base.validate() if ring.table_key() == base.table_key() else ring.validate()
    if not report.ok:
        raise ConstructionError(message, witness=[f.describe() for f in report.failures])


def require_good_hom(hom: GoodHom, message: str) -> None:
    """ConstructionError with `message` and the failures unless both laws hold."""
    bad = check_good_hom(hom)
    if bad:
        raise ConstructionError(message, witness=bad)


def nonunit_preservation_witness(hom: GoodHom) -> Optional[int]:
    """An x nonunit in the source whose image is a unit in the target, if any."""
    src_nonunits = hom.source.unit_report().nonunits
    tgt_units = hom.target.unit_report().units
    for x in iter_bits(src_nonunits):
        if tgt_units >> hom.mapping[x] & 1:
            return x
    return None


# -- quotient -----------------------------------------------------------------


def quotient(ring: FiniteHyperring, pmask: Mask) -> tuple[FiniteHyperring, GoodHom]:
    """A/P on additive cosets, with a ∘ b read off representatives.

    Well-definedness of the coset product is verified over every element
    pair, not just representatives: the projection's multiplicative law
    compares the projection of x ∘ y with the coset product for every
    pair, after the quotient table has been validated.
    """
    if pmask == ring.full_mask:
        raise UsageError("cannot quotient by the full carrier")
    if not is_hyperideal(ring, pmask):
        raise UsageError("quotient requires a hyperideal")
    n = ring.n
    coset_of = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if coset_of[a] >= 0:
            continue
        idx = len(reps)
        reps.append(a)
        for p in elems_of(pmask):
            coset_of[ring.add[a][p]] = idx
    qn = len(reps)
    qadd = [[coset_of[ring.add[reps[i]][reps[j]]] for j in range(qn)] for i in range(qn)]
    qhmul = [[image(ring.hmul[reps[i]][reps[j]], coset_of) for j in range(qn)] for i in range(qn)]
    q = FiniteHyperring(qn, qadd, qhmul, name=f"{ring.name or 'ring'}/({qn} cosets)")
    require_valid(q, ring, "quotient is not a hyperring")
    hom = GoodHom(ring, q, tuple(coset_of))
    require_good_hom(hom, "quotient projection is not a good homomorphism")
    return q, hom


# -- matrix hyperrings --------------------------------------------------------


def matrix_hyperring(ring: FiniteHyperring) -> FiniteHyperring:
    """Build M_2(A), carrier capped at 64 elements.  Entry (i,j) of a
    product ranges over the set-valued sum a_i0 ∘ b_0j + a_i1 ∘ b_1j; the
    product of two matrices is every matrix assembled from independent
    entry choices, flattened row-major.

    The entrywise formula is oriented, so the resulting table can fail to
    be commutative even over a commutative base (over every Z_n/Φ it
    does, exactly as for ordinary matrix algebras).  Such a table falls
    outside the commutative class this library models, so the build is
    refused with the first noncommuting pair as witness rather than
    forced into shape."""
    size = ring.n ** 4
    if size > 64:
        raise ResourceError(f"matrix carrier of {size} elements exceeds cap 64")
    elements = tuple(cartesian(range(ring.n), repeat=4))
    index = {mat: i for i, mat in enumerate(elements)}
    madd = [
        [index[tuple(ring.add[a][b] for a, b in zip(ma, mb))] for mb in elements]
        for ma in elements
    ]
    hm, sa = ring.hmul, ring.set_add
    mhmul = [[0] * size for _ in range(size)]
    for i, (a00, a01, a10, a11) in enumerate(elements):
        for j, (b00, b01, b10, b11) in enumerate(elements):
            sets = (
                sa(hm[a00][b00], hm[a01][b10]),
                sa(hm[a00][b01], hm[a01][b11]),
                sa(hm[a10][b00], hm[a11][b10]),
                sa(hm[a10][b01], hm[a11][b11]),
            )
            mask = 0
            for combo in cartesian(*map(elems_of, sets)):
                mask |= 1 << index[combo]
            mhmul[i][j] = mask
    for i in range(size):
        for j in range(i + 1, size):
            if mhmul[i][j] != mhmul[j][i]:
                raise ConstructionError(
                    "matrix product is not commutative over this base",
                    witness={
                        "kind": "noncommutative-product",
                        "pair": [list(elements[i]), list(elements[j])],
                        "left": [list(elements[k]) for k in iter_bits(mhmul[i][j])],
                        "right": [list(elements[k]) for k in iter_bits(mhmul[j][i])],
                    },
                )
    mring = FiniteHyperring(size, madd, mhmul, name=f"m2({ring.name or 'ring'})")
    require_valid(mring, ring, "matrix hyperring failed validation")
    return mring


# -- multiplicatively closed subsets and localization -------------------------


def is_mcs(ring: FiniteHyperring, smask: Mask) -> bool:
    """Contains an identity and is closed under hypermultiplication."""
    if not smask & ring.unit_report().identities:
        return False
    for s in iter_bits(smask):
        for t in iter_bits(smask):
            if t < s:
                continue
            if not subset(ring.hmul[s][t], smask):
                return False
    return True


def mcs_closure(ring: FiniteHyperring, seed: Mask) -> Mask:
    """Smallest hypermultiplication-closed superset of the seed."""
    cur = seed
    while True:
        grown = cur
        members = elems_of(cur)
        for i, s in enumerate(members):
            for t in members[i:]:
                grown |= ring.hmul[s][t]
        if grown == cur:
            return cur
        cur = grown


def canonical_mcs_list(ring: FiniteHyperring) -> list[Mask]:
    """Deterministic family of MCS instances: the closure of each identity,
    the unit set when it qualifies, and each prime complement that
    qualifies."""
    rep = ring.unit_report()
    found: set[Mask] = set()
    for e in elems_of(rep.identities):
        closure = mcs_closure(ring, 1 << e)
        if is_mcs(ring, closure):
            found.add(closure)
    if rep.units and is_mcs(ring, rep.units):
        found.add(rep.units)
    for q in enumerate_hyperideals(ring).primes():
        comp = ring.full_mask & ~q
        if comp and is_mcs(ring, comp):
            found.add(comp)
    return sorted(found)


@dataclass
class LocalizedRing:
    """S^{-1}A: equivalence classes of (numerator, denominator) pairs with
    the fraction operations, realized as a plain FiniteHyperring."""

    base: FiniteHyperring
    smask: Mask
    ring: FiniteHyperring
    pairs: tuple[tuple[int, int], ...]
    class_of: dict[tuple[int, int], int] = field(repr=False)
    one: int = 0  # identity of the base used for the localization map

    def localization_hom(self) -> GoodHom:
        return GoodHom(
            self.base, self.ring, tuple(self.class_of[(a, self.one)] for a in range(self.base.n))
        )

    def ideal_image(self, pmask: Mask) -> Mask:
        """S^{-1}P: classes of fractions with numerator in P."""
        out = 0
        for (x, r), c in self.class_of.items():
            if pmask >> x & 1:
                out |= 1 << c
        return out


def localize(ring: FiniteHyperring, smask: Mask) -> LocalizedRing:
    """Construct S^{-1}A, verifying the equivalence relation is transitive,
    fraction addition is single valued, and both operations are independent
    of representatives.  Any failure raises ConstructionError with the
    witnessing pairs.  With 0 in S and 0∘x = {0} for every x the result is
    the one-element ring, returned without the construction."""
    if not ring.has_identity:
        raise UsageError("localization requires an identity")
    if not is_mcs(ring, smask):
        raise UsageError("localization requires a multiplicatively closed set")
    s_elems = elems_of(smask)
    n, k = ring.n, len(s_elems)
    pairs = tuple((a, s) for a in range(n) for s in s_elems)
    hm = ring.hmul
    name = f"loc({ring.name or 'ring'},{k})"
    one = min(elems_of(smask & ring.unit_report().identities))
    zero = ring.zero
    # with 0 in S and 0∘x = {0} for every x, t = 0 gives 0∘r∘y = {0} =
    # 0∘s∘x, so every pair is related: S^{-1}A is the one-element ring
    if zero is not None and smask >> zero & 1 and all(m == 1 << zero for m in hm[zero]):
        loc = FiniteHyperring(1, [[0]], [[1]], name=name)
        return _checked_localization(LocalizedRing(ring, smask, loc, pairs, dict.fromkeys(pairs, 0), one))
    # (x, r) ~ (y, s) iff t∘r∘y == t∘s∘x for some t in S.  trip[t][r][y]
    # holds t∘r∘y, with t and r as indices into s_elems; many (t, r) share
    # the set t∘r, so its products with every y are made once per set
    products = cache(lambda m: tuple(ring.mul_elem(m, y) for y in range(n)))
    trip = [[products(hm[t][r]) for r in s_elems] for t in s_elems]
    # t enters the relation only through which entries of trip[t] are
    # equal, so of the t whose tables have one equality pattern (values
    # numbered in order of first occurrence) the first serves for all
    by_pattern = {}
    for table in trip:
        numbering = {}
        pattern = tuple(numbering.setdefault(value, len(numbering)) for values in table for value in values)
        by_pattern.setdefault(pattern, table)
    tables = list(by_pattern.values())
    # den_masks[t][x] maps each value t∘s∘x to the mask of the indices s
    # giving it
    den_masks = [[{} for _ in range(n)] for _ in tables]
    for table, by_x in zip(tables, den_masks):
        for s, values in enumerate(table):
            for by_value, value in zip(by_x, values):
                by_value[value] = by_value.get(value, 0) | 1 << s
    # rows[i]: bitmask of the pairs related to pairs[i].  Pair (y, s) is
    # bit y·k + s, so the row of (x, r) ORs den_masks[t][x][t∘r∘y] into
    # y's block, over every kept t and y
    rows = []
    for x in range(n):
        for r in range(k):
            row = 0
            for table, by_x in zip(tables, den_masks):
                by_value = by_x[x]
                for y, value in enumerate(table[r]):
                    row |= by_value.get(value, 0) << y * k
            rows.append(row)
    # transitive iff every related row is contained in its own row; a row
    # equal to one already checked passes as that one did
    checked = set()
    for i, row in enumerate(rows):
        if row in checked:
            continue
        checked.add(row)
        for j in iter_bits(row):
            extra = rows[j] & ~row
            if extra:
                raise ConstructionError(
                    "localization relation is not transitive",
                    witness={"p1": pairs[i], "p2": pairs[j], "p3": pairs[(extra & -extra).bit_length() - 1]},
                )
    class_of: dict[tuple[int, int], int] = {}
    class_members: list[list[tuple[int, int]]] = []
    for i, p in enumerate(pairs):
        if p in class_of:
            continue
        bucket = [pairs[j] for j in iter_bits(rows[i])]
        for q in bucket:
            class_of[q] = len(class_members)
        class_members.append(bucket)
    qn = len(class_members)

    # memos for this call only: fraction_classes and fraction_ops read this
    # relation's class_of
    numerators = cache(ring.set_add)

    @cache
    def fraction_classes(nums: Mask, dens: Mask) -> Mask:
        """Classes of the fractions a/c for a in nums and c in dens."""
        out = 0
        for a in iter_bits(nums):
            for c in iter_bits(dens):
                out |= 1 << class_of[(a, c)]
        return out

    @cache
    def fraction_ops(ry: Mask, sx: Mask, rs: Mask, xy: Mask) -> tuple[Mask, Mask]:
        """Classes of x/r + y/s and of x/r ∘ y/s, read from the four cells
        r∘y, s∘x, r∘s and x∘y that decide them."""
        return fraction_classes(numerators(ry, sx), rs), fraction_classes(xy, rs)

    qadd = [[0] * qn for _ in range(qn)]
    qhmul = [[0] * qn for _ in range(qn)]
    for ci in range(qn):
        for cj in range(ci, qn):
            ref = None
            for x, r in class_members[ci]:
                for y, s in class_members[cj]:
                    got = fraction_ops(hm[r][y], hm[s][x], hm[r][s], hm[x][y])
                    if ref is None:
                        ref = got
                    elif got != ref:
                        raise ConstructionError(
                            "fraction operations depend on representatives",
                            witness={"class_pair": (ci, cj), "p1": (x, r), "p2": (y, s)},
                        )
            ref_add, ref_mul = ref
            if bin(ref_add).count("1") != 1:
                raise ConstructionError(
                    "fraction addition is not single valued",
                    witness={"class_pair": (ci, cj), "classes": elems_of(ref_add)},
                )
            qadd[ci][cj] = qadd[cj][ci] = ref_add.bit_length() - 1
            qhmul[ci][cj] = qhmul[cj][ci] = ref_mul
    return _checked_localization(LocalizedRing(ring, smask, FiniteHyperring(qn, qadd, qhmul, name=name), pairs, class_of, one))


def _checked_localization(loc: LocalizedRing) -> LocalizedRing:
    """`loc`, once its ring validates and its localization map is a good
    homomorphism; ConstructionError otherwise."""
    require_valid(loc.ring, loc.base, "localized ring failed validation")
    require_good_hom(loc.localization_hom(), "localization map is not a good homomorphism")
    return loc


def gamma_mask(ring: FiniteHyperring, pmask: Mask) -> Mask:
    """Elements a with a ∘ b ⊆ P for some b outside P."""
    out = 0
    notp = ring.full_mask & ~pmask
    for a in range(ring.n):
        row = ring.hmul[a]
        if any(subset(row[b], pmask) for b in iter_bits(notp)):
            out |= 1 << a
    return out
