"""Sweep harness: enumerates families of Z_n-based hyperrings, computes
classification facts for every hyperideal, asserts the theorem suite, and
replays the library's worked integer examples.

Reports are deterministic: rings, ideals, and checks are visited in a
fixed canonical order, and structured records omit timing data unless the
report is made with `timings`.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cache, cached_property, wraps
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple, Optional, Sequence

from . import classify, construct, ideals as ideals_mod, zphi
from .core import FiniteHyperring, Mask, elems_of, iter_bits, subset
from .ideals import (
    colon,
    enumerate_hyperideals,
    ideal_product,
    radical_nilpotent,
    radical_prime_intersection,
)
from .verdicts import (
    ERROR,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    SKIPPED,
    ConstructionError,
    ResourceError,
    SplitMode,
    UsageError,
    UVParams,
    Verdict,
    decided,
    fails,
    first_failure,
    holds,
    judged,
    refused,
    skipped,
)

BUDGET_EXCEEDED = "multiset budget exceeded"


# -- configuration and reports -------------------------------------------------


@dataclass
class RingFamilySpec:
    """The enumerated family: Z_n with the hyperproduct induced by every
    Phi drawn from the residue universe, deduplicated by the induced
    table."""

    moduli: tuple[int, ...] = tuple(range(2, 13))
    phi_sizes: tuple[int, ...] = (2, 3)
    phi_universe: Optional[tuple[int, ...]] = None  # default: all residues mod n
    u_max: int = 5
    # The theorem suite quantifies splits universally (every v-part must
    # satisfy the disjunction).  The existential reading is what the worked
    # integer examples use; under it some suite statements have finite
    # counterexamples, so it is opt-in here.
    mode: SplitMode = SplitMode.ALL
    tuple_budget: int = 10_000_000  # multisets scanned per ring before bailing
    include_constructions: bool = True

    def __post_init__(self):
        if any(n < 2 for n in self.moduli):
            raise UsageError("moduli must be at least 2")
        if any(k < 2 for k in self.phi_sizes):
            raise UsageError("phi_sizes must be at least 2")
        if self.u_max < 2:
            raise UsageError("u_max must be at least 2")
        if self.tuple_budget < 1:
            raise UsageError("tuple_budget must be at least 1")


@dataclass
class Report:
    """The records of one run, in the order they were added.

    With `timings`, each record gets `millis`: the whole milliseconds since
    the previous record, or since the report was made.  The sub-millisecond
    remainder is carried to the next record, so a report's stamps add up to
    its elapsed time.  Work done before a row, such as building a ring's
    context, is booked to that row."""

    records: list[dict] = field(default_factory=list)
    incomplete: bool = False
    timings: bool = False
    _since_ns: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._since_ns = time.perf_counter_ns()

    def add_verdict(self, ring: str, ideal: Optional[list[int]], prop: str, params: dict, verdict: Verdict) -> dict:
        """Add the verdict's row, the only way a row is written: its params
        are `params`, then `tested`, then the verdict's extra keys.  A row
        skipped for the budget marks the report incomplete."""
        if verdict.status == SKIPPED and verdict.extra.get("reason") == BUDGET_EXCEEDED:
            self.incomplete = True
        merged = dict(params)
        merged["tested"] = verdict.tested
        for k, v in verdict.extra.items():
            merged.setdefault(k, v)
        rec = {
            "ring": ring,
            "ideal": ideal,
            "property": prop,
            "params": merged,
            "status": verdict.status,
            "witness": verdict.witness,
            "space": verdict.checked_space,
        }
        if self.timings:
            millis = (time.perf_counter_ns() - self._since_ns) // 1_000_000
            self._since_ns += millis * 1_000_000
            rec["millis"] = millis
        self.records.append(rec)
        return rec

    def count(self, status: str, tested: Optional[int] = None) -> int:
        """The rows with `status`, and with `tested` cases when it is given."""
        return sum(
            r["status"] == status and (tested is None or r["params"].get("tested") == tested) for r in self.records
        )

    violations = property(lambda self: self.count(FAILS))
    skipped = property(lambda self: self.count(SKIPPED))
    errors = property(lambda self: self.count(ERROR))
    vacuous = property(lambda self: self.count(HOLDS, tested=0))

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=False) for r in self.records)

    def summary(self) -> str:
        return (
            f"records={len(self.records)} violations={self.violations} errors={self.errors} "
            f"skipped={self.skipped} vacuous={self.vacuous} incomplete={self.incomplete}"
        )


# -- family enumeration ---------------------------------------------------------


def enumerate_family(spec: RingFamilySpec) -> list[FiniteHyperring]:
    """All Z_n/Phi rings in the configured family, deduplicated by
    hypermultiplication table, in canonical (n, Phi) order."""
    rings = []
    seen: set[bytes] = set()
    for n in spec.moduli:
        universe = spec.phi_universe if spec.phi_universe is not None else tuple(range(n))
        residues = sorted({c % n for c in universe})
        for size in spec.phi_sizes:
            for phi in combinations(residues, size):
                ring = FiniteHyperring.zn_phi(n, phi)
                key = ring.table_key()
                if key in seen:
                    continue
                seen.add(key)
                rings.append(ring)
    return rings


# -- per-ideal facts and the shared (u,v) scan ----------------------------------


@dataclass
class IdealFacts:
    mask: Mask
    rad_nil: Mask
    rad_pi: Mask
    prime: bool
    c: Verdict
    sc: Verdict
    primary: Verdict
    one_abs: Verdict
    uv_primary: dict[tuple[int, int], Verdict] = field(default_factory=dict)
    uv_prime: dict[tuple[int, int], Verdict] = field(default_factory=dict)


def uv_pairs(u_max: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(2, u_max + 1) for v in range(1, u)]


def compute_uv_matrices(
    ring: FiniteHyperring,
    targets: Sequence[tuple[Mask, Mask]],
    u_max: int,
    mode: SplitMode,
) -> tuple[list[dict], list[dict]]:
    """Every (ideal, u, v) pair for u = 2..u_max over the nonunit pool, in
    the primary and the prime reading, from one `classify.uv_scan` call
    over the (P, rad(P)) targets followed by the (P, P) ones.
    tests/test_uv_kernel.py checks every entry against the one-target
    deciders, field for field, and against a literal reference decider."""
    pool = elems_of(ring.unit_report().nonunits)
    primary = [(p, r, 0, "absorbing-primary") for p, r in targets]
    prime = [(p, p, 0, "absorbing-prime") for p, _ in targets]
    rows = classify.uv_scan(ring, primary + prime, uv_pairs(u_max), mode, pool)
    return rows[: len(targets)], rows[len(targets) :]


@dataclass
class RingContext:
    ring: FiniteHyperring
    spec: RingFamilySpec
    lattice: object = None
    facts: list[IdealFacts] = field(default_factory=list)
    by_mask: dict[Mask, IdealFacts] = field(default_factory=dict)
    divided: Optional[Verdict] = None

    def find(self, mask: Mask) -> Optional[IdealFacts]:
        return self.by_mask.get(mask)

    @cached_property
    def full_pool_uv(self) -> dict[Mask, dict]:
        """(u,v)-absorbing primary verdicts over the whole carrier, keyed by
        ideal mask, for every ideal that meets the premises of
        check_strong_c_unit_padding: one kernel call per ring, made when the
        first such ideal is checked."""
        premises = check_strong_c_unit_padding.premises
        checked = [f for f in self.facts if all(p.test(self, f) for p in premises)]
        rows = classify.uv_scan(
            self.ring,
            [(f.mask, f.rad_nil, 0, "absorbing-primary") for f in checked],
            uv_pairs(self.spec.u_max),
            self.spec.mode,
            range(self.ring.n),
        )
        return {f.mask: m for f, m in zip(checked, rows)}


def estimated_multisets(pool_size: int, u_max: int) -> int:
    return sum(comb(pool_size + u - 1, u) for u in range(2, u_max + 1))


def build_ring_context(ring: FiniteHyperring, spec: RingFamilySpec) -> RingContext:
    ctx = RingContext(ring, spec)
    ctx.lattice = enumerate_hyperideals(ring)
    pairs = [(b, p) for b, p in zip(ctx.lattice.ideals, ctx.lattice.prime) if b != ring.full_mask]
    proper = [b for b, _ in pairs]
    rads = [radical_nilpotent(ring, b) for b in proper]
    targets = list(zip(proper, rads))
    mat_p, mat_q = compute_uv_matrices(ring, targets, spec.u_max, spec.mode)
    for i, b in enumerate(proper):
        f = IdealFacts(
            mask=b,
            rad_nil=rads[i],
            rad_pi=radical_prime_intersection(ring, b),
            prime=pairs[i][1],
            c=ideals_mod.is_c_hyperideal(ring, b),
            sc=ideals_mod.is_strong_c_hyperideal(ring, b),
            primary=classify.is_primary(ring, b, rads[i]),
            one_abs=classify.is_1_absorbing_primary(ring, b, rads[i], mode=spec.mode),
            uv_primary=mat_p[i],
            uv_prime=mat_q[i],
        )
        ctx.facts.append(f)
        ctx.by_mask[b] = f
    ctx.divided = classify.is_divided(ring)
    return ctx


def derived_context(ctx: RingContext, ring: FiniteHyperring) -> RingContext:
    """The context of a ring derived from ctx.ring.  A derived ring whose
    table is its parent's (the quotient by {0}) reuses the parent's context:
    transfer checks read only `.facts` and `.find()`, never `.ring.name`."""
    return ctx if ring.table_key() == ctx.ring.table_key() else build_ring_context(ring, ctx.spec)


# -- theorem checks --------------------------------------------------------------


class Premise(NamedTuple):
    """A hypothesis of a theorem check, met where `test(ctx, f)` is true.
    Where it is not, the check's row is `skipped` for `reason` if one is
    given, else a gated `holds` that tested nothing; `space` names it."""

    space: str
    test: Callable[[RingContext, IdealFacts], bool]
    reason: Optional[str] = None

    def unmet(self) -> Verdict:
        return skipped(self.reason, space=self.space) if self.reason else holds(space=self.space, tested=0)


IDENTITY = Premise("standing identity hypothesis", lambda ctx, f: ctx.ring.has_identity, "ring has no identity")
C = Premise("gated on C-hyperideals", lambda ctx, f: f.c.holds)
STRONG_C = Premise("gated on strong C", lambda ctx, f: f.sc.holds)
NONLOCAL_STRONG_C = Premise("gated on nonlocal ring and strong C", lambda ctx, f: not ctx.lattice.local and f.sc.holds)


def premised(*premises: Premise):
    """Make a theorem check of its conclusion: the check writes the row of
    its first unmet premise, in the order given, and runs the conclusion
    only when every premise is met.  The check keeps the conclusion's name
    and exposes `premises` and the conclusion as `__wrapped__`."""
    def attach(conclusion):
        @wraps(conclusion)
        def check(ctx: RingContext, f: IdealFacts) -> Verdict:
            for premise in premises:
                if not premise.test(ctx, f):
                    return premise.unmet()
            return conclusion(ctx, f)

        check.premises = premises
        return check

    return attach


@premised(IDENTITY, C, Premise("gated on some (u,v) holding", lambda ctx, f: any(v.holds for v in f.uv_primary.values())))
def check_radical_of_uv_primary_is_prime(ctx: RingContext, f: IdealFacts) -> Verdict:
    """A C-hyperideal that is (u,v)-absorbing primary for some u > v must
    have a prime radical.

    Stated for rings with an identity; without one the radical of a proper
    hyperideal can be the full carrier: on z4:0,2 the ideal {0,2} is
    (u,v)-absorbing primary and its radical is {0,1,2,3}."""
    holding = [list(k) for k, v in f.uv_primary.items() if v.holds]
    rad = f.rad_nil
    full = rad == ctx.ring.full_mask
    target = None if full else ctx.find(rad)
    witness = (
        {"radical": "full carrier", "holding": holding} if full
        else {"radical": elems_of(rad), "defect": "not a hyperideal"} if target is None
        else {"radical": elems_of(rad), "defect": "not prime", "holding": holding}
    )
    return decided(target is not None and target.prime, witness, "radical primality", len(holding))


@premised()
def check_uv_arity_monotone(ctx: RingContext, f: IdealFacts) -> Verdict:
    """holds(u,v) must propagate to (u+1,v+1) and to (w,v) for w up to u+3
    within the scan cap."""
    u_max = ctx.spec.u_max

    def cases():
        for (u, v), verdict in f.uv_primary.items():
            if not verdict.holds:
                continue
            for uv2 in [(u + 1, v + 1)] + [(w, v) for w in range(u + 1, min(u + 3, u_max) + 1)]:
                if uv2[0] <= u_max:
                    to = f.uv_primary[uv2]
                    yield None if to.holds else {"from": [u, v], "to": list(uv2), "witness": to.witness}

    return first_failure("arity monotonicity", cases())


@premised()
def check_uv_prime_implies_primary(ctx: RingContext, f: IdealFacts) -> Verdict:
    return first_failure("prime strengthens primary", (
        None if f.uv_primary[uv].holds else {"at": list(uv), "witness": f.uv_primary[uv].witness}
        for uv, verdict in f.uv_prime.items()
        if verdict.holds
    ))


def _all_uv_hold(space: str, uv_primary: dict, **head) -> Verdict:
    """Every (u,v) verdict holds; a failure is reported with `head` first."""
    return first_failure(space, (
        None if verdict.holds else {**head, "at": list(uv), "witness": verdict.witness}
        for uv, verdict in uv_primary.items()
    ))


@premised(Premise("gated on primary", lambda ctx, f: f.primary.holds))
def check_primary_implies_uv(ctx: RingContext, f: IdealFacts) -> Verdict:
    return _all_uv_hold("primary implies every (u,v)", f.uv_primary)


@premised(Premise("needs u_max >= 3", lambda ctx, f: (3, 2) in f.uv_primary))
def check_one_absorbing_matches(ctx: RingContext, f: IdealFacts) -> Verdict:
    a, b = f.one_abs, f.uv_primary[(3, 2)]
    return decided(
        a.holds == b.holds,
        {"triple_loop": a.status, "pair_scan": b.status, "witnesses": [a.witness, b.witness]},
        "triple loop vs (3,2) scan",
    )


@premised(IDENTITY)
def check_colon_drops_arity(ctx: RingContext, f: IdealFacts) -> Verdict:
    """(P : x) for a nonunit x outside P inherits the property one arity
    lower.

    Stated for rings with an identity: there e ∘ x ⊆ P forces x into P, so
    the colon by an outside element stays proper.  Without an identity the
    colon can absorb the whole carrier: on z4:0,2 the colon of {0} by 2 is
    {0,1,2,3}."""
    ring = ctx.ring
    pool = elems_of(ring.unit_report().nonunits & ~f.mask)
    colon_by = cache(lambda x: colon(ring, f.mask, 1 << x))

    def cases():
        for (u, v), verdict in f.uv_primary.items():
            if v < 2 or not verdict.holds:
                continue
            for x in pool:
                cmask = colon_by(x)
                target = ctx.find(cmask)
                if target is None:
                    defect = "full carrier" if cmask == ring.full_mask else "not a hyperideal"
                    yield {"x": x, "colon": elems_of(cmask), "defect": defect, "from": [u, v]}
                    continue
                inner = target.uv_primary[(u - 1, v - 1)]
                yield None if inner.holds else {
                    "x": x, "colon": elems_of(cmask), "from": [u, v], "witness": inner.witness
                }

    return first_failure("colon arity descent", cases())


@premised(Premise(
    "gated on local ring and prime C-hyperideal", lambda ctx, f: ctx.lattice.local and f.prime and f.c.holds
))
def check_prime_times_maximal(ctx: RingContext, f: IdealFacts) -> Verdict:
    """In a local ring, a prime C-hyperideal times the maximal hyperideal
    is (u,v)-absorbing primary for every u > v."""
    mmask = ctx.lattice.maximals()[0]
    pm = ideal_product(ctx.ring, f.mask, mmask)
    target = ctx.find(pm)
    if target is None:
        return fails(
            {"product": elems_of(pm), "defect": "not a proper hyperideal"},
            space="prime times maximal",
            tested=1,
        )
    return _all_uv_hold("prime times maximal", target.uv_primary, product=elems_of(pm))


@premised(STRONG_C)
def check_strong_c_radical(ctx: RingContext, f: IdealFacts) -> Verdict:
    """The radical of a strong C-hyperideal is strong C."""
    rad = f.rad_nil
    inner = ideals_mod.is_strong_c_hyperideal(ctx.ring, rad) if ideals_mod.is_subgroup(ctx.ring, rad) else None
    return decided(
        inner is not None and inner.holds,
        {"radical": elems_of(rad), "defect": "not a subgroup"} if inner is None
        else {"radical": elems_of(rad), "witness": inner.witness},
        "strong C closure of radical",
    )


def _a_plus_one_nonunit(ctx: RingContext, f: IdealFacts) -> bool:
    """Some a in P and identity e have a+e a nonunit."""
    ring = ctx.ring
    rep = ring.unit_report()
    return any(rep.nonunits >> ring.add[a][e] & 1 for e in iter_bits(rep.identities) for a in iter_bits(f.mask))


@premised(
    Premise("gated on strong C and an identity", lambda ctx, f: f.sc.holds and ctx.ring.has_identity),
    Premise("gated on a+1 nonunit for some a in P", _a_plus_one_nonunit),
)
def check_strong_c_unit_padding(ctx: RingContext, f: IdealFacts) -> Verdict:
    """For a strong C-hyperideal containing some a with a+1 a nonunit, the
    (u,v) condition quantified over nonunits is equivalent to the same
    condition quantified over the whole carrier."""
    budget = ctx.spec.tuple_budget
    if estimated_multisets(ctx.ring.n, ctx.spec.u_max) > budget:
        return skipped(BUDGET_EXCEEDED, space=f"full-carrier scan over tuple budget {budget}")
    full_pool = ctx.full_pool_uv[f.mask]

    def cases():
        for (u, v), narrow in f.uv_primary.items():
            wide = full_pool[(u, v)]
            yield None if narrow.holds == wide.holds else {
                "at": [u, v],
                "nonunit_pool": narrow.status,
                "full_pool": wide.status,
                "witness": wide.witness or narrow.witness,
            }

    return first_failure("unit padding equivalence", cases())


@premised(IDENTITY, NONLOCAL_STRONG_C)
def check_nonlocal_arity_descent(ctx: RingContext, f: IdealFacts) -> Verdict:
    """If the ring is not local, (u+1,v+1) or (u+1,v) forces (u,v) for
    strong C-hyperideals.  Without an identity this fails on the nonlocal
    z12:2,8, whose {0,6} is (3,2)- but not (2,1)-absorbing primary."""
    return first_failure("nonlocal arity descent", (
        None if f.uv_primary[(u, v)].holds else {
            "premise": list(premise), "conclusion": [u, v], "witness": f.uv_primary[(u, v)].witness
        }
        for u, v in uv_pairs(ctx.spec.u_max - 1)
        for premise in ((u + 1, v + 1), (u + 1, v))
        if f.uv_primary[premise].holds
    ))


def _uv_matches_primary(space: str, f: IdealFacts, v_min: int) -> Verdict:
    """Each (u,v) verdict with v >= v_min agrees with the primary one."""
    return first_failure(space, (
        None if verdict.holds == f.primary.holds else {
            "at": [u, v],
            "uv_status": verdict.status,
            "primary_status": f.primary.status,
            "witness": verdict.witness or f.primary.witness,
        }
        for (u, v), verdict in f.uv_primary.items()
        if v >= v_min
    ))


@premised(IDENTITY, NONLOCAL_STRONG_C)
def check_nonlocal_equals_primary(ctx: RingContext, f: IdealFacts) -> Verdict:
    """Nonlocal ring, strong C-hyperideal, v >= 2: (u,v)-absorbing primary
    is the same as primary.  Without an identity this fails on z12:2,8,
    whose {0,6} is (3,2)-absorbing primary but not primary."""
    return _uv_matches_primary("nonlocal equivalence with primary", f, 2)


@premised(STRONG_C)
def check_arity_gap_forces_local(ctx: RingContext, f: IdealFacts) -> Verdict:
    """A strong C-hyperideal that is (u+1,v)- but not (u,v)-absorbing
    primary forces a local ring whose maximal hyperideal is the radical."""
    def cases():
        for u, v in uv_pairs(ctx.spec.u_max - 1):
            if not (f.uv_primary[(u + 1, v)].holds and not f.uv_primary[(u, v)].holds):
                continue
            if not ctx.lattice.local:
                yield {"premise": [u + 1, v], "gap_at": [u, v], "defect": "ring not local"}
                continue
            mmask = ctx.lattice.maximals()[0]
            yield None if f.rad_nil == mmask else {
                "premise": [u + 1, v],
                "gap_at": [u, v],
                "radical": elems_of(f.rad_nil),
                "maximal": elems_of(mmask),
            }

    return first_failure("arity gap forces local", cases())


@premised(C)
def check_top_arity_four_way(ctx: RingContext, f: IdealFacts) -> Verdict:
    """The four faces of the (v+1,v) property must agree on C-hyperideals."""
    def cases():
        for v in range(1, ctx.spec.u_max):
            rep = classify.check_v1v_characterization(
                ctx.ring, f.mask, f.rad_nil, v, mode=ctx.spec.mode, clause_i=f.uv_primary[(v + 1, v)]
            )
            yield None if rep.equivalent else {
                "v": v,
                "booleans": list(rep.booleans()),
                "witnesses": [rep.i.witness, rep.ii.witness, rep.iii.witness, rep.iv.witness],
            }

    return first_failure("four-way characterization", cases())


@premised(Premise("gated on divided ring and C-hyperideal", lambda ctx, f: ctx.divided.holds and f.c.holds))
def check_divided_equals_primary(ctx: RingContext, f: IdealFacts) -> Verdict:
    """In a divided ring, (u,v)-absorbing primary C-hyperideals are exactly
    the primary ones."""
    return _uv_matches_primary("divided equivalence with primary", f, 1)


@premised(C)
def check_radical_forms_agree(ctx: RingContext, f: IdealFacts) -> Verdict:
    """On C-hyperideals the nilpotent radical equals the prime-intersection
    radical."""
    return decided(
        f.rad_nil == f.rad_pi,
        {"nilpotent": elems_of(f.rad_nil), "prime_intersection": elems_of(f.rad_pi)},
        "radical form agreement",
    )


IDEAL_CHECKS: list[tuple[str, Callable[[RingContext, IdealFacts], Verdict]]] = [
    ("radical-of-uv-primary-is-prime", check_radical_of_uv_primary_is_prime),
    ("uv-arity-monotone", check_uv_arity_monotone),
    ("uv-prime-implies-uv-primary", check_uv_prime_implies_primary),
    ("primary-implies-uv-primary", check_primary_implies_uv),
    ("one-absorbing-primary-matches-3-2", check_one_absorbing_matches),
    ("colon-by-nonunit-drops-arity", check_colon_drops_arity),
    ("prime-times-maximal-is-uv-primary", check_prime_times_maximal),
    ("strong-c-radical-is-strong-c", check_strong_c_radical),
    ("strong-c-unit-padding", check_strong_c_unit_padding),
    ("nonlocal-arity-descent", check_nonlocal_arity_descent),
    ("nonlocal-uv-primary-equals-primary", check_nonlocal_equals_primary),
    ("arity-gap-forces-local-with-maximal-radical", check_arity_gap_forces_local),
    ("top-arity-four-way-agreement", check_top_arity_four_way),
    ("divided-ring-uv-primary-equals-primary", check_divided_equals_primary),
    ("radical-forms-agree-on-c-hyperideal", check_radical_forms_agree),
]


def check_equal_radical_intersections(ctx: RingContext, report: Report) -> None:
    """Pairs of (u,v)-absorbing primary C-hyperideals with equal radicals:
    the intersection keeps the property."""
    for i, f1 in enumerate(ctx.facts):
        for f2 in ctx.facts[i + 1 :]:
            if not (f1.c.holds and f2.c.holds and f1.rad_nil == f2.rad_nil):
                continue
            inter = f1.mask & f2.mask
            target = ctx.find(inter)
            components = [elems_of(f1.mask), elems_of(f2.mask)]
            verdict = first_failure("equal-radical intersections", (
                {"components": components, "defect": "intersection not in lattice"} if target is None
                else None if target.uv_primary[uv].holds
                else {"components": components, "at": list(uv), "witness": target.uv_primary[uv].witness}
                for uv, v1 in f1.uv_primary.items()
                if v1.holds and f2.uv_primary[uv].holds
            ))
            report.add_verdict(
                ctx.ring.name,
                elems_of(inter),
                "equal-radical-intersection-stays-uv-primary",
                {"components": components},
                verdict,
            )


def record_radical_comparison_on_non_c(ctx: RingContext, report: Report) -> None:
    """For non-C hyperideals the two radical forms are compared and the
    outcome recorded without asserting equality."""
    for f in ctx.facts:
        if f.c.holds:
            continue
        report.add_verdict(ctx.ring.name, elems_of(f.mask), "radical-forms-compared", {}, holds(
            "non-C radical comparison, no assertion",
            1,
            nilpotent=elems_of(f.rad_nil),
            prime_intersection=elems_of(f.rad_pi),
            equal=f.rad_nil == f.rad_pi,
        ))


# -- construction checks ----------------------------------------------------------


def _hom_transfer(side: str, g: IdealFacts, mask: Mask, target: Optional[IdealFacts]) -> Verdict:
    """g carried across the quotient projection to the ideal `mask` (its
    "image" or "preimage"): wherever g is (u,v)-absorbing primary, the
    target must be a C-hyperideal that is too."""
    return first_failure(f"{side} transfer", (
        {side: elems_of(mask), "defect": f"{side} not a proper hyperideal"} if target is None
        else None if target.uv_primary[uv].holds and target.c.holds
        else {
            side: elems_of(mask),
            "at": list(uv),
            "uv_witness": target.uv_primary[uv].witness,
            "c_witness": target.c.witness,
        }
        for uv, v1 in g.uv_primary.items()
        if v1.holds
    ))


def run_quotient_checks(ctx: RingContext, report: Report) -> None:
    ring = ctx.ring
    name = ring.name
    for f in ctx.facts:
        try:
            q, hom = construct.quotient(ring, f.mask)
        except ConstructionError as e:
            report.add_verdict(
                name, elems_of(f.mask), "quotient-is-hyperring", {}, refused(e, "quotient construction")
            )
            continue
        report.add_verdict(
            name, elems_of(f.mask), "quotient-is-hyperring", {}, holds("quotient construction", 1, cosets=q.n)
        )
        bad = construct.nonunit_preservation_witness(hom)
        if bad is not None:
            report.add_verdict(name, elems_of(f.mask), "good-hom-transfer", {}, skipped(
                "nonunit maps to a unit", "quotient projection transfer", element=bad
            ))
            continue
        qctx = derived_context(ctx, q)
        # ideals above the kernel push forward, ideals of the quotient pull back
        directions = (
            ("image", [g for g in ctx.facts if subset(f.mask, g.mask)], hom.image_mask, qctx),
            ("preimage", qctx.facts, hom.preimage_mask, ctx),
        )
        for side, sources, carry, other in directions:
            for g in sources:
                if not g.c.holds:
                    continue
                mask = carry(g.mask)
                report.add_verdict(
                    name, elems_of(g.mask), f"good-hom-{side}-transfer", {"kernel": elems_of(f.mask)},
                    _hom_transfer(side, g, mask, other.find(mask)),
                )


def run_matrix_checks(ctx: RingContext, report: Report) -> None:
    ring = ctx.ring
    try:
        mring = construct.matrix_hyperring(ring)
    except ResourceError:
        return
    except ConstructionError as e:
        # a non-commutative product table means no matrix hyperring exists
        # in the commutative class; that is a documented obstruction, not
        # a validation failure of a built instance
        noncomm = isinstance(e.witness, dict) and e.witness.get("kind") == "noncommutative-product"
        report.add_verdict(ring.name, None, "matrix-ring-valid", {}, (
            Verdict(SKIPPED, e.witness, "matrix construction", 1, {"reason": str(e)}) if noncomm
            else refused(e, "matrix construction")
        ))
        return
    report.add_verdict(ring.name, None, "matrix-ring-valid", {}, holds("matrix construction", 1, size=mring.n))


def run_localization_checks(ctx: RingContext, report: Report) -> None:
    ring = ctx.ring
    if not ring.has_identity:
        return
    name = ring.name
    for smask in construct.canonical_mcs_list(ring):
        s_members = elems_of(smask)
        try:
            loc = construct.localize(ring, smask)
        except ConstructionError as e:
            report.add_verdict(
                name, None, "localization-constructed", {}, refused(e, "localization construction", s=s_members)
            )
            continue
        report.add_verdict(name, None, "localization-constructed", {}, holds(
            "localization construction", 1, s=s_members, classes=loc.ring.n
        ))
        lctx = derived_context(ctx, loc.ring)
        for f in ctx.facts:
            img = loc.ideal_image(f.mask)
            limg = lctx.find(img)
            # forward: C-hyperideal missing S descends with both arities dropped
            if f.c.holds and not f.mask & smask:
                verdict = first_failure("localization forward", (
                    {"image": elems_of(img), "defect": "localized ideal not proper"} if limg is None
                    else None if limg.uv_primary[(u - 1, v - 1)].holds
                    else {"s": s_members, "from": [u, v], "witness": limg.uv_primary[(u - 1, v - 1)].witness}
                    for (u, v), v1 in f.uv_primary.items()
                    if v >= 2 and v1.holds
                ))
                report.add_verdict(name, elems_of(f.mask), "localization-forward", {"s": s_members}, verdict)
                # radical commutes with localization on these instances
                if limg is not None:
                    lrad = loc.ideal_image(f.rad_nil)
                    rad_l = radical_nilpotent(loc.ring, img)
                    report.add_verdict(name, elems_of(f.mask), "radical-commutes-with-localization", {}, decided(
                        lrad == rad_l,
                        {"localized_radical": elems_of(lrad), "radical_of_localized": elems_of(rad_l)},
                        "localization radical",
                        s=s_members,
                    ))
            # reverse: with the colon-closure missing S, the property lifts back
            if f.c.holds and not construct.gamma_mask(ring, f.mask) & smask:
                verdict = first_failure("localization reverse", (
                    None if f.uv_primary[uv].holds
                    else {"s": s_members, "at": list(uv), "witness": f.uv_primary[uv].witness}
                    for uv in f.uv_primary
                    if limg is not None and limg.uv_primary[uv].holds
                ))
                report.add_verdict(name, elems_of(f.mask), "localization-reverse", {"s": s_members}, verdict)


# -- suite drivers -----------------------------------------------------------------


def axioms_verdict(ring: FiniteHyperring, **head) -> Verdict:
    """The `hyperring-axioms` row of `ring`, with the `head` keys first."""
    vrep = ring.validate()
    return decided(
        vrep.ok,
        {"failures": [f.describe() for f in vrep.failures]},
        "axiom validation",
        **head,
        strongly_distributive=vrep.strongly_distributive,
        has_identity=ring.has_identity,
    )


def run_ring(ring: FiniteHyperring, spec: RingFamilySpec, report: Report) -> None:
    name = ring.name
    axioms = axioms_verdict(ring)
    report.add_verdict(name, None, "hyperring-axioms", {}, axioms)
    if not axioms.holds:
        return
    pool = bin(ring.unit_report().nonunits).count("1")
    if estimated_multisets(pool, spec.u_max) > spec.tuple_budget:
        report.incomplete = True
        report.add_verdict(name, None, "scan-budget", {}, Verdict(
            SKIPPED, None, "multiset budget exceeded, ring skipped", 0, {"pool": pool, "u_max": spec.u_max}
        ))
        return
    ctx = build_ring_context(ring, spec)
    for f in ctx.facts:
        for prop, fn in IDEAL_CHECKS:
            verdict = fn(ctx, f)
            report.add_verdict(name, elems_of(f.mask), prop, {}, verdict)
    check_equal_radical_intersections(ctx, report)
    record_radical_comparison_on_non_c(ctx, report)
    if spec.include_constructions:
        run_quotient_checks(ctx, report)
        run_matrix_checks(ctx, report)
        run_localization_checks(ctx, report)


def run_theorem_suite(spec: RingFamilySpec, timings: bool = False) -> Report:
    report = Report(timings=timings)
    family = enumerate_family(spec)
    if not family:
        # a reversed range or |Phi| beyond the residues would pass as a clean sweep
        raise UsageError(
            f"the family has no rings: moduli {list(spec.moduli)}, phi sizes {list(spec.phi_sizes)}"
        )
    for ring in family:
        run_ring(ring, spec, report)
    return report


# -- golden integer examples ---------------------------------------------------------


def run_golden_examples() -> Report:
    """Replay of the worked integer-ring computations with frozen expected
    values; every row must hold.

    The examples are stated in the existential split reading, so every
    windowed check and replay runs under `SplitMode.ANY`; under `all`, 12Z
    is not (4,2)-absorbing primary at window 50 and the 105 witness moves.
    """
    report = Report()
    r23 = zphi.ZPhiRing((2, 3))
    name23 = "zphi:2,3"

    def window_holds(ring, name, d, uv, window):
        # a windowed search that finds nothing is the expected outcome here
        verdict = zphi.bounded_uv_check(ring, d, uv, window)
        report.add_verdict(
            name, [d], "windowed-uv-primary", {"u": uv.u, "v": uv.v, "window": window},
            judged(verdict, verdict.status == INCONCLUSIVE, **verdict.extra),
        )

    def expect(ideal, prop, params, observed, expected, space):
        report.add_verdict(name23, ideal, prop, params, decided(
            observed == expected, {"observed": observed, "expected": expected}, space,
            observed=observed, expected=expected,
        ))

    product_rows = [
        ([2, 3], [12, 18]),
        ([2, 2], [8, 12]),
        ([2, 2, 3], [48, 72, 108]),
        ([2, 2, 2, 3], [192, 288, 432, 648]),
    ]
    for factors, expected in product_rows:
        observed = sorted(zphi.int_product(r23, factors))
        expect(None, "hyperproduct-exact", {"factors": factors}, observed, expected,
               "exact integer products")
    membership_rows = [
        ([2, 2, 2, 3], zphi.SUBSET),
        ([2, 2], zphi.MIXED),
        ([2, 2, 3], zphi.SUBSET),
    ]
    for factors, expected in membership_rows:
        observed = zphi.principal_membership(12, zphi.int_product(r23, factors))
        expect([12], "principal-membership", {"factors": factors}, observed, expected,
               "membership against 12Z")
    for a in (2, 3):
        observed = zphi.radical_membership(r23, 12, a)
        expect([12], "radical-membership", {"a": a}, observed, False,
               "valuation criterion")

    window_holds(r23, name23, 12, UVParams(4, 2), 50)
    _witness_row(report, r23, name23, 12, UVParams(4, 2), 10, "prime", [2, 2, 2, 3])
    _witness_row(report, r23, name23, 12, UVParams(3, 2), 10, "primary", [2, 2, 3])

    r24 = zphi.ZPhiRing((2, 4))
    name24 = "zphi:2,4"
    inter = zphi.ideal_intersection([3, 5, 7])
    report.add_verdict(name24, [3, 5, 7], "principal-intersection", {}, decided(
        inter == 105,
        {"computed": inter, "expected": 105},
        "lcm of generators, discrepancy with the printed value flagged",
        computed=inter,
        printed_source_value=150,
        matches_printed_value=inter == 150,
    ))
    for d in (3, 5, 7):
        window_holds(r24, name24, d, UVParams(3, 2), 30)
    _witness_row(report, r24, name24, 105, UVParams(3, 2), 30, "primary", [3, 5, 7])
    v150 = zphi.bounded_uv_check(r24, 150, UVParams(3, 2), 30)
    report.add_verdict(name24, [150], "windowed-uv-primary", {"u": 3, "v": 2, "window": 30}, judged(
        v150, v150.fails and zphi.replay_int_counterexample(r24, 150, v150.witness["factors"], UVParams(3, 2), "primary")
    ))
    gens = [zphi.radical_profile(r24, d).generator for d in (3, 5, 7)]
    report.add_verdict(name24, [3, 5, 7], "radical-generators-distinct", {}, decided(
        len(set(gens)) == 3, {"generators": gens}, "pairwise distinct radicals", generators=gens
    ))
    return report


def _witness_row(report, ring, name, d, uv, window, variant, expected_factors):
    verdict = zphi.bounded_uv_check(ring, d, uv, window, variant=variant)
    ok = (
        verdict.fails
        and verdict.witness.get("factors") == expected_factors
        and zphi.replay_int_counterexample(ring, d, verdict.witness["factors"], uv, variant)
    )
    prop = "windowed-uv-prime" if variant == "prime" else "windowed-uv-primary"
    report.add_verdict(
        name, [d], prop, {"u": uv.u, "v": uv.v}, judged(verdict, ok, expected_witness=expected_factors, replayed=ok)
    )
