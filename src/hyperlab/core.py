"""Finite commutative multiplicative hyperrings over carriers {0..n-1}.

The additive structure is an ordinary commutative group given by an n*n
table; the multiplicative structure is a hyperoperation given by an n*n
table of nonempty subsets.  Subsets of the carrier are bitmasks (Python
ints), so set algebra is single int ops and stays cheap inside the
exhaustive sweeps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .verdicts import UsageError

Mask = int


class TableFormatError(ValueError):
    """Structural defect in ring tables (arity, range, empty hyperproduct).

    Distinct from axiom failures, which are reported by validate(), not
    raised: a structurally sound table may still fail the axioms.
    """


def _check_square(n, table, what: str) -> None:
    """TableFormatError unless n is a positive int and `table` an n*n list
    of rows.  Here and in the cell checks `type(x) is int` also refuses
    bools, which JSON true and false load as."""
    if type(n) is not int:
        raise TableFormatError(f"n={n!r} is not an integer")
    if n <= 0:
        raise TableFormatError("carrier must be nonempty")
    if not (
        isinstance(table, (list, tuple))
        and len(table) == n
        and all(isinstance(row, (list, tuple)) and len(row) == n for row in table)
    ):
        raise TableFormatError(f"{what} table must be n*n")


def mask_of(elems: Iterable[int]) -> Mask:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elems_of(mask: Mask) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: Mask) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset(a: Mask, b: Mask) -> bool:
    return a & ~b == 0


@dataclass
class AxiomFailure:
    axiom: str
    witness: tuple

    def describe(self) -> str:
        return f"{self.axiom} violated at {self.witness}"


@dataclass
class ValidationReport:
    ok: bool
    failures: list[AxiomFailure]
    strongly_distributive: Optional[bool]


@dataclass
class UnitReport:
    identities: Mask
    units: Mask
    nonunits: Mask


class FiniteHyperring:
    """Tables plus caches.  Instances are treated as immutable after init."""

    __slots__ = ("n", "add", "hmul", "name", "zero", "neg", "full_mask", "_cache")

    def __init__(self, n: int, add: Sequence[Sequence[int]], hmul_masks: Sequence[Sequence[Mask]], name: str = ""):
        _check_square(n, add, "add")
        _check_square(n, hmul_masks, "hmul")
        full = (1 << n) - 1
        for a in range(n):
            for b in range(n):
                x = add[a][b]
                if not (type(x) is int and 0 <= x < n):
                    raise TableFormatError(f"add[{a}][{b}]={x} out of range")
                m = hmul_masks[a][b]
                if type(m) is not int or m & ~full:
                    raise TableFormatError(f"hmul[{a}][{b}] out of range")
                if m == 0:
                    raise TableFormatError(f"hmul[{a}][{b}] is empty")
        self.n = n
        self.add = tuple(tuple(row) for row in add)
        self.hmul = tuple(tuple(row) for row in hmul_masks)
        self.name = name or f"ring{n}"
        self.full_mask = full
        self.zero = self._find_zero()
        self.neg = self._find_negs()
        self._cache: dict = {}

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The ring's value under `key`, made by `build()` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_element_table(cls, n: int, add: Sequence[Sequence[int]], hmul_sets: Sequence[Sequence[Iterable[int]]], name: str = "") -> "FiniteHyperring":
        _check_square(n, hmul_sets, "hmul")

        def cell_mask(a: int, b: int) -> Mask:
            cell = hmul_sets[a][b]
            elems = list(cell) if isinstance(cell, Iterable) else None
            if elems is None or not all(type(x) is int and 0 <= x < n for x in elems):
                raise TableFormatError(f"hmul[{a}][{b}]={cell!r} out of range: need a list of elements 0..{n - 1}")
            return mask_of(elems)

        return cls(n, add, [[cell_mask(a, b) for b in range(n)] for a in range(n)], name=name)

    @classmethod
    def zn_phi(cls, n: int, phi: Iterable[int], name: str = "") -> "FiniteHyperring":
        """Z_n with a ∘ b = {a*x*b mod n : x in phi}."""
        phi = sorted({x % n for x in phi})
        if len(phi) < 2:
            raise UsageError("phi must contain at least two distinct residues mod n")
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        hm = []
        for a in range(n):
            row = []
            for b in range(n):
                row.append(mask_of((a * x * b) % n for x in phi))
            hm.append(row)
        label = name or "z%d:%s" % (n, ",".join(map(str, phi)))
        return cls(n, add, hm, name=label)

    def _find_zero(self) -> Optional[int]:
        for e in range(self.n):
            row = self.add[e]
            if all(row[x] == x for x in range(self.n)):
                return e
        return None

    def _find_negs(self) -> Optional[tuple]:
        if self.zero is None:
            return None
        negs = []
        for a in range(self.n):
            inv = None
            for b in range(self.n):
                if self.add[a][b] == self.zero:
                    inv = b
                    break
            if inv is None:
                return None
            negs.append(inv)
        return tuple(negs)

    # -- set algebra -----------------------------------------------------

    def set_add(self, m1: Mask, m2: Mask) -> Mask:
        out = 0
        add = self.add
        bs = elems_of(m2)
        for a in iter_bits(m1):
            row = add[a]
            for b in bs:
                out |= 1 << row[b]
        return out

    def set_neg(self, m: Mask) -> Mask:
        neg = self.neg
        out = 0
        for a in iter_bits(m):
            out |= 1 << neg[a]
        return out

    def mul_elem(self, m: Mask, e: int) -> Mask:
        """Union of a ∘ e over a in m."""
        out = 0
        col = self.hmul
        for a in iter_bits(m):
            out |= col[a][e]
        return out

    def set_mul(self, m1: Mask, m2: Mask) -> Mask:
        out = 0
        hm = self.hmul
        for a in iter_bits(m1):
            row = hm[a]
            for b in iter_bits(m2):
                out |= row[b]
        return out

    def hyperproduct(self, xs: Sequence[int]) -> Mask:
        """Set value of x1 ∘ x2 ∘ ... ∘ xk (left fold; associativity makes
        the fold order irrelevant on validated rings)."""
        if not xs:
            raise UsageError("hyperproduct of an empty sequence is undefined")
        for x in xs:
            if not (0 <= x < self.n):
                raise UsageError(f"element {x} outside carrier")
        m = 1 << xs[0]
        for x in xs[1:]:
            m = self.mul_elem(m, x)
        return m

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        return self.memo("validation", self._validate)

    def _validate(self) -> ValidationReport:
        failures: list[AxiomFailure] = []
        n, add, hm = self.n, self.add, self.hmul

        # each axiom is a walk over its cases that yields the failing ones;
        # the first yielded is the axiom's witness
        def first(axiom: str, walk: Iterator[tuple]) -> bool:
            witness = next(walk, None)
            if witness is not None:
                failures.append(AxiomFailure(axiom, witness))
            return witness is None

        # additive commutative group
        if self.zero is None:
            failures.append(AxiomFailure("additive-identity", ()))
        if self.neg is None and self.zero is not None:
            failures.append(AxiomFailure("additive-inverse", ()))
        first("additive-commutativity", ((a, b) for a in range(n) for b in range(n) if add[a][b] != add[b][a]))
        first("additive-associativity", (
            (a, b, c) for a in range(n) for b in range(n) for c in range(n) if add[add[a][b]][c] != add[a][add[b][c]]
        ))

        # hypermultiplication commutativity
        first("hmul-commutativity", ((a, b) for a in range(n) for b in range(a + 1, n) if hm[a][b] != hm[b][a]))

        # semihypergroup associativity, set-extended:
        #   union over t in (b∘c) of a∘t  ==  union over s in (a∘b) of s∘c
        # left is memoized on (a, b∘c) and right on (a∘b, c): the two keys
        # stay apart, so a table that is not commutative keeps its witness
        def hmul_associativity():
            lefts: dict[tuple[int, Mask], Mask] = {}
            rights: dict[tuple[Mask, int], Mask] = {}
            for a in range(n):
                rowa = hm[a]
                for b in range(n):
                    ab = rowa[b]
                    rowb = hm[b]
                    for c in range(n):
                        key = (a, rowb[c])
                        left = lefts.get(key)
                        if left is None:
                            left = lefts[key] = self.set_mul(1 << a, rowb[c])
                        key = (ab, c)
                        right = rights.get(key)
                        if right is None:
                            right = rights[key] = self.mul_elem(ab, c)
                        if left != right:
                            yield (a, b, c)

        first("hmul-associativity", hmul_associativity())

        strongly: Optional[bool] = None
        if self.neg is not None and self.zero is not None:
            # sign rule: (-a)∘b == -(a∘b)
            neg = self.neg
            negs = {m: self.set_neg(m) for m in {m for row in hm for m in row}}
            first("sign-rule", ((a, b) for a in range(n) for b in range(n) if hm[neg[a]][b] != negs[hm[a][b]]))

            # weak distributivity: (a+b)∘c ⊆ a∘c + b∘c; equality everywhere
            # is the strongly-distributive flag, which the walk clears at the
            # first strict inclusion
            strongly = True

            def weak_distributivity():
                nonlocal strongly
                sums: dict[tuple[Mask, Mask], Mask] = {}
                for a in range(n):
                    for b in range(n):
                        s = add[a][b]
                        for c in range(n):
                            lhs = hm[s][c]
                            key = (hm[a][c], hm[b][c])
                            rhs = sums.get(key)
                            if rhs is None:
                                rhs = sums[key] = self.set_add(*key)
                            if lhs & ~rhs:
                                yield (a, b, c)
                            if lhs != rhs:
                                strongly = False

            if not first("weak-distributivity", weak_distributivity()):
                strongly = None

        return ValidationReport(not failures, failures, strongly)

    # -- identities and units ---------------------------------------------

    def unit_report(self) -> UnitReport:
        """Identities e (a in e∘a for every a) and units x (some identity
        lies in y∘x for some y).  No identity is a legal state; then the
        unit set is empty and every element counts as a nonunit."""
        return self.memo("units", self._unit_report)

    def _unit_report(self) -> UnitReport:
        n, hm = self.n, self.hmul
        idents = 0
        for e in range(n):
            row = hm[e]
            if all(row[a] >> a & 1 for a in range(n)):
                idents |= 1 << e
        units = 0
        if idents:
            for x in range(n):
                col = hm[x]
                if any(col[y] & idents for y in range(n)):
                    units |= 1 << x
        return UnitReport(idents, units, self.full_mask & ~units)

    @property
    def has_identity(self) -> bool:
        return self.unit_report().identities != 0

    # -- misc --------------------------------------------------------------

    def table_key(self) -> bytes:
        """Canonical bytes for deduplicating rings with identical structure."""
        return self.memo("table_key", self._table_key)

    def _table_key(self) -> bytes:
        parts = [self.n.to_bytes(2, "big")]
        for row in self.add:
            parts.extend(x.to_bytes(2, "big") for x in row)
        for row in self.hmul:
            parts.extend(m.to_bytes((self.n + 7) // 8, "big") for m in row)
        return b"".join(parts)

    def __repr__(self):
        return f"FiniteHyperring({self.name!r}, n={self.n})"


# -- ring spec parsing ------------------------------------------------------


def parse_ring_spec(spec: str) -> FiniteHyperring:
    """Build a ring from a config string.

    Grammar: ``z<n>:<c1>,<c2>,...`` builds Z_n with the listed residues as
    multipliers; anything else is a path to a JSON table file with keys
    ``n``, ``add`` (n*n ints) and ``hmul`` (n*n lists of elements).
    """
    spec = spec.strip()
    if spec.startswith("z"):
        head, sep, tail = spec.partition(":")
        if sep and head[1:].isdigit():
            n = int(head[1:])
            try:
                phi = [int(tok) for tok in tail.split(",") if tok.strip() != ""]
            except ValueError as exc:
                raise UsageError(f"bad multiplier list in {spec!r}") from exc
            if n < 1:
                raise UsageError("modulus must be >= 1")
            return FiniteHyperring.zn_phi(n, phi)
    return load_table_file(spec)


def load_table_file(path: str) -> FiniteHyperring:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read ring file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise TableFormatError(f"{path}: not a JSON object with keys n, add and hmul")
    for key in ("n", "add", "hmul"):
        if key not in data:
            raise TableFormatError(f"{path}: missing key {key!r}")
    name = data.get("name", path)
    if not isinstance(name, str):
        raise TableFormatError(f"{path}: name={name!r} is not a string")
    return FiniteHyperring.from_element_table(data["n"], data["add"], data["hmul"], name=name)
