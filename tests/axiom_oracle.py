"""Oracle for `FiniteHyperring.validate`: each axiom written straight from
its definition, on frozensets, with nested quantifiers and no memos.

The zero is the least e with e + x = x for every x, and -a the least b
with a + b = 0, as in the ring's own `zero` and `neg`.  Each axiom's
witness is its first failing case in lexicographic order.  The sign rule
and distributivity are defined only over an additive group, so without a
zero or a negative they are not checked and the strongly-distributive
flag is None, as it is when weak distributivity fails."""
from hyperlab.core import FiniteHyperring, elems_of


def reference_validation(ring: FiniteHyperring) -> tuple:
    """(ok, strongly_distributive, [(axiom, witness), ...]) in the order
    `validate()` lists its failures."""
    n = ring.n
    carrier = range(n)

    # the two tables, a + b as plus[a][b] and a ∘ b as the set prod[a][b]
    plus = ring.add
    prod = [[frozenset(elems_of(m)) for m in row] for row in ring.hmul]

    def set_prod(xs, ys):
        return frozenset().union(*[prod[x][y] for x in xs for y in ys])

    def set_sum(xs, ys):
        return frozenset(plus[x][y] for x in xs for y in ys)

    failures = []

    def first(axiom, cases):
        witness = next(iter(cases), None)
        if witness is not None:
            failures.append((axiom, witness))
        return witness is None

    zero = next((e for e in carrier if all(plus[e][x] == x for x in carrier)), None)
    negs = None
    if zero is None:
        failures.append(("additive-identity", ()))
    else:
        inverses = [next((b for b in carrier if plus[a][b] == zero), None) for a in carrier]
        if None in inverses:
            failures.append(("additive-inverse", ()))
        else:
            negs = inverses
    first("additive-commutativity", (
        (a, b) for a in carrier for b in carrier if plus[a][b] != plus[b][a]
    ))
    first("additive-associativity", (
        (a, b, c) for a in carrier for b in carrier for c in carrier
        if plus[plus[a][b]][c] != plus[a][plus[b][c]]
    ))
    first("hmul-commutativity", (
        (a, b) for a in carrier for b in carrier if a < b and prod[a][b] != prod[b][a]
    ))
    first("hmul-associativity", (
        (a, b, c) for a in carrier for b in carrier for c in carrier
        if set_prod(prod[a][b], [c]) != set_prod([a], prod[b][c])
    ))
    strongly = None
    if negs is not None:
        first("sign-rule", (
            (a, b) for a in carrier for b in carrier
            if prod[negs[a]][b] != frozenset(negs[x] for x in prod[a][b])
        ))
        if first("weak-distributivity", (
            (a, b, c) for a in carrier for b in carrier for c in carrier
            if not prod[plus[a][b]][c] <= set_sum(prod[a][c], prod[b][c])
        )):
            strongly = all(
                prod[plus[a][b]][c] == set_sum(prod[a][c], prod[b][c])
                for a in carrier for b in carrier for c in carrier
            )
    return not failures, strongly, failures


def validation_fields(ring: FiniteHyperring) -> tuple:
    """The same fields read off `ring.validate()`."""
    report = ring.validate()
    return report.ok, report.strongly_distributive, [(f.axiom, f.witness) for f in report.failures]
