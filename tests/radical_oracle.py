"""Oracle for the integer radical criterion, shared by the acceptance
gate, the harness tests and the zphi tests: the valuation criterion of
`zphi.radical_membership` against a direct bounded power search."""
import random

from hyperlab import zphi
from hyperlab.verdicts import Verdict, fails, holds


def radical_membership_bruteforce(ring: zphi.ZPhiRing, d: int, a: int, k_max: int = 20) -> bool:
    """Search k <= k_max for a^k ⊆ dZZ directly.  Multiplier products are
    tracked as residue sets mod d, which keeps the search exact while
    bounding its size."""
    if a == 0:
        return True
    residues = {1 % d}
    ak = 1
    for k in range(1, k_max + 1):
        ak = ak * a % d
        if k > 1:
            residues = {r * x % d for r in residues for x in ring.phi}
        if all(ak * r % d == 0 for r in residues):
            return True
    return False


def validate_radical_oracle(samples: int = 10000, seed: int = 20260813) -> Verdict:
    """Random (a, d, Phi) instances: the valuation criterion must agree
    with the direct bounded power search on every one."""
    rng = random.Random(seed)
    primes = [2, 3, 5, 7]
    for i in range(samples):
        size = rng.randint(2, 4)
        phi = tuple(rng.sample(primes, size))
        ring = zphi.ZPhiRing(phi)
        d = rng.randint(1, 1000)
        a = rng.randint(-100, 100)
        if a == 0:
            a = 1
        fast = zphi.radical_membership(ring, d, a)
        slow = radical_membership_bruteforce(ring, d, a)
        if fast != slow:
            return fails(
                {"phi": list(phi), "d": d, "a": a, "criterion": fast, "bruteforce": slow},
                space=f"randomized oracle comparison seed={seed}",
                tested=i + 1,
            )
    return holds(space=f"randomized oracle comparison seed={seed}", tested=samples)
