"""Randomized oracle for the integer radical criterion, shared by the
acceptance gate and the harness tests: the valuation criterion of
`zphi.radical_membership` against the direct bounded power search."""
import random

from hyperlab import zphi
from hyperlab.verdicts import Verdict, fails, holds


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
        slow = zphi.radical_membership_bruteforce(ring, d, a)
        if fast != slow:
            return fails(
                {"phi": list(phi), "d": d, "a": a, "criterion": fast, "bruteforce": slow},
                space=f"randomized oracle comparison seed={seed}",
                tested=i + 1,
            )
    return holds(space=f"randomized oracle comparison seed={seed}", tested=samples)
