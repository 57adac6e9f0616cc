"""A verdict as a plain dict, for tests that compare verdicts field for
field or pin them in a digest."""
from hyperlab.verdicts import Verdict


def verdict_record(verdict: Verdict) -> dict:
    """Status, witness, space and tested, plus `extra` when it is not empty."""
    rec = {
        "status": verdict.status,
        "witness": verdict.witness,
        "space": verdict.checked_space,
        "tested": verdict.tested,
    }
    if verdict.extra:
        rec["extra"] = dict(verdict.extra)
    return rec
