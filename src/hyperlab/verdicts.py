"""Shared verdict/result types for property deciders and report rows.

Every decider answers with a Verdict rather than a bare bool so that a
failure always travels with a machine-checkable witness and a "holds"
always records how much space was actually searched (vacuous truths are
visible as tested == 0).  Every report row is written from a Verdict, and
the five statuses below are the whole vocabulary of a row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Optional

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
SKIPPED = "skipped"  # a stated hypothesis is not met; carries the reason
ERROR = "error"  # a construction refused; carries its witness


class UsageError(ValueError):
    """Caller handed an argument outside the decider's domain."""


class ParameterError(UsageError):
    """Numeric parameters out of range (e.g. u <= v)."""


class ConstructionError(RuntimeError):
    """A derived structure failed its own validity checks.

    Carries a witness describing the violating instance.
    """

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class ResourceError(RuntimeError):
    """Requested object exceeds the configured size cap."""


class SplitMode(Enum):
    # Aggregation over the ways a product multiset splits into a v-part
    # and a remainder.  ANY: some split must satisfy the disjunction
    # (a counterexample multiset has every split failing).  ALL: every
    # split must satisfy it (a single bad split is a counterexample).
    ANY = "any"
    ALL = "all"


@dataclass(frozen=True)
class UVParams:
    u: int
    v: int

    def __post_init__(self):
        if not (isinstance(self.u, int) and isinstance(self.v, int)):
            raise ParameterError("u and v must be integers")
        if not self.u > self.v >= 1:
            raise ParameterError(f"need u > v >= 1, got u={self.u} v={self.v}")


@dataclass
class Verdict:
    status: str
    witness: Optional[dict] = None
    checked_space: str = ""
    tested: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def fails(self) -> bool:
        return self.status == FAILS


def holds(space: str = "", tested: int = 0, **extra) -> Verdict:
    return Verdict(HOLDS, None, space, tested, dict(extra))


def fails(witness: dict, space: str = "", tested: int = 0, **extra) -> Verdict:
    return Verdict(FAILS, witness, space, tested, dict(extra))


def decided(ok: bool, witness: Optional[dict], space: str = "", tested: int = 1, **extra) -> Verdict:
    """`holds` when ok, else `fails` with the witness."""
    return holds(space, tested, **extra) if ok else fails(witness, space, tested, **extra)


def judged(verdict: Verdict, ok: bool, **extra) -> Verdict:
    """`verdict` judged against what was expected of it: `holds` when ok,
    else `fails`, either way with its witness, space and tested count."""
    return Verdict(HOLDS if ok else FAILS, verdict.witness, verdict.checked_space, verdict.tested, dict(extra))


def first_failure(space: str, cases: Iterable[Optional[dict]]) -> Verdict:
    """Walk `cases`, each None for a case that passes or a witness dict for
    one that fails: `fails` at the first witness, with `tested` counting the
    cases up to and including it, else `holds` with `tested` counting all."""
    tested = 0
    for tested, witness in enumerate(cases, 1):
        if witness is not None:
            return fails(witness, space=space, tested=tested)
    return holds(space=space, tested=tested)


def inconclusive(space: str = "", tested: int = 0, **extra) -> Verdict:
    return Verdict(INCONCLUSIVE, None, space, tested, dict(extra))


def skipped(reason: str, space: str = "", **extra) -> Verdict:
    return Verdict(SKIPPED, None, space, 0, {"reason": reason, **extra})


def refused(exc: ConstructionError, space: str, **extra) -> Verdict:
    """The `error` row of a construction that refused, with its witness."""
    return Verdict(ERROR, {"message": str(exc), "detail": exc.witness}, space, 1, dict(extra))
