"""Command line surface.

Subcommands: validate, ideals, check, sweep, zphi, golden.  Output is
human-readable text by default, or line-delimited structured records with
--json; --out sends the report body to a file.  Exit codes: 0 no
violations, 1 at least one failing record, 2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Callable, Optional, Sequence

from . import classify, zphi
from .core import FiniteHyperring, Mask, TableFormatError, elems_of, mask_of, parse_ring_spec
from .harness import (
    BUDGET_EXCEEDED,
    Report,
    RingFamilySpec,
    axioms_verdict,
    estimated_multisets,
    run_golden_examples,
    run_theorem_suite,
)
from .ideals import (
    enumerate_hyperideals,
    is_hyperideal,
    radical_nilpotent,
    is_c_hyperideal,
    is_strong_c_hyperideal,
)
from .verdicts import (
    ParameterError,
    ResourceError,
    SplitMode,
    UsageError,
    UVParams,
    Verdict,
    decided,
    holds,
    skipped,
)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad {what} list: {text!r}") from exc


def _int_tuple(text: Optional[str], what: str) -> Optional[tuple[int, ...]]:
    """A comma list as a tuple, or None for an option not given."""
    return None if text is None else tuple(_parse_int_list(text, what))


def _parse_moduli(text: Optional[str]) -> Optional[tuple[int, ...]]:
    """Comma list or a..b range, or None for an option not given."""
    if text is None or ".." not in text:
        return _int_tuple(text, "moduli")
    lo, _, hi = text.partition("..")
    try:
        return tuple(range(int(lo), int(hi) + 1))
    except ValueError as exc:
        raise UsageError(f"bad moduli range: {text!r}") from exc


def _ideal_mask(ring: FiniteHyperring, text: str, what: str) -> Mask:
    members = _parse_int_list(text, what)
    outside = [x for x in members if not 0 <= x < ring.n]
    if outside:
        raise UsageError(f"{what} member {outside[0]} outside the carrier 0..{ring.n - 1}")
    return mask_of(members)


# Options a property may read without their being given: --mode and
# --phi have defaults, and --replay and --window choose between two checks.
OPTIONAL = ("mode", "phi", "replay", "window")


def _check_options(args, reads: dict[str, tuple[str, ...]]) -> None:
    """UsageError for an option given that the chosen --prop does not
    read, or one it reads that is neither given nor OPTIONAL; `reads` maps
    each property to the options it reads."""
    own = reads[args.prop]
    others = {name for names in reads.values() for name in names} - set(own)
    unread = sorted(name for name in others if getattr(args, name) is not None)
    missing = [name for name in own if name not in OPTIONAL and getattr(args, name) is None]
    for names, what in ((unread, "does not read"), (missing, "needs")):
        if names:
            raise UsageError(f"--prop {args.prop} {what} " + ", ".join("--" + n.replace("_", "-") for n in names))


def _emit(report: Report, args) -> int:
    """Write the report as --json and --out ask, and return its exit code."""
    if args.json:
        body = report.to_jsonl()
    else:
        lines = []
        for r in report.records:
            extra = f" witness={json.dumps(r['witness'])}" if r["witness"] else ""
            lines.append(
                f"[{r['status']}] ring={r['ring']} ideal={r['ideal']} "
                f"property={r['property']} params={json.dumps(r['params'])}{extra}"
            )
        lines.append(report.summary())
        body = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report to {args.out!r}: {exc}") from exc
        if not args.json:
            print(report.summary())
    else:
        print(body)
    return 1 if report.violations else 0


def _emit_row(args, ring: str, ideal: Optional[list[int]], prop: str, params: dict, verdict: Verdict) -> int:
    """Emit a report of the one row and return its exit code."""
    report = Report()
    report.add_verdict(ring, ideal, prop, params, verdict)
    return _emit(report, args)


def _replay_row(args, ring: str, ideal: list[int], params: dict, u: int,
                is_nonunit: Callable[[int], bool], breaks: Callable[[list[int]], bool]) -> int:
    """Emit the `witness replay` row of the --replay list, fails where
    breaks(factors) confirms the witness.  The list must be u nonunits: a
    witness to a (u,v) property is a multiset of u nonunits, so any other
    list is a UsageError rather than a replay that cannot confirm."""
    factors = _parse_int_list(args.replay, "replay")
    if len(factors) != u or not all(map(is_nonunit, factors)):
        raise UsageError(f"--replay needs {u} nonunits, got {factors}")
    verdict = decided(not breaks(factors), {"factors": factors}, "witness replay", replay=True)
    return _emit_row(args, ring, ideal, args.prop, params, verdict)


# -- subcommand bodies -----------------------------------------------------------


def cmd_validate(args) -> int:
    ring = parse_ring_spec(args.ring)
    return _emit_row(args, ring.name, None, "hyperring-axioms", {}, axioms_verdict(ring, n=ring.n))


def cmd_ideals(args) -> int:
    ring = parse_ring_spec(args.ring)
    if not ring.validate().ok:
        raise UsageError(f"{args.ring}: not a hyperring; run validate for details")
    lattice = enumerate_hyperideals(ring)
    report = Report()
    for b, prime, maximal in zip(lattice.ideals, lattice.prime, lattice.maximal):
        proper = b != ring.full_mask
        flags = {"prime": prime, "maximal": maximal, "proper": proper}
        if proper:
            flags["c"] = is_c_hyperideal(ring, b).holds
            flags["strong_c"] = is_strong_c_hyperideal(ring, b).holds
            flags["radical"] = elems_of(radical_nilpotent(ring, b))
        report.add_verdict(ring.name, elems_of(b), "hyperideal", {}, holds("lattice dump", 1, **flags))
    return _emit(report, args)


# The options each property reads, besides --ring, --prop, --json and --out.
CHECK_PROPS: dict[str, tuple[str, ...]] = {
    "prime": ("ideal",),
    "primary": ("ideal",),
    "c": ("ideal",),
    "strong-c": ("ideal",),
    "uv-primary": ("ideal", "u", "v", "mode", "replay"),
    "uv-prime": ("ideal", "u", "v", "mode", "replay"),
    "uv-i-primary": ("ideal", "u", "v", "mode", "aux_ideal"),
    "1-absorbing-primary": ("ideal", "mode"),
    "divided": (),
}


def cmd_check(args) -> int:
    _check_options(args, CHECK_PROPS)
    ring = parse_ring_spec(args.ring)
    if not ring.validate().ok:
        raise UsageError(f"{args.ring}: not a hyperring; run validate for details")
    mode = SplitMode(args.mode or "any")
    prop = args.prop
    params: dict = {"mode": mode.value} if "mode" in CHECK_PROPS[prop] else {}

    if prop == "divided":
        return _emit_row(args, ring.name, None, prop, params, classify.is_divided(ring))

    pmask = _ideal_mask(ring, args.ideal, "ideal")
    if not is_hyperideal(ring, pmask):
        raise UsageError(f"{args.ideal!r} is not a hyperideal of {args.ring}")
    rad = radical_nilpotent(ring, pmask)

    if "u" in CHECK_PROPS[prop]:
        uv = UVParams(args.u, args.v)
        params.update(u=args.u, v=args.v)

    if args.replay is not None:
        concl = pmask if prop == "uv-prime" else rad
        return _replay_row(
            args, ring.name, elems_of(pmask), params, uv.u, set(elems_of(ring.unit_report().nonunits)).__contains__,
            lambda factors: classify.replay_uv_counterexample(ring, pmask, concl, factors, uv.v, mode=mode),
        )

    if prop == "uv-i-primary":
        imask = _ideal_mask(ring, args.aux_ideal, "aux ideal")
        if not is_hyperideal(ring, imask):
            raise UsageError(f"{args.aux_ideal!r} is not a hyperideal of {args.ring}")
        params["aux_ideal"] = elems_of(imask)

    # a (u,v) scan is refused where the sweep would refuse the ring's scan
    # up to u_max = u, under the sweep's default budget
    pool = bin(ring.unit_report().nonunits).count("1")
    budget = RingFamilySpec().tuple_budget
    if "u" in CHECK_PROPS[prop] and estimated_multisets(pool, uv.u) > budget:
        verdict = skipped(BUDGET_EXCEEDED, space=f"nonunit scan over tuple budget {budget}", pool=pool)
    elif prop == "prime":
        verdict = classify.is_prime(ring, pmask)
    elif prop == "primary":
        verdict = classify.is_primary(ring, pmask, rad)
    elif prop == "c":
        verdict = is_c_hyperideal(ring, pmask)
    elif prop == "strong-c":
        verdict = is_strong_c_hyperideal(ring, pmask)
    elif prop == "uv-primary":
        verdict = classify.is_uv_absorbing_primary(ring, pmask, rad, uv, mode=mode)
    elif prop == "uv-prime":
        verdict = classify.is_uv_absorbing_prime(ring, pmask, uv, mode=mode)
    elif prop == "uv-i-primary":
        verdict = classify.is_uv_absorbing_i_primary(ring, pmask, imask, rad, uv, mode=mode)
    else:
        verdict = classify.is_1_absorbing_primary(ring, pmask, rad, mode=mode)
    return _emit_row(args, ring.name, elems_of(pmask), prop, params, verdict)


def cmd_sweep(args) -> int:
    fields = {
        "moduli": _parse_moduli(args.moduli),
        "phi_sizes": _int_tuple(args.phi_sizes, "phi sizes"),
        "phi_universe": _int_tuple(args.phi_universe, "phi universe"),
        "u_max": args.u_max,
        "mode": args.mode and SplitMode(args.mode),
        "tuple_budget": args.tuple_budget,
        "include_constructions": args.include_constructions,
    }
    # an option not given is left out, so the spec's default holds
    spec = RingFamilySpec(**{name: value for name, value in fields.items() if value is not None})
    return _emit(run_theorem_suite(spec, timings=args.timings), args)


# The options each property reads, besides --prop, --json and --out.
ZPHI_PROPS: dict[str, tuple[str, ...]] = {
    "uv-primary": ("phi", "d", "u", "v", "mode", "window", "replay"),
    "uv-prime": ("phi", "d", "u", "v", "mode", "window", "replay"),
    "product": ("phi", "factors"),
    "membership": ("phi", "factors", "d"),
    "radical": ("phi", "d", "a"),
    "intersection": ("d_list",),
}


def cmd_zphi(args) -> int:
    _check_options(args, ZPHI_PROPS)
    mode = SplitMode(args.mode or "any")
    prop = args.prop
    if prop == "intersection":
        ds = _parse_int_list(args.d_list, "generator")
        if not ds:
            raise UsageError("--d-list is required for intersection")
        return _emit_row(args, "zphi", ds, "principal-intersection", {}, holds(
            "least common multiple of the generators", 1, generator=zphi.ideal_intersection(ds)
        ))

    ring = zphi.ZPhiRing(_parse_int_list("2,3" if args.phi is None else args.phi, "phi"))
    name = "zphi:" + ",".join(map(str, ring.phi))
    if prop in ("uv-primary", "uv-prime"):
        uv = UVParams(args.u, args.v)
        variant = "prime" if prop == "uv-prime" else "primary"
        params = {"u": args.u, "v": args.v, "mode": mode.value}
        if args.replay is not None:
            return _replay_row(
                args, name, [args.d], params, uv.u, partial(zphi.is_nonunit, ring),
                lambda factors: zphi.replay_int_counterexample(ring, args.d, factors, uv, variant=variant, mode=mode),
            )
        if args.window is None:
            raise UsageError("--window is required for the windowed checks")
        verdict = zphi.bounded_uv_check(
            ring, args.d, uv, args.window, variant=variant, mode=mode
        )
        return _emit_row(args, name, [args.d], prop, {**params, "window": args.window}, verdict)
    if prop == "product":
        factors = _parse_int_list(args.factors, "factors")
        if not factors:
            raise UsageError("--factors is required for product")
        values = sorted(zphi.int_product(ring, factors))
        return _emit_row(args, name, None, "hyperproduct-exact", {}, holds(
            "exact integer product", 1, factors=factors, value=values
        ))
    if prop == "membership":
        factors = _parse_int_list(args.factors, "factors")
        if not factors:
            raise UsageError("--factors is required for membership")
        value = zphi.principal_membership(args.d, zphi.int_product(ring, factors))
        return _emit_row(args, name, [args.d], "principal-membership", {}, holds(
            "membership against the principal hyperideal", 1, factors=factors, relation=value
        ))
    member = zphi.radical_membership(ring, args.d, args.a)
    profile = zphi.radical_profile(ring, args.d)
    return _emit_row(args, name, [args.d], "radical-membership", {}, holds(
        "valuation criterion", 1, a=args.a, member=member, radical_generator=profile.generator
    ))


def cmd_golden(args) -> int:
    return _emit(run_golden_examples(), args)


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperlab",
        description="Finite multiplicative hyperrings: classification and theorem sweeps.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--json", action="store_true", help="line-delimited structured records")
        p.add_argument("--out", default=None, help="write the report body to this file")

    p = sub.add_parser("validate", help="check the hyperring axioms for a ring config")
    p.add_argument("--ring", required=True, help="z<n>:<c1>,<c2>,... or a JSON table file")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("ideals", help="dump the hyperideal lattice with flags")
    p.add_argument("--ring", required=True)
    common(p)
    p.set_defaults(fn=cmd_ideals)

    p = sub.add_parser("check", help="decide one property of one hyperideal")
    p.add_argument("--ring", required=True)
    p.add_argument("--ideal", default=None, help="comma-separated ideal members")
    p.add_argument("--prop", required=True, choices=CHECK_PROPS)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--aux-ideal", default=None, help="the I of the I-primary variant")
    p.add_argument("--replay", default=None, help="replay a witness factor list")
    # default None tells an unread --mode apart from one not given
    p.add_argument("--mode", choices=("any", "all"), default=None, help="split aggregation (default: any)")
    common(p)
    p.set_defaults(fn=cmd_check)

    # no defaults: cmd_sweep leaves an option not given to RingFamilySpec
    p = sub.add_parser("sweep", help="run the theorem suite over a ring family")
    p.add_argument("--moduli", default=None, help="comma list or a..b range")
    p.add_argument("--phi-sizes", default=None)
    p.add_argument("--phi-universe", default=None, help="residues to draw phi from")
    p.add_argument("--u-max", type=int, default=None)
    p.add_argument("--tuple-budget", type=int, default=None)
    p.add_argument("--no-constructions", dest="include_constructions", action="store_false", default=None)
    p.add_argument("--timings", action="store_true", help="stamp records with elapsed millis")
    p.add_argument(
        "--mode", choices=("any", "all"), default=None, help=f"split aggregation (default: {RingFamilySpec().mode.value})"
    )
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("zphi", help="exact and windowed checks over the integer hyperring")
    p.add_argument("--phi", default=None, help="comma-separated multipliers (default: 2,3)")
    p.add_argument("--d", type=int, default=None, help="principal generator")
    p.add_argument("--prop", required=True, choices=ZPHI_PROPS)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--v", type=int, default=None)
    scan = p.add_mutually_exclusive_group()
    scan.add_argument("--window", type=int, default=None)
    scan.add_argument("--replay", default=None, help="replay a witness factor list")
    p.add_argument("--factors", default=None, help="factor list for product/membership")
    p.add_argument("--a", type=int, default=None, help="element for the radical check")
    p.add_argument("--d-list", default=None, help="generators for intersection")
    p.add_argument("--mode", choices=("any", "all"), default=None, help="split aggregation (default: any)")
    common(p)
    p.set_defaults(fn=cmd_zphi)

    p = sub.add_parser("golden", help="replay the worked integer examples")
    common(p)
    p.set_defaults(fn=cmd_golden)

    return top


def classify_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ParameterError, TableFormatError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(classify_cli())


if __name__ == "__main__":
    main()
