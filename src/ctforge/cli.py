"""Command-line front end.

    ctforge verify      -- check the q-Dyson identity (or its q=1 form)
    ctforge certify     -- emit vanishing certificates for negative exponents
    ctforge ct          -- constant terms of parsed expressions
    ctforge tournament  -- exhaustive witness-lemma check
    ctforge identities  -- the classical q-series identity suite

Exit codes: 0 success, 1 identity/certification/computation failure,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .ctengine import ct_all_series, ct_factored_pfrac_labeled
from .errors import (CertificationError, CTForgeError, DistinctPolesError,
                     PropernessError, ShapeError, size_str)
from .identities import run_suite
from .laurent import LaurentPoly
from .parser import MAX_VARS, LoweringError, ParseError, lower, parse, var_index
from .qdyson import (certificate_to_json, certify_vanishing, lhs_value_at,
                     verify_dyson, verify_qdyson)
from .tournament import exhaustive_check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _csv_ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


@cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    ap = argparse.ArgumentParser(
        prog="ctforge",
        description="Exact constant-term engine and q-Dyson verifier.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify the q-Dyson identity at given parameters")
    p.add_argument("--a0", type=int, required=True, help="the a_0 parameter")
    p.add_argument("--a", type=_csv_ints, required=True,
                   help="comma-separated a_1..a_n")
    p.add_argument("--method", choices=("brute", "replay", "both"),
                   default="brute")
    p.add_argument("--q1", action="store_true",
                   help="check the classical q=1 statement instead")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("certify", help="certify vanishing at negative exponents")
    p.add_argument("--a", type=_csv_ints, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--b", type=int)
    group.add_argument("--all-b", action="store_true")
    p.add_argument("--json-out", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="also confirm each root by the series oracle")

    p = sub.add_parser("ct", help="constant term of an expression")
    p.add_argument("--expr", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--var", help="extraction variable, e.g. x0")
    group.add_argument("--all-vars", action="store_true")
    p.add_argument("--trunc", type=int, default=8,
                   help="series window degree for display/cross-checks")
    p.add_argument("--method", choices=("series", "pfrac", "both"),
                   default=None,
                   help="default: both where partial fractions accepts "
                        "the expression, series otherwise")

    p = sub.add_parser("tournament", help="exhaustive witness lemma check")
    p.add_argument("--s-max", type=int, default=4)
    p.add_argument("--a-max", type=int, default=3)

    p = sub.add_parser("identities", help="classical q-series identity suite")
    p.add_argument("--trunc", type=int, default=8)

    return ap


# -- verify ---------------------------------------------------------------------

def run_verify(ap: argparse.ArgumentParser, args) -> int:
    params = (args.a0,) + args.a
    if any(x < 0 for x in params):
        ap.error("parameters must be nonnegative")
    if args.q1 and args.method != "brute":
        ap.error("--q1 expands the q=1 product: --method must be brute")
    if args.q1:
        report = verify_dyson(args.a0, args.a)
    else:
        report = verify_qdyson(args.a0, args.a, args.method)
    if args.json:
        payload = {
            "command": "verify", "ok": report.ok, "a0": args.a0,
            "a": list(args.a), "method": report.method,
            "lhs": None if report.lhs is None else str(report.lhs),
            "rhs": str(report.rhs), "detail": report.detail,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK if report.ok else EXIT_FAIL
    for line in report.detail:
        print(line)
    if report.ok:
        if report.lhs is not None:
            print(f"LHS = RHS = {report.rhs}")
        else:
            print(f"identity certified; RHS = {report.rhs}")
        return EXIT_OK
    print(report.counterexample())
    return EXIT_FAIL


# -- certify ----------------------------------------------------------------------

def run_certify(ap: argparse.ArgumentParser, args) -> int:
    if any(x < 0 for x in args.a):
        ap.error("parameters must be nonnegative")
    asum = sum(args.a)
    if args.all_b:
        if asum < 1:
            ap.error("--all-b needs a positive parameter sum")
        bs = range(1, asum + 1)
    else:
        if not 1 <= args.b <= asum:
            ap.error(f"--b must lie in [1, {size_str(asum)}]")
        bs = [args.b]
    for b in bs:
        try:
            cert = certify_vanishing(args.a, b)
        except CertificationError as e:
            print(f"certification FAILED at b={b}: {e}", file=sys.stderr)
            return EXIT_FAIL
        counts = cert.leaf_counts()
        oracle_note = ""
        if args.oracle:
            value = lhs_value_at(args.a, -b)
            if not value.is_zero():
                print(f"series oracle NONZERO at b={b}: {value}", file=sys.stderr)
                return EXIT_FAIL
            oracle_note = ", series oracle zero"
        nodes = sum(counts.values())
        print(f"b={b}: {nodes} nodes, "
              f"{counts.get('zero_case1', 0)} zero_case1, "
              f"{counts.get('zero_case2', 0)} zero_case2, "
              f"{counts.get('recursed', 0)} recursed"
              f"{oracle_note}")
        if args.json_out is not None:
            from pathlib import Path    # only here: it is slow to import
            path = Path(args.json_out)
            if len(bs) > 1:
                path = path.with_name(f"{path.stem}_b{b}{path.suffix or '.json'}")
            try:
                path.write_text(certificate_to_json(cert))
            except OSError as e:
                raise CTForgeError(f"cannot write {path}: {e.strerror or e}") from None
            print(f"  wrote {path}")
    return EXIT_OK


# -- ct ----------------------------------------------------------------------------

def _parse_var(ap, text: str) -> int:
    index = var_index(text)
    if index is None:
        ap.error(f"--var must be one of x0 .. x{MAX_VARS - 1}; got {text!r}")
    return index


def _print_summands(parts: list) -> None:
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        print("0")
        return
    if all(p.is_scalar() for p in parts):       # one reduction, in str
        print(sum((p.expand_within({}) for p in parts),
                  LaurentPoly.zero(parts[0].nvars)))
        return
    print("  +  ".join(str(p) for p in parts))


def run_ct(ap: argparse.ArgumentParser, args) -> int:
    if args.trunc < 0:
        ap.error("--trunc must be nonnegative")
    if args.all_vars and args.method is not None:
        ap.error("--method applies to --var only")
    parsed = parse(args.expr)
    if args.all_vars:
        print(ct_all_series(lower(parsed)))
        return EXIT_OK

    var = _parse_var(ap, args.var)
    ff = lower(parsed, var + 1)
    nvars = ff.nvars
    window = {v: args.trunc for v in range(nvars)}
    window[var] = 0

    method = args.method or "both"
    series_lp = pfrac_parts = None
    if method in ("series", "both"):
        series_lp = ff.expand_within(window, {var: 0})
    if method in ("pfrac", "both"):
        try:
            pfrac_parts = [s for _, s in ct_factored_pfrac_labeled(ff, var)]
        except (DistinctPolesError, PropernessError, ShapeError):
            if args.method is not None:
                raise
            method = "series"   # by default, only where partial fractions applies

    if method == "series":
        print(series_lp)
        return EXIT_OK
    if method == "both":
        total = LaurentPoly.zero(nvars)
        for p in pfrac_parts:
            total = total + p.expand_within(window)
        if total != series_lp:
            print("partial fractions and series DISAGREE:", file=sys.stderr)
            print(f"  pfrac : {total}", file=sys.stderr)
            print(f"  series: {series_lp}", file=sys.stderr)
            return EXIT_FAIL
    _print_summands(pfrac_parts)
    return EXIT_OK


# -- tournament ---------------------------------------------------------------------

def run_tournament(ap: argparse.ArgumentParser, args) -> int:
    if args.s_max < 1:
        ap.error("--s-max must be at least 1")
    if args.a_max < 1:
        ap.error("--a-max must be at least 1")
    report = exhaustive_check(args.s_max, args.a_max)
    print(f"instances checked: {report.instances}")
    print(f"case-1 witnesses:  {report.witnesses_case1}")
    print(f"case-2 witnesses:  {report.witnesses_case2}")
    print(f"counterexamples:   {report.failures}")
    return EXIT_OK if report.ok else EXIT_FAIL


# -- identities -----------------------------------------------------------------------

def run_identities(ap: argparse.ArgumentParser, args) -> int:
    if args.trunc < 0:
        ap.error("--trunc must be nonnegative")
    failed = []
    for result in run_suite(args.trunc):
        print(f"{'PASS' if result.ok else 'FAIL'}  {result.name}  ({result.detail})")
        if not result.ok:
            failed.append(result.name)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# -- entry point ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(ap, args)
        if args.command == "certify":
            return run_certify(ap, args)
        if args.command == "ct":
            return run_ct(ap, args)
        if args.command == "tournament":
            return run_tournament(ap, args)
        if args.command == "identities":
            return run_identities(ap, args)
    except (ParseError, LoweringError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CTForgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
