"""Command line front end: build fixtures, run check suites, verify reports.

    coxsaito run --type A3 --suite grc-A,freediv --tier fast --out report.json
    coxsaito fixture --type B3 --out fixtures/
    coxsaito verify report.json

Exit codes: 0 all requested checks pass; 1 a check failed; 2 usage error,
unsupported request or malformed report; 3 a check ended in an error (an
unexpected exception, such as a membership that no prime settles) and none
failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import UnsupportedTypeError, canonical_name, parse_type
from .certs import verify_report_file, write_report
from .workspace import ALL_SUITES, Workspace

_TIER_RANK = {"fast": 0, "long": 1, "stretch": 2}

_FAST_FULL = {
    "A1",
    "A2",
    "A3",
    "B2",
    "B3",
    "I2(3)",
    "I2(4)",
    "I2(5)",
    "I2(6)",
    "I2(8)",
}
_PARTIAL_SUITES = {"datum", "saito", "grc-A", "grc-D", "drc", "hrc"}
_F4_LONG_SUITES = _PARTIAL_SUITES | {"algebra", "fibers", "generators"}


def required_tier(name, suite):
    """Lowest tier at which the (type, suite) pair is allowed to run."""
    factors = parse_type(name)
    if len(factors) > 1:
        return max(
            (required_tier(canonical_name([f]), suite) for f in factors),
            key=lambda t: _TIER_RANK[t],
        )
    name = canonical_name(factors)
    if name in _FAST_FULL:
        return "fast"
    if name in ("D4", "H3"):
        return "fast" if suite in _PARTIAL_SUITES else "long"
    if name in ("A4", "B4", "I2(10)", "I2(12)"):
        return "long"
    if name == "F4":
        return "long" if suite in _F4_LONG_SUITES else "stretch"
    if name in ("A5", "H4"):
        return "stretch"
    # small ranks not listed explicitly run at the fast tier
    return "fast"


def cmd_run(args):
    try:
        factors = parse_type(args.type)
    except UnsupportedTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = canonical_name(factors)
    suites = args.suite.split(",") if args.suite else list(ALL_SUITES)
    for s in suites:
        if s not in ALL_SUITES:
            print(f"error: unknown suite {s!r}; choose from {', '.join(ALL_SUITES)}", file=sys.stderr)
            return 2
    tier = args.tier
    for s in suites:
        need = required_tier(name, s)
        if _TIER_RANK[need] > _TIER_RANK[tier]:
            print(
                f"refusing to run {name} suite {s!r} at tier {tier!r}: "
                f"pass --tier {need} to opt in",
                file=sys.stderr,
            )
            return 2
    out = args.out or f"report-{name.replace('(', '').replace(')', '')}.json"
    target = Path(out)
    if not target.parent.is_dir():
        print(f"error: report directory {target.parent} does not exist", file=sys.stderr)
        return 2
    if target.is_dir():
        print(f"error: report path {out} is a directory", file=sys.stderr)
        return 2
    ws = Workspace()
    certs = []
    for s in suites:
        certs.extend(ws.run_suite(name, s))
    write_report(out, name, certs)
    failed = [c for c in certs if c.verdict == "fail"]
    errors = [c for c in certs if c.verdict == "error"]
    for c in certs:
        print(f"{c.verdict.upper():5s} {c.name} [{c.wall_time:.2f}s]")
    print(f"report written to {out}")
    if failed:
        return 1
    if errors:
        return 3
    return 0


def cmd_fixture(args):
    try:
        factors = parse_type(args.type)
    except UnsupportedTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = canonical_name(factors)
    out = Path(args.out or "fixtures")
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        print(f"error: cannot write fixtures under {out}: {existing} is not a directory",
              file=sys.stderr)
        return 2
    ws = Workspace()
    paths = ws.emit_fixtures(name, out)
    for p in paths:
        print(p)
    return 0


def cmd_verify(args):
    try:
        ok, failures = verify_report_file(args.report)
    except (
        OSError, ValueError, LookupError, ArithmeticError, TypeError, AttributeError,
        RecursionError,
    ) as exc:
        print(f"error: malformed report: {exc}", file=sys.stderr)
        return 2
    if ok:
        print("all embedded witnesses re-verify")
        return 0
    for f in failures:
        print(f"FAILED {f}")
    return 1


def build_parser():
    ap = argparse.ArgumentParser(prog="coxsaito", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run check suites and write a report")
    run.add_argument("--type", required=True, help="Coxeter type, e.g. A3, I2(5), B2xA1")
    run.add_argument("--suite", help="comma-separated suite list (default: all)")
    run.add_argument("--tier", choices=("fast", "long", "stretch"), default="fast")
    run.add_argument("--out", help="report path")
    run.set_defaults(fn=cmd_run)

    fx = sub.add_parser("fixture", help="emit datum and Saito fixtures as JSON")
    fx.add_argument("--type", required=True)
    fx.add_argument("--out", help="output directory (default: fixtures)")
    fx.set_defaults(fn=cmd_fixture)

    vf = sub.add_parser("verify", help="re-verify every witness in a report")
    vf.add_argument("report")
    vf.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
