"""Command line front-end.

    asymcalc run script.asym [--json]
    asymcalc check --all --seed 42 --size 50 --report report.json

`run` executes a script against a fresh session; `check` runs the named
(or all) invariant suites; `--json` may also precede the subcommand.
Exit status is 0 exactly when nothing failed; every error is reported
with a stable code (the error class name) rather than a traceback, and a
script's error with its position:
`error[ContinuityViolation]: line 1, col 1: ...`.
"""

import argparse
import json
import sys
from fractions import Fraction as Q

from .dsl import Session, execute, parse
from .errors import AsymcalcError
from .verify import available_checks, run_checks

__all__ = ["main"]


def _print_outputs(outputs, as_json: bool):
    if as_json:
        print(json.dumps(outputs, indent=2, default=str))
        return
    for o in outputs:
        if o["stmt"] in ("set", "elem", "ideal", "filter"):
            print(f"defined {o['stmt']} {o['name']}")
        elif o["stmt"] == "eval":
            print(f"{o['name']}({o['at']}) = {o['value']}")
        elif o["stmt"] == "query":
            print(f"{o['head']}: {json.dumps(o['result'], default=str)}")
        elif o["stmt"] == "check":
            for r in o["reports"]:
                _print_report(r)


def _print_report(r: dict):
    status = "PASS" if not r["failures"] else "FAIL"
    print(f"[{status}] {r['name']}: {r['instances']} instances, "
          f"{len(r['failures'])} failures, "
          f"{r['inconclusive']} inconclusive "
          f"({r['wall_time']:.2f}s)")


def _cmd_run(args) -> int:
    try:
        with open(args.script, encoding="utf-8") as f:
            source = f.read()
    except UnicodeDecodeError as e:
        print(f"error[IO]: {args.script}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error[IO]: {e}", file=sys.stderr)
        return 2
    try:
        session = Session(sigma=Q(args.base_ratio), D=args.grid_D)
    except (ValueError, ZeroDivisionError) as e:
        print(f"error[{type(e).__name__}]: bad grid option: {e}",
              file=sys.stderr)
        return 2
    try:
        outputs = execute(session, parse(source))
    except AsymcalcError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 1
    _print_outputs(outputs, args.json)
    return 0


def _cmd_check(args) -> int:
    opts = {k: v for k in ("seed", "size")
            if (v := getattr(args, k)) is not None}
    try:
        reports = run_checks(None if args.all else args.checks, **opts)
    except AsymcalcError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 2
    payload = [r.to_dict() for r in reports]
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, default=str)
        except OSError as e:
            print(f"error[IO]: {e}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for r in payload:
            _print_report(r)
    return 0 if all(not r["failures"] for r in payload) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="asymcalc",
        description="Exact asymptotic-scale calculus: scripts, queries "
                    "and invariant checks.")
    ap.add_argument("--json", action="store_true",
                    help="machine readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a script")
    runp.add_argument("script")
    runp.add_argument("--grid-D", type=int, default=1)
    runp.add_argument("--base-ratio", default="1/2")

    checkp = sub.add_parser("check", help="run invariant check suites")
    checkp.add_argument("checks", nargs="*",
                        help=f"names: {', '.join(available_checks())}")
    checkp.add_argument("--all", action="store_true")
    checkp.add_argument("--seed", type=int)
    checkp.add_argument("--size", type=int)
    checkp.add_argument("--report", help="write a JSON report here")
    # --json after the subcommand too; a default there would override one
    # given before it
    for p in (runp, checkp):
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="machine readable output")

    args = ap.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
