"""Print the output of every benchmark query, one JSON line each, so that
two checkouts can be compared for equal answers.

    python3 tools/query_outputs.py --workload ideal --seed 1 > ideal-1.jsonl
    python3 tools/query_outputs.py --workload all --seed 1 > all-1.jsonl
    python3 tools/query_outputs.py --maxima --seed 1 > maxima-1.txt

The items are the ones ``python3 perfbench/run.py --seconds 15`` builds,
through that script's own ``setup``, in the same order.  Each query runs
once, untimed.  A line holds the item index, the query kind, the status
(decided, undecided or failed, as the benchmark counts them) and the value
in canonical form: ``to_dict()``, ``rep.to_dict()`` for ring elements,
lists for tuples, type and message for exceptions, strings for Fractions
and ``repr`` for anything else.  ``--workload all`` runs the four workloads
in turn and adds a ``workload`` key to each line.

``--maxima`` prints instead, for each ``oracle_valuation`` item of the
``oracle`` workload, its index and the ``repr`` of the per-block maxima the
valuation oracle fits, ``[(k, max log|x|), ...]`` over the deepest 2 * wn
blocks at the workload's grid and at the oracle's working precision (the
exception type's name where the oracle raises), then one ``sha256`` line
over those reprs in order.  Equal digests mean bit-identical maxima.

Standard library only; the engine is the one under this checkout's
``src``, and ``perfbench/`` is only read.
"""

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 15.0


def canonical(value):
    """A JSON-ready form of one query's value."""
    if isinstance(value, BaseException):
        return {"type": type(value).__name__, "message": str(value)}
    from asymcalc.genconst import GenConstant
    if isinstance(value, GenConstant):
        return value.rep.to_dict()
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _bench():
    """perfbench/run.py as a module, with this checkout's engine on the
    import path."""
    path = os.path.join(ROOT, "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import run
    run.use_engine_sources()
    return run


def query_lines(workload, seed, first=None):
    """The output lines of the first ``first`` items (all by default)."""
    run = _bench()
    import harness

    wl, items, _ = run.setup(argparse.Namespace(
        workload=workload, seed=seed, seconds=SECONDS))
    lines = []

    class Log(harness.Recorder):
        def call(self, kind, fn, *args):
            out = super().call(kind, fn, *args)
            lines.append(json.dumps(
                {"item": self.item, "kind": kind, "status": out.status,
                 "value": canonical(out.value)}, sort_keys=True))
            return out

    rec = Log()
    for i, item in enumerate(items[:first]):
        rec.begin(i)
        wl.run(item, rec)
    return lines


def tagged_lines(workloads, seed, first=None):
    """The output lines of each workload in turn, each with a ``workload``
    key."""
    return [json.dumps(dict(json.loads(line), workload=w), sort_keys=True)
            for w in workloads for line in query_lines(w, seed, first)]


def maxima_lines(seed, first=None):
    """The ``--maxima`` lines of the first ``first`` oracle items, then
    the sha256 line."""
    run = _bench()
    import mpmath
    from asymcalc.errors import AsymcalcError
    from asymcalc.verify.oracle import PRECISION, _block_maxima

    wl, items, _ = run.setup(argparse.Namespace(
        workload="oracle", seed=seed, seconds=SECONDS))
    digest, lines = hashlib.sha256(), []
    for i, item in enumerate(items[:first]):
        if item.spec[0] != "oracle_valuation":
            continue
        with mpmath.workdps(PRECISION):
            try:
                text = repr(sorted(_block_maxima(item.args[0],
                                                 wl.cfg).items()))
            except AsymcalcError as e:
                text = type(e).__name__
        digest.update(text.encode())
        lines.append(f"{i} {text}")
    return lines + [f"sha256 {digest.hexdigest()}"]


def main(argv=None):
    names = _bench().WORKLOAD_NAMES
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=(*names, "all"))
    mode.add_argument("--maxima", action="store_true",
                      help="valuation-oracle block maxima and their sha256")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.maxima:
        lines = maxima_lines(args.seed)
    elif args.workload == "all":
        lines = tagged_lines(names, args.seed)
    else:
        lines = query_lines(args.workload, args.seed)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
