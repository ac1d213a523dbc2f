"""Benchmark of the asymcalc engine: time to a verdict, share of queries
decided, and whether every verdict is right.

Run from the root of a checkout:

    python3 perfbench/run.py --workload restrict --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

A run builds ``seconds * ITEMS_PER_S[workload]`` items in set-up, shuffles
them with the seed and sends their queries in a closed loop; the rates
are calibrated so that a run takes about ``seconds`` on the parent
commit, and every run with the same ``--seconds`` does the same work.
Times are corrected for the drifting speed of a shared CPU with a probe
kernel timed between stretches of queries (see ``harness.py``); the raw
wall times are printed alongside.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs half
the items under cProfile and reports per-layer metrics instead; its
``trace_overhead`` compares against an untraced run of the same items in
a separate process.  ``--workload all`` runs every workload, each in its
own process, and prints every end-to-end metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any verdict is wrong and 2 when the engine sources are missing.
The workloads and metrics are listed in ``BENCHMARK.json``; the baseline,
seeds and the layer-to-metric table are in ``perfbench/baseline.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("restrict", "ideal", "sets", "oracle")
# Items per second of --seconds, calibrated on the parent commit.
ITEMS_PER_S = {"restrict": 20, "ideal": 68, "sets": 40, "oracle": 13}
SETUP_SAMPLES = 3
TRACE_SHARE = 0.5
CHILD_TIMEOUT = 170

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "query_p50_ms": "ms",
             "query_p90_ms": "ms", "decided_ratio": "ratio",
             "peak_rss_mb": "MB"}


def use_engine_sources():
    if not os.path.isfile(os.path.join(SRC, "asymcalc", "__init__.py")):
        sys.stderr.write(f"perfbench: no engine sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def setup(args, share=1.0):
    """Import the engine, build the workload and its items in the seed's
    order.  Returns (workload, items, raw and speed-corrected seconds
    since the process started)."""
    import harness
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    n = max(1, round(args.seconds * ITEMS_PER_S[args.workload] * share))
    items = [wl.item(i) for i in range(n)]
    random.Random(f"perfbench-order-{args.seed}").shuffle(items)
    raw = time.perf_counter() - T_START
    speed = harness.speed_factor([harness.probe() for _ in range(5)])
    return wl, items, (raw, raw * speed)


def child(args, *extra):
    """Run this script in a fresh process and return its last JSON line."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"perfbench: child {' '.join(extra)} exited "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def print_problems(wrong, unchecked, failed_lines):
    for title, lines in (("WRONG", wrong), ("UNCHECKED", unchecked),
                         ("FAILED", failed_lines)):
        for line in lines[:20]:
            print(f"  {title} {line}")
        if len(lines) > 20:
            print(f"  {title} ... {len(lines) - 20} more")


def run_untraced(args):
    import harness
    wl, items, setup_s = setup(args)
    run = harness.measure(wl, items)
    peak = peak_rss_mb()
    q = harness.query_stats(run)
    t_check = time.perf_counter()
    wrong, unchecked = harness.check(wl, run.done)
    t_check = time.perf_counter() - t_check
    # further set-up samples, each in a fresh process started only now so
    # that none of them overlaps this process's own set-up or timed phase
    setups = [setup_s] + [tuple(child(args, "--child", "setup")["setup_s"])
                          for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "setup_s": statistics.median(c for _, c in setups),
        "ops_per_s": q["ops_per_s"],
        "query_p50_ms": q["query_p50_ms"],
        "query_p90_ms": q["query_p90_ms"],
        "decided_ratio": q["decided"] / q["queries"],
        "peak_rss_mb": peak,
    }
    n = q["queries"]
    print(f"workload {args.workload} seed {args.seed}: inputs "
          f"sha256:{harness.digest(wl, items)}, {len(run.done)} items, "
          f"{n} queries in {run.raw_s:.3f} s wall ({run.corrected_s:.3f} s "
          f"speed-corrected), closed loop, 1 caller")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:14s} {metrics[name]:12.6g} {unit}")
    print(f"  {'failed_ratio':14s} {q['failed'] / n:12.6g} ratio "
          f"({q['failed']} of {n})")
    print(f"  {'wrong_verdicts':14s} {len(wrong):12d} count")
    print(f"  {'reuse_ratio':14s} {q['reuse_ratio']:12.6g} "
          f"queries per distinct input")
    print(f"  {'raw_ops_per_s':14s} {q['raw_ops_per_s']:12.6g} 1/s "
          f"uncorrected wall time")
    print(f"  setup_s is the median of {len(setups)} set-ups, raw/corrected"
          " s: " + ", ".join(f"{r:.3f}/{c:.3f}" for r, c in setups)
          + f"; percentiles over {n} samples; checks took {t_check:.1f} s, "
          f"{len(unchecked)} unchecked")
    print_problems(wrong, unchecked, harness.failures(run.done))
    report(not wrong, n, q["failed"],
           {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()})
    return 1 if wrong else 0


# Layers that every workload enters.  Each other layer spends exactly 0 s
# on some workload, so its times go to the trace file only; the result
# line keeps its call count.
TIMED_LAYERS = ("polytools", "ivset", "window", "scaleset", "fractions")


def in_result_line(name, unit):
    """Whether a per-layer metric goes to the result line as well as to
    the trace file: every count and ratio, and the times that are never
    0 on any workload."""
    if unit not in ("s", "ms") or name == "unattributed_s":
        return True
    return name.split(".")[0] in TIMED_LAYERS


def per_layer_names(kinds):
    """(name, unit) of every per-layer metric the trace file holds."""
    import layers
    names = [(f"{L}.{m}", u) for L in layers.LAYERS
             for m, u in (("calls", "count"), ("incl_s", "s"),
                          ("self_s", "s"))]
    names += [(f"op.{k}.{m}", u) for k in kinds
              for m, u in (("calls", "count"), ("total_s", "s"),
                           ("p50_ms", "ms"))]
    names += [("polytools.isolate_roots.calls", "count"),
              ("window.seg_validations", "count"),
              ("ideal.sign_calls_per_verdict", "ratio"),
              ("genconst.sign_calls_per_verdict", "ratio"),
              ("unattributed_s", "s"), ("trace_overhead", "ratio")]
    return names


def run_traced(args):
    import cProfile
    ref = child(args, "--child", "untraced")
    import harness
    import layers
    import workloads
    wl, items, _ = setup(args, TRACE_SHARE)
    prof = cProfile.Profile()
    run = harness.measure(wl, items, profiler=prof)
    rec, done = run.rec, run.done
    att = layers.attribute(prof.getstats())
    all_kinds = [k for W in workloads.WORKLOADS.values() for k in W.kinds]
    ops = harness.op_stats(rec, all_kinds)
    verdicts = {}
    for kind, _, _, _, status in rec.spans:
        if status == harness.DECIDED:
            verdicts[kind] = verdicts.get(kind, 0) + 1
    esign = att["named"]["eventual_sign_on"]

    def per_verdict(W):
        n = sum(verdicts.get(k, 0) for k in W.kinds)
        return esign / n if n else 0.0

    values = {}
    for L, row in att["layers"].items():
        for m, v in row.items():
            values[f"{L}.{m}"] = v
    for k, row in ops.items():
        for m, v in row.items():
            values[f"op.{k}.{m}"] = v
    values["polytools.isolate_roots.calls"] = att["named"]["isolate_roots"]
    values["window.seg_validations"] = att["named"]["seg_validations"]
    values["ideal.sign_calls_per_verdict"] = per_verdict(workloads.Ideal)
    values["genconst.sign_calls_per_verdict"] = per_verdict(
        workloads.Restrict)
    values["unattributed_s"] = att["unattributed_s"]
    values["trace_overhead"] = run.corrected_s / ref["corrected_s"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_names(all_kinds)}
    wrong, unchecked = harness.check(wl, done)
    q = harness.query_stats(run)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "inputs_sha256": harness.digest(wl, items),
                   "items": len(done), "traced_s": run.raw_s,
                   "untraced_s": ref["raw_s"],
                   "profiled_self_s": att["total_s"],
                   "metrics": metrics,
                   "spans": [{"name": k, "start": t0 - T_START,
                              "end": t1 - T_START, "query": it,
                              "status": st}
                             for k, t0, t1, it, st in rec.spans]}, f)
    print(f"workload {args.workload} seed {args.seed} traced: "
          f"{len(done)} items, {q['queries']} queries, "
          f"{run.raw_s:.3f} s traced vs {ref['raw_s']:.3f} s untraced; "
          f"spans in {os.path.relpath(path, ROOT)}")
    for L in layers.LAYERS:
        row = att["layers"][L]
        print(f"  {L:10s} calls {row['calls']:9d}  incl_s "
              f"{row['incl_s']:9.4f}  self_s {row['self_s']:9.4f}")
    print(f"  unattributed_s {att['unattributed_s']:.4f} of "
          f"{att['total_s']:.4f} s profiled self time")
    print_problems(wrong, unchecked, harness.failures(done))
    report(not wrong, q["queries"], q["failed"],
           {k: m for k, m in metrics.items()
            if in_result_line(k, m["unit"])})
    return 1 if wrong else 0


def run_child(args):
    if args.child == "setup":
        _, _, setup_s = setup(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import harness
    wl, items, _ = setup(args, TRACE_SHARE)
    run = harness.measure(wl, items)
    print(json.dumps({"raw_s": run.raw_s, "corrected_s": run.corrected_s}))
    return 0


def run_all(args):
    """Every workload in its own process; exit 1 if any verdict is wrong."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "untraced"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    use_engine_sources()
    if args.child:
        return run_child(args)
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
