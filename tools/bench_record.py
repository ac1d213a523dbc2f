"""Write a BENCH_*.json record of a performance change from kept run outputs.

    python3 tools/bench_record.py --out BENCH_8.json \
        --parent <commit> --change <commit> \
        --parent-runs runs/parent --change-runs runs/change \
        --parent-tier1 parent-tier1.log --change-tier1 change-tier1.log

Each ``*.out`` file in a runs directory is the standard output of one
``python3 perfbench/run.py --workload W --seed S`` run (untraced).  Runs
are grouped by workload and seed; within a group, the parent's and the
change's runs are paired in file-name order, so name them by pair index.
For each group the record gives, per end-to-end metric of BENCHMARK.json,
each side's median and quartiles and the number of pairs the change won.
A tier-1 log is the output of the tier-1 pytest run; its ``criterion``
lines give each acceptance criterion's time against its budget.

Standard library only; the record says nothing the inputs do not hold.
"""

import argparse
import glob
import json
import os
import platform
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_WORKLOAD = re.compile(r"^workload (\w+) seed (-?\d+):", re.M)
_CRITERION = re.compile(
    r"criterion\s+(\d+) \[([\w-]+)\]: (PASS|FAIL) \((\d+) instances"
    r"(?:, (\d+) inconclusive)?, ([\d.]+)s / budget ([\d.]+)s\)")
_SUMMARY = re.compile(r"^=* ?(\d+ passed.*) in ([\d.]+)s", re.M)


def parse_run(text):
    """(workload, seed, result) of one run's standard output."""
    m = _WORKLOAD.search(text)
    if m is None:
        raise ValueError("no 'workload W seed S:' line")
    result = json.loads(text.strip().splitlines()[-1])
    return m.group(1), int(m.group(2)), result


def load_runs(directory):
    """{(workload, seed): [result, ...]} in file-name order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            workload, seed, result = parse_run(f.read())
        runs.setdefault((workload, seed), []).append(result)
    return runs


def summary(values):
    """Median and quartiles (inclusive method) of a list of samples."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent, change, metrics):
    """Per metric: both sides' summaries and the pairs the change won."""
    out = {}
    for name, better in metrics:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        out[name] = {"parent": summary(p), "change": summary(c),
                     "change_won": f"{wins} of {min(len(p), len(c))}"}
    out["failed"] = {"parent": sum(r["failed"] for r in parent),
                     "change": sum(r["failed"] for r in change)}
    out["all_correct"] = all(r["correct"] for r in parent + change)
    return out


def parse_tier1(text):
    """The criterion lines and the closing summary of a tier-1 log."""
    criteria = []
    for m in _CRITERION.finditer(text):
        num, slug, verdict, inst, inconc, t, budget = m.groups()
        criteria.append({"criterion": int(num), "slug": slug,
                         "verdict": verdict, "instances": int(inst),
                         "inconclusive": int(inconc or 0),
                         "time_s": float(t), "budget_s": float(budget),
                         "share_of_budget": round(float(t) / float(budget),
                                                  3)})
    m = _SUMMARY.search(text)
    return {"summary": m.group(1) if m else None,
            "wall_s": float(m.group(2)) if m else None,
            "criteria": criteria}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", required=True, help="change commit")
    ap.add_argument("--parent-runs", required=True)
    ap.add_argument("--change-runs", required=True)
    ap.add_argument("--parent-tier1")
    ap.add_argument("--change-tier1")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"])
                   for m in json.load(f)["end_to_end"]]
    parent, change = load_runs(args.parent_runs), load_runs(args.change_runs)
    workloads = {}
    for workload, seed in sorted(set(parent) & set(change)):
        workloads.setdefault(workload, {})[f"seed {seed}"] = compare(
            parent[workload, seed], change[workload, seed], metrics)
    tier1 = {}
    for side, path in (("parent", args.parent_tier1),
                       ("change", args.change_tier1)):
        if path:
            with open(path) as f:
                tier1[side] = parse_tier1(f.read())
    record = {
        "parent": args.parent, "change": args.change,
        "machine": f"{platform.system()} {platform.machine()}, "
                   f"{os.cpu_count()} CPUs, Python "
                   f"{platform.python_version()}",
        "runs": "python3 perfbench/run.py --workload W --seed S, untraced, "
                "parent and change alternating",
        "workloads": workloads,
        "tier1": tier1,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
