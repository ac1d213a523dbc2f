"""Quick self-check of the benchmark: every workload for a few queries.

    python3 perfbench/selfcheck.py

For each workload it runs one untraced and one traced run of half a
second and asserts that

- the printed metric names and units are exactly those of
  ``BENCHMARK.json`` (end-to-end untraced, per-layer traced),
- no verdict is wrong (``correct`` is true and the exit code is 0),
- the traced run's trace file reports calls, incl_s and self_s for
  every layer, the named counts, ``unattributed_s`` and
  ``trace_overhead``.

Exits 1 on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402

NAMED = ("polytools.isolate_roots.calls", "window.seg_validations",
         "ideal.sign_calls_per_verdict", "genconst.sign_calls_per_verdict",
         "unattributed_s", "trace_overhead")


def run(spec, workload, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, msg):
    if not cond:
        sys.exit(f"selfcheck: {msg}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {f"{L}.{m}" for L in LAYERS for m in ("calls", "incl_s", "self_s")}
    want.update(NAMED)
    for w in spec["workloads"]:
        for trace, names in ((0, e2e), (1, layer)):
            out = run(spec, w["name"], trace)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == names, f"{w['name']} trace={trace}: metrics "
                   f"differ from BENCHMARK.json: "
                   f"{set(got) ^ set(names) or 'units'}")
            expect(out["correct"] is True, f"{w['name']}: wrong verdicts")
            expect(out["attempted"] >= 1, f"{w['name']}: no queries")
        path = os.path.join(HERE, "out", f"trace-{w['name']}-0.json")
        with open(path) as f:
            traced = set(json.load(f)["metrics"])
        expect(want <= traced, f"{w['name']}: trace file lacks "
               f"{want - traced}")
        print(f"selfcheck {w['name']}: ok ({out['attempted']} traced "
              f"queries)")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
