import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_LOG = """\
tests/test_acceptance.py ............
=========================== acceptance criteria ============================
criterion  2 [inv-char]: PASS (200 instances, 24 inconclusive, 12.2s / budget 60s)
criterion  5 [galois-correspondence]: FAIL (10000 instances, 132.0s / budget 120s)
============ 191 passed, 1 xfailed in 262.76s (0:04:22) ============
"""


def _run_output(workload, seed, ops, failed=0):
    metrics = {name: {"value": 1.0, "unit": "s"}
               for name in ("setup_s", "query_p50_ms", "query_p90_ms",
                            "decided_ratio", "peak_rss_mb")}
    metrics["ops_per_s"] = {"value": ops, "unit": "1/s"}
    return (f"workload {workload} seed {seed}: inputs sha256:0, 3 items\n"
            "  ops_per_s 1\n"
            + json.dumps({"correct": True, "attempted": 3, "failed": failed,
                          "metrics": metrics}) + "\n")


def test_parse_tier1_criteria_and_summary():
    got = bench_record.parse_tier1(_LOG)
    assert got["summary"] == "191 passed, 1 xfailed"
    assert got["wall_s"] == 262.76
    c2, c5 = got["criteria"]
    assert (c2["criterion"], c2["inconclusive"], c2["time_s"],
            c2["budget_s"]) == (2, 24, 12.2, 60.0)
    assert (c5["verdict"], c5["inconclusive"], c5["share_of_budget"]) == \
        ("FAIL", 0, 1.1)


def test_summary_quartiles():
    assert bench_record.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == \
        {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert bench_record.summary([7.0])["iqr"] == 0


def test_record_pairs_runs_by_file_order(tmp_path):
    for side, values in (("parent", (100, 110, 120)),
                         ("change", (250, 105, 300))):
        d = tmp_path / side
        d.mkdir()
        for i, v in enumerate(values):
            (d / f"ideal-1-{i:02d}.out").write_text(
                _run_output("ideal", 1, v, failed=int(side == "change")))
    log = tmp_path / "t1.log"
    log.write_text(_LOG)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--out", str(out), "--parent", "p", "--change", "c",
                       "--parent-runs", str(tmp_path / "parent"),
                       "--change-runs", str(tmp_path / "change"),
                       "--change-tier1", str(log)])
    rec = json.loads(out.read_text())
    ideal = rec["workloads"]["ideal"]["seed 1"]
    assert ideal["ops_per_s"]["change_won"] == "2 of 3"
    assert ideal["ops_per_s"]["parent"]["median"] == 110
    assert ideal["setup_s"]["change_won"] == "0 of 3"
    assert ideal["failed"] == {"parent": 0, "change": 3}
    assert list(rec["tier1"]) == ["change"]


def test_run_without_workload_line_is_refused():
    with pytest.raises(ValueError):
        bench_record.parse_run('{"metrics": {}}\n')
