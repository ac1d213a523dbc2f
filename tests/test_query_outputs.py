import argparse
import hashlib
import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "query_outputs.py")
_spec = importlib.util.spec_from_file_location("query_outputs", _PATH)
query_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(query_outputs)


def test_query_outputs_repeat_exactly():
    for workload in ("sets", "ideal", "restrict"):
        first = query_outputs.query_lines(workload, 1, first=4)
        again = query_outputs.query_lines(workload, 1, first=4)
        assert first and first == again
        rows = [json.loads(line) for line in first]
        assert {r["item"] for r in rows} == set(range(4))
        assert all(r["status"] in ("decided", "undecided", "failed")
                   for r in rows)


GOLDEN = os.path.join(os.path.dirname(__file__), "query_outputs_seed1.jsonl")
WORKLOADS = ("restrict", "ideal", "sets", "oracle")


def golden_lines():
    """The first 12 query outputs of every workload at seed 1, one JSON
    line each, tagged with the workload."""
    return query_outputs.tagged_lines(WORKLOADS, 1, first=12)


def test_query_outputs_match_the_recorded_answers():
    """A change that alters an answer on purpose rewrites the file with
    `python3 tests/test_query_outputs.py` and lists the changed lines."""
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read().splitlines()
    assert golden_lines() == want


def test_all_workloads_run_in_turn_with_a_workload_key(capsys, monkeypatch):
    """`--workload all` prints each workload's lines in the benchmark's
    order, tagged; a single workload prints its lines as they are."""
    def lines(workload, seed, first=None):
        return [json.dumps({"item": i, "kind": f"{workload}-{seed}"},
                           sort_keys=True) for i in range(2)]

    monkeypatch.setattr(query_outputs, "query_lines", lines)
    assert query_outputs.main(["--workload", "all", "--seed", "7"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.split("\n")
            if line]
    assert [(r["workload"], r["item"]) for r in rows] == \
        [(w, i) for w in WORKLOADS for i in range(2)]
    assert all(r["kind"] == f"{r['workload']}-7" for r in rows)
    assert query_outputs.main(["--workload", "ideal"]) == 0
    assert capsys.readouterr().out == "".join(
        line + "\n" for line in lines("ideal", 1))


# the --maxima digest of the first 12 seed-1 oracle items, recorded at the
# commit before the valuation oracle read profile values from integers
MAXIMA_12 = "59006bb73884d9da8c285f6f35cc2370b0da009899b562abc212e546edb3da91"


def test_maxima_digest_is_the_recorded_one(capsys, monkeypatch):
    """One line per valuation item of the first 12, then the sha256 of
    their maxima reprs in order, equal to the recorded digest: the block
    maxima stay bit-identical.  `main` prints the same lines."""
    lines = query_outputs.maxima_lines(1, first=12)
    run = query_outputs._bench()
    wl, items, _ = run.setup(argparse.Namespace(
        workload="oracle", seed=1, seconds=query_outputs.SECONDS))
    want = [i for i, item in enumerate(items[:12])
            if item.spec[0] == "oracle_valuation"]
    assert [int(line.split(" ", 1)[0]) for line in lines[:-1]] == want
    assert all(line.split(" ", 1)[1].startswith("[(")
               for line in lines[:-1])
    digest = hashlib.sha256()
    for line in lines[:-1]:
        digest.update(line.split(" ", 1)[1].encode())
    assert lines[-1] == f"sha256 {digest.hexdigest()}" == f"sha256 {MAXIMA_12}"
    monkeypatch.setattr(query_outputs, "maxima_lines",
                        lambda seed: [f"seed {seed}"])
    assert query_outputs.main(["--maxima", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "seed 3\n"


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in golden_lines()))
