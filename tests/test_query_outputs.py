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
