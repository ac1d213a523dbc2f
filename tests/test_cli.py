import gc
import json
import math
import re
import warnings
from fractions import Fraction as Q

import pytest

from asymcalc.cli import main
from asymcalc.dsl import Session
from asymcalc.verify import ValuationEstimate, available_checks


@pytest.mark.parametrize("script", ["elem x = rho;", "set A = full();"])
@pytest.mark.parametrize("opts", [["--base-ratio", "2"],
                                  ["--base-ratio", "abc"],
                                  ["--base-ratio", "1/0"],
                                  ["--grid-D", "0"]])
def test_run_rejects_bad_grid_options(tmp_path, capsys, script, opts):
    path = tmp_path / "s.asym"
    path.write_text(script, encoding="utf-8")
    assert main(["run", str(path)] + opts) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error[")


@pytest.mark.parametrize("script", [
    "set A = point();", "elem x = const();",
    "set A = full(); query precedes(A);",
    "check cauchy-glue seed=1/2 size=1;"])
def test_run_reports_a_malformed_call_in_one_line(tmp_path, capsys, script):
    path = tmp_path / "s.asym"
    path.write_text(script, encoding="utf-8")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error[ParseError]")


def test_run_accepts_good_grid_options(tmp_path, capsys):
    path = tmp_path / "s.asym"
    path.write_text("elem x = rho;\nset A = full();", encoding="utf-8")
    assert main(["run", str(path), "--base-ratio", "1/3",
                 "--grid-D", "2"]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["defined elem x",
                                                       "defined set A"]


def test_session_checks_its_grid():
    for kwargs in ({"sigma": Q(2)}, {"sigma": Q(0)}, {"D": 0}):
        with pytest.raises(ValueError):
            Session(**kwargs)


# instances of each named check at size 24, and its inconclusive outcomes
# at seeds 0-3
_CHECK_COUNTS = {
    "cauchy-glue": (6, [0, 0, 0, 0]),
    "ext-eltair-duality": (60, [0, 0, 0, 0]),
    "extension": (20, [2, 0, 0, 0]),
    "filter-ideal-galois": (24, [0, 0, 0, 0]),
    "interior-closure": (48, [0, 0, 0, 0]),
    "inv-char": (25, [8, 1, 2, 2]),
    "prime-ideal-char": (6, [0, 0, 0, 0]),
    "purity": (36, [6, 18, 6, 6]),
    "rapid-chain": (3, [0, 0, 0, 0]),
    "restr-zero-oracle": (30, [0, 0, 0, 0]),
    "valuation-oracle": (20, [0, 0, 0, 0]),
    "zero-product": (15, [0, 0, 0, 0]),
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_check_all_passes(tmp_path, capsys, seed):
    # every named check, through the command line, on a small corpus
    report = tmp_path / "report.json"
    assert main(["check", "--all", "--seed", str(seed), "--size", "24",
                 "--report", str(report)]) == 0
    reports = json.loads(report.read_text(encoding="utf-8"))
    assert len(reports) == len(available_checks())
    for r in reports:
        assert r["instances"] > 0 and r["failures"] == [], r["name"]
    assert {r["name"]: (r["instances"], r["inconclusive"]) for r in reports} \
        == {n: (i, inc[seed]) for n, (i, inc) in _CHECK_COUNTS.items()}
    assert capsys.readouterr().out.count("[PASS]") == len(reports)


SCRIPT = """elem osc = tail(comps=[{s:1, r:0, g:"w*(4*w^2-6*w+3)"}]);
eval osc at 3/16;
query valuation(osc);
query ideal_member(osc, gen(osc));
check interior-closure seed=2 size=8;
"""


def _script(tmp_path, text):
    path = tmp_path / "s.asym"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_prints_one_line_per_result(tmp_path, capsys):
    assert main(["run", _script(tmp_path, SCRIPT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["defined elem osc", "osc(3/16) = 9/64",
                       'valuation: "1"',
                       'ideal_member: {"member": true, "order": 0}']
    assert re.fullmatch(r"\[PASS\] interior-closure: 12 instances, "
                        r"0 failures, 0 inconclusive \(\d+\.\d\ds\)", out[4])
    assert len(out) == 5


def test_run_closes_the_script(tmp_path, capsys):
    path = tmp_path / "s.asym"
    path.write_text("elem x = rho;", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["run", str(path)]) == 0
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_run_json_prints_the_outputs(tmp_path, capsys):
    assert main(["--json", "run", _script(tmp_path, SCRIPT)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out[:4] == [
        {"stmt": "elem", "name": "osc"},
        {"stmt": "eval", "name": "osc", "at": "3/16", "value": "9/64"},
        {"stmt": "query", "head": "valuation", "result": "1"},
        {"stmt": "query", "head": "ideal_member",
         "result": {"member": True, "order": 0}}]
    assert out[4]["stmt"] == "check"
    assert [(r["name"], r["instances"], r["failures"])
            for r in out[4]["reports"]] == [("interior-closure", 12, [])]


def test_run_json_after_the_subcommand(tmp_path, capsys):
    path = _script(tmp_path, "elem x = rho;\neval x at 3/4;\n"
                   "query valuation(x);")
    assert main(["--json", "run", path]) == 0
    before = capsys.readouterr().out
    assert main(["run", path, "--json"]) == 0
    assert capsys.readouterr().out == before
    assert json.loads(before)[1] == {"stmt": "eval", "name": "x",
                                     "at": "3/4", "value": "3/4"}


@pytest.mark.parametrize("argv", [
    ["--json", "check", "inv-char", "--size", "8"],
    ["check", "inv-char", "--size", "8", "--json"],
    ["check", "--json", "inv-char", "--size", "8"]])
def test_check_json_before_or_after_the_subcommand(capsys, argv):
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert [(r["name"], r["failures"]) for r in out] == [("inv-char", [])]


def test_run_reports_a_missing_script(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.asym")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error[IO]: ")


def test_run_reports_a_script_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "s.asym"
    path.write_bytes(b"elem x = rho;\xff\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[IO]: {path}: ")


def test_check_reports_a_report_it_cannot_write(tmp_path, capsys):
    report = tmp_path / "missing" / "r.json"
    assert main(["check", "rapid-chain", "--size", "4",
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error[IO]: ")


def test_check_all_by_name_runs_every_check(capsys):
    assert main(["check", "all", "--size", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == \
        [f"[PASS] {name}" for name in available_checks()]


def test_check_reports_an_unknown_name(capsys):
    assert main(["check", "no-such-check"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error[UnknownCheck]: no check named "
                             "'no-such-check'")


def test_check_writes_a_failure_as_strict_json(tmp_path, capsys, monkeypatch):
    from asymcalc.verify import checks
    monkeypatch.setattr(checks, "oracle_valuation", lambda x, cfg:
                        ValuationEstimate(1.5, math.inf, False))
    report = tmp_path / "report.json"
    assert main(["check", "valuation-oracle", "--size", "8",
                 "--report", str(report)]) == 1

    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    reports = json.loads(report.read_text(encoding="utf-8"),
                         parse_constant=refuse)
    assert reports[0]["failures"]
    assert all(f["interval"] == [1.5, "inf"] for f in reports[0]["failures"])
    assert capsys.readouterr().out.startswith("[FAIL] valuation-oracle: ")


def test_run_reports_a_library_error_at_its_statement(tmp_path, capsys):
    script = 'elem x = tail(ratio=1/2, comps=[{s:0,r:0,g:"w^2"}]);'
    assert main(["run", _script(tmp_path, script)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error[ContinuityViolation]: line 1, col 1: ")
