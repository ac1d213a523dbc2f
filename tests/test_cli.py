import json
from fractions import Fraction as Q

import pytest

from asymcalc.cli import main
from asymcalc.dsl import Session
from asymcalc.verify import available_checks


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
