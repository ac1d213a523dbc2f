from fractions import Fraction as Q

import pytest

from asymcalc.cli import main
from asymcalc.dsl import Session


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
