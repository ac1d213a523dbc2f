"""Recorded answers of the script language.

Each script of the corpus runs on a fresh session, and its line in
`dsl_golden.jsonl` holds the statement outputs (or the error, with its
type, message and position) and the `print_session` text of what it
defined.  The corpus builds every constructor, runs every query, and
reaches every error message a script can reach.  A change that alters
an answer on purpose rewrites the file with
`python3 tests/test_dsl_golden.py`, which prints the 1-based numbers of
the new lines whose text is not among the old lines, and how many old
lines it no longer produces.
"""

import json
import os
import random
import re
from fractions import Fraction as Q

from asymcalc import dsl
from asymcalc.dsl import Session, execute, parse, print_session

GOLDEN = os.path.join(os.path.dirname(__file__), "dsl_golden.jsonl")

# one session that builds every constructor and runs every query on it
SESSION = """
set A = orbit(ratio=1/2, shape=[[7/10,4/5]]);
set B = orbit([[3/5,9/10]]);
set C = orbit(shape=[[3/5,7/10,"co"],[17/20]], anchor=1/2,
              head=[[3/4,1,"oc"]]);
set E = orbit(ratio=1/4, shape=[[1/2,3/4]], D=2);
set P = point(3/4);
set Fu = full();
set U = union(A, B, P);
set X = intersect(A, B, U);
set Co = complement(A);
set In = interior(B);
set Cl = closure(orbit(shape=[[7/10,4/5,"oo"]]));
set M = insert_between(A, B);
elem h = pl[(1/2,0),(5/8,0),(3/4,1),(7/8,0),(1,0)];
elem osc = tail(ratio=1/2, comps=[{s:1, r:0, g:"w*(4*w^2-6*w+3)"}]);
elem c = const(3/2);
elem r = rho;
elem r1 = rho();
elem r2 = rho(2);
elem sg = tail(comps=[{s:0, r:0, g:segs[[1/2,3/4,"4*w-1"],[3/4,1,"-4*w+5"]]}]);
elem q = tail(comps=[{s:0, r:0, g:"(w^2 + 1)/(w + 1) - (w^2+1)/(w+1) + 1"}]);
elem ng = tail(comps=[{s:0, r:1, g:pl[(1/2,0),(3/4,1/16),(1,0)]}]);
elem hd = tail(ratio=1/2, comps=[{s:0, r:0, g:"1"}], anchor=1/2, head="1");
elem d2 = tail(ratio=1/4, comps=[{s:1, r:0, g:"w"}], D=2);
ideal J = gen(h);
ideal K = gen(osc, h);
filter F = fg(A);
filter G = fg(A, B);
filter Fi = interior(fg(A));
filter Fc = closure(F);
filter O = ofideal(J);
filter Oi = interior(ofideal(gen(ng)));
eval osc at 3/16;
eval hd at 3/4;
eval d2 at 1/3;
query precedes(A, B);
query subset(A, B);
query set_eq(A, intersect(A, B));
query characteristic(C);
query valuation(osc);
query valuation(ng);
query negligible(ng);
query sharp_dist(r, c);
query restr_zero(h, P);
query restr_invertible(h, P);
query restr_invertible(h, orbit(shape=[[1/2,9/16]]));
query eventual_sign(h, A);
query idempotent(h);
query ideal_member(h, J);
query radical_member(h, K);
query closure_member(osc, J);
query zclosure_member(h, J);
query pure_member(h, J);
query annihilator_member(osc, J);
query filter_member(F, B);
query filter_member(Oi, P);
query ideal_of_filter_member(h, O);
query ideal_of_filter_member(ng, Fc);
check interior-closure seed=2 size=8;
"""

_DEFS = ("set A = orbit(shape=[[7/10,4/5]]); elem x = rho; "
         "ideal I = gen(x); filter F = fg(A);\n")
_TAIL = "elem y = tail(comps=[{s:0, r:0, g:%s}]);"

# scripts that fail, one error each: tokens, statements, calls, values
ERRORS = [
    "set A = orbit(shape=[[1/2,@]]);",
    "eval x at 0.5;",
    "set A orbit();",
    "set 1 = full();",
    "1;",
    "elem",
    "set A = full()",
    "eval x at a;",
    "eval x on 1/2;",
    "eval x at 1/y;",
    "elem x = const(1/0);",
    "set A = );",
    "set A = orbit(shape=[[1/2,1]], [[1/2,1]]);",
    "set B = point(3/4, ratio=1/3);",
    "set B = orbit([[3/4,7/8]], anchr=1/2);",
    "elem y = tail(ratio=1/2, comps=[], shape=[[1/2,1]]);",
    "query precedes(A, B, x=1);",
    "set A = point();",
    "set A = point(3/4, 1/2);",
    "set A = full(A);",
    "set A = full(); set B = union(A);",
    "set A = full(); set B = intersect(A);",
    "set A = full(); query precedes(A);",
    "set A = full(); query precedes(A, A, A);",
    "elem y = rho(1, 2);",
    "elem y = const(1, 2);",
    "elem y = pl();",
    "ideal I = gen();",
    "filter F = fg();",
    "check cauchy-glue sise=3;",
    "check cauchy-glue seed=1/2 size=1;",
    "check cauchy-glue seed=1 size=3/2;",
    "check nosuch;",
    "foo x = 1;",
    _TAIL % '"(w"',
    _TAIL % '"w + x"',
    _TAIL % '"w^x"',
    _TAIL % '"w^-1"',
    _TAIL % '"1/(w-w)"',
    _TAIL % '"w w"',
    _TAIL % '"w+"',
    _TAIL % '"0.5*w"',
    _TAIL % '"w @ 1"',
    "elem x = rho; elem x = rho;",
    "query precedes(A, B);",
    "elem x = rho; query filter_member(x, x);",
    "elem x = rho; eval x at 2;",
    "eval x at 1/2;",
    "set A = full(); eval A at 1/2;",
    "set A = orbit(ratio=1/2, shape=[[1/4,3/4]]);",
    "set A = orbit(ratio=2, shape=[[1/4,3/4]]);",
    "set A = orbit(shape=[[1/2,1]], D=0);",
    "set A = orbit(shape=[[1/2,1]], D=1/2);",
    "set A = orbit(ratio=x, shape=[[1/2,1]]);",
    'set A = orbit(shape=[[3/4,3/4,"oo"]]);',
    "set P = point(1/4);",
    "set A = orbit();",
    "set A = orbit(shape=1/2);",
    "set A = orbit(shape=[1/2]);",
    'set A = orbit(shape=[[1/2,3/4,"cc",1]]);',
    'set A = orbit(shape=[[1/2,3/4,"xx"]]);',
    "set A = orbit(shape=[[1/2,3/4,1]]);",
    "set A = orbit(shape=[[1/2,1]], head=[[1/2,1]]);",
    "set A = full(); set P = point(A);",
    "elem y = rho(1/2);",
    "set A = full(); query precedes(1/2, A);",
    "set A = foo(1);",
    "elem x = rho; set A = gen(x);",
    "set A = rho();",
    "set A = pl[(1/2,0),(1,0)];",
    "elem x = pl(1);",
    "elem x = pl[1/2];",
    "elem x = pl[(1/2,0,1)];",
    "elem x = pl[(1/2,0),(1/2,1),(1,1)];",
    "elem x = pl[(1/2,0)];",
    "elem x = pl[(1/2,0),(1,1)];",
    _TAIL % "segs(1)",
    _TAIL % "segs[[1/2,1]]",
    _TAIL % "segs[[1/2,1,1]]",
    _TAIL % 'segs[[1/2,1/2,"1"],[1/2,1,"1"]]',
    _TAIL % 'segs[[1/2,3/4,"1"],[7/8,1,"1"]]',
    _TAIL % '"1/(w - 3/4)"',
    _TAIL % "1",
    _TAIL % "pl",
    _TAIL % "foo[1]",
    'elem y = segs[[1/2,1,"1"]];',
    "elem y = orbit();",
    "elem y = 1/2;",
    "set A = full(); query valuation(A);",
    "query valuation(1/2);",
    "elem x = tail();",
    "elem x = tail(comps=1);",
    "elem x = tail(comps=[1]);",
    "elem x = tail(comps=[{s:0,r:0}]);",
    "elem x = tail(comps=[{s:1/2,r:0,g:\"1\"}]);",
    "elem x = tail(ratio=1/2, comps=[{s:0,r:0,g:\"w^2\"}]);",
    "elem x = tail(comps=[{s:0,r:0,g:\"1\"}], head=\"2\", anchor=1/2);",
    "elem x = tail(comps=[{s:0,r:0,g:\"1\"}], head=\"1\");",
    "ideal I = foo(x);",
    "ideal I = 1;",
    "set A = full(); ideal I = fg(A);",
    "filter F = 1/2;",
    "set A = full(); filter F = union(A, A);",
    "filter F = foo(1);",
    "query foo(A);",
    "query point(3/4);",
    "set A = full(); query point(3/4, 1);",
    "elem x = rho; query ideal_member(x, x);",
    "set A = orbit(shape=[[1/2,3/4,\"oo\"]]); filter F = fg(A);"
    " query filter_member(F, A);",
    "set A = orbit(shape=[[3/4,7/8]]); set B = orbit(shape=[[5/8,1]]);"
    " set M = insert_between(B, A);",
    "elem x = rho; query ideal_of_filter_member(x, x);",
    "elem x = tail(comps=[{s:0,r:0,g:\"1\" r:1}]);",
    "elem x = tail(comps=[{s 0}]);",
    "elem x = tail(comps=[{1:0}]);",
    'elem x = "w";',
    "set A = [1];",
    "set A = (1);",
    # a missing comma in each kind of sequence, a name given twice, and a
    # library error in the second statement
    "set A = full(); set B = union(A A);",
    "set A = orbit(shape=[[1/2,3/4] [7/8,1]]);",
    "elem x = pl[(1/2,0),(3/4 1),(1,0)];",
    'elem x = tail(comps=[{s:0,r:0 g:"1"}]);',
    'elem x = tail(comps=[{s:0,r:0,g:"1",r:1}]);',
    "set A = orbit(shape=[[1/2,3/4]], shape=[[5/8,7/8]]);",
    'elem x = rho;\n  elem y = tail(ratio=1/2, comps=[{s:0,r:0,g:"w^2"}]);',
    # a shape given by position and by keyword, and a doubled comma after
    # a keyword argument
    "set A = orbit([[1/2,3/4]], shape=[[5/8,7/8]]);",
    "set A = orbit(ratio=1/2, shape=[[1/2,3/4]],, D=1);",
] + [_DEFS + f"{lhs} = {head}({args});"
     for lhs, heads in (
         ("set B", ["orbit", "point", "union", "intersect", "complement",
                    "interior", "closure", "insert_between"]),
         ("elem y", ["const", "pl", "segs", "tail", "rho"]),
         ("ideal J", ["gen"]),
         ("filter G", ["fg", "ofideal", "interior", "closure"]),
         ("query", ["precedes", "subset", "set_eq", "characteristic",
                    "valuation", "negligible", "sharp_dist", "restr_zero",
                    "restr_invertible", "eventual_sign", "idempotent",
                    "ideal_member", "radical_member", "closure_member",
                    "zclosure_member", "pure_member", "annihilator_member",
                    "filter_member", "ideal_of_filter_member"]))
     for head in heads
     for args in ("", "A", "x", "I", "F", "A, x", "x, A", "x, I", "F, A")]

# the session grid reaches point, full, const, rho, pl and orbit
GRID_SESSION = """
set A = orbit(shape=[[1/2,2/3]]);
set P = point(1/2);
set Fu = full();
elem c = const(2);
elem r = rho;
elem r3 = rho(3);
elem h = pl[(1/3,0),(1/2,1),(1,0)];
query valuation(r3);
eval h at 1/6;
"""

_WORDS = """
    orbit point full union intersect complement interior closure
    insert_between const rho pl segs tail gen fg ofideal precedes subset
    set_eq characteristic valuation negligible sharp_dist restr_zero
    restr_invertible eventual_sign idempotent ideal_member radical_member
    closure_member zclosure_member pure_member annihilator_member
    filter_member ideal_of_filter_member set elem ideal filter eval query
    check at A x I F w seed size ratio shape comps foo all""".split()
_PUNCT = list("()[]{},;=:/*^+-") + ["1", "2", "3", "1/2", "3/4", '"w"',
                                    '"1"', "0.5", "@"]


_STARTS = ["set Z = ", "elem Z = ", "ideal Z = ", "filter Z = ", "query ",
           "eval x at ", ""]


def random_scripts(n=300, seed=29):
    """Statement-like strings of random tokens, after the definitions."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        toks = [rng.choice(_WORDS if rng.random() < 0.45 else _PUNCT)
                for _ in range(rng.randint(1, 12))]
        out.append(_DEFS + rng.choice(_STARTS) + " ".join(toks))
    return out


def corpus():
    """(sigma, D, script) for every script of the golden file."""
    grid = [(Q(1, 2), 1, s) for s in [SESSION] + ERRORS + random_scripts()]
    return grid + [(Q(1, 3), 2, GRID_SESSION)]


def _canonical(out):
    # a check's wall time is the one value that does not repeat
    if out["stmt"] == "check":
        out = dict(out, reports=[{k: v for k, v in r.items()
                                  if k != "wall_time"}
                                 for r in out["reports"]])
    return out


def run_one(sigma, D, script):
    sn = Session(sigma=sigma, D=D)
    row = {"sigma": str(sigma), "D": D, "script": script}
    try:
        row["outputs"] = [_canonical(o) for o in execute(sn, parse(script))]
    except Exception as e:
        row["error"] = {"type": type(e).__name__, "message": str(e),
                        "line": getattr(e, "line", None),
                        "col": getattr(e, "col", None)}
    row["session"] = print_session(sn)
    return json.dumps(row, sort_keys=True, default=str)


def golden_lines():
    return [run_one(*c) for c in corpus()]


def test_dsl_matches_the_recorded_answers():
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_corpus_reaches_every_call():
    """A new call of the table cannot go without a recorded answer."""
    text = "\n".join(s for _, _, s in corpus()[:len(ERRORS) + 1])
    for head in dsl._CALLS:
        assert re.search(rf"\b{head}\s*[(\[]", text), head


if __name__ == "__main__":
    with open(GOLDEN, encoding="utf-8") as f:
        old = f.read().splitlines()
    new = golden_lines()
    with open(GOLDEN, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in new))
    # by text, not by index: a script inserted into ERRORS moves every
    # later line without changing it
    before, after = set(old), set(new)
    print(" ".join(str(i + 1) for i, line in enumerate(new)
                   if line not in before))
    print(f"{sum(line not in after for line in old)} old lines no longer "
          "produced")
