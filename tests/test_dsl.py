import random
import string
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcalc.dsl import (Session, execute, parse, print_session, run_text)
from asymcalc.errors import (AsymcalcError, ContinuityViolation, ParseError,
                             PreconditionViolated, TypeMismatch,
                             UndefinedName)
from asymcalc.ivset import Iv


def test_parse_set_statement():
    stmts = parse("set A = orbit(ratio=1/2, shape=[[7/10,4/5]]);")
    assert len(stmts) == 1
    assert stmts[0].kind == "set" and stmts[0].name == "A"


def test_eval_prints_exact_rational():
    sn = Session()
    out = run_text(sn, '''
        elem osc = tail(ratio=1/2, comps=[{s:1,r:0,g:"w*(4*w^2-6*w+3)"}]);
        eval osc at 3/16;
    ''')
    assert out[-1]["value"] == "9/64"


def test_continuity_error_at_construction():
    with pytest.raises(ContinuityViolation):
        run_text(Session(),
                 'elem bad = tail(ratio=1/2, comps=[{s:0,r:0,g:"w^2"}]);')


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse("set A = orbit(ratio=1/2,\n  shape=[[1/2,@]]);")
    assert e.value.line == 2
    assert e.value.col == 15


def test_undefined_name():
    with pytest.raises(UndefinedName):
        run_text(Session(), "query precedes(A, B);")


def test_type_mismatch():
    with pytest.raises(TypeMismatch):
        run_text(Session(), "elem x = rho; query filter_member(x, x);")


def test_duplicate_name_rejected():
    with pytest.raises(PreconditionViolated):
        run_text(Session(), "elem x = rho; elem x = rho;")


def test_decimals_rejected():
    with pytest.raises(ParseError, match="p/q") as e:
        parse("eval x at 0.5;")
    assert (e.value.line, e.value.col) == (1, 11)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError, match="nonzero denominator") as e:
        parse("elem x = const(1/0);")
    assert (e.value.line, e.value.col) == (1, 18)


@pytest.mark.parametrize("pts, msg", [
    # a repeated node divided by zero before the segment check
    ("(1/2,0),(1/2,1),(1,1)", "strictly increase"),
    ("(1/2,0)", "at least one segment"),
])
def test_degenerate_pl_nodes_are_parse_errors(pts, msg):
    with pytest.raises(ParseError, match=msg):
        run_text(Session(), f"elem a = pl[{pts}];")


@pytest.mark.parametrize("flags", ["oo", "oc", "co"])
def test_open_point_interval_rejected(flags):
    # (3/4, 3/4) is empty, as is a point with one open end
    with pytest.raises(ParseError, match="empty or inverted"):
        run_text(Session(), 'set A = orbit(shape=[[3/4,3/4,"%s"]]);' % flags)


@pytest.mark.parametrize("shape", ["[[3/4]]", '[[3/4,3/4,"cc"]]'])
def test_closed_point_interval_is_the_point(shape):
    sn = Session()
    out = run_text(sn, f"set A = orbit(shape={shape}); "
                   "query characteristic(A);")
    assert out[-1]["result"] is True
    assert sn.symbols["A"][1].shape.ivs == (Iv(Q(3, 4), Q(3, 4), True, True),)


def test_queries():
    sn = Session()
    out = run_text(sn, '''
        set A = orbit(ratio=1/2, shape=[[7/10,4/5]]);
        set B = orbit(ratio=1/2, shape=[[3/5,9/10]]);
        elem h = pl[(1/2,0),(5/8,0),(3/4,1),(7/8,0),(1,0)];
        set P = point(3/4);
        query precedes(A, B);
        query valuation(h);
        query restr_invertible(h, P);
        query restr_zero(h, P);
        query negligible(h);
    ''')
    results = [o["result"] for o in out if o["stmt"] == "query"]
    assert results[0] is True
    assert results[1] == "0"
    assert results[2]["invertible"] is True
    assert results[3] is False
    assert results[4] is False


def test_ideal_and_filter_statements():
    sn = Session()
    out = run_text(sn, '''
        elem h = pl[(1/2,0),(5/8,0),(3/4,1),(7/8,0),(1,0)];
        ideal J = gen(h);
        filter F = closure(fg(orbit(ratio=1/2, shape=[[7/10,4/5]])));
        query ideal_member(h, J);
        query filter_member(F, orbit(ratio=1/2, shape=[[3/5,9/10]]));
    ''')
    results = [o["result"] for o in out if o["stmt"] == "query"]
    assert results[0]["member"] is True
    assert results[1] is True


def test_roundtrip():
    sn = Session()
    run_text(sn, '''
        set A = orbit(ratio=1/2, shape=[[7/10,4/5],[17/20]]);
        elem osc = tail(ratio=1/2, comps=[{s:1,r:0,g:"w*(4*w^2-6*w+3)"}]);
        ideal J = gen(osc);
        filter F = interior(fg(A));
    ''')
    sn2 = Session()
    run_text(sn2, print_session(sn))
    assert sn2.symbols["A"][1].set_eq(sn.symbols["A"][1])
    assert sn2.symbols["osc"][1].equals(sn.symbols["osc"][1])
    assert sn2.symbols["J"][1].gens[0].rep.equals(
        sn.symbols["J"][1].gens[0].rep)
    assert type(sn2.symbols["F"][1]) is type(sn.symbols["F"][1])


def test_check_statement_runs():
    sn = Session()
    out = run_text(sn, "check interior-closure seed=2 size=8;")
    reports = out[0]["reports"]
    assert reports and not reports[0]["failures"]


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=string.printable, max_size=60))
def test_fuzz_no_panic(src):
    # arbitrary input either parses or raises a located library error,
    # never an unhandled exception
    try:
        execute(Session(), parse(src))
    except AsymcalcError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="setlmqry aorbit=/[](){};:0123456789\"w^*+-,",
               max_size=80))
# values the constructors reject: a shape outside the window, a segment of
# zero length and segments that are not contiguous
@example("set A = orbit(ratio=1/2, shape=[[1/4,3/4]]);")
@example('elem f = tail(comps=[{s:0,r:0,g:segs[[1/2,1/2,"1"],[1/2,1,"1"]]}]);')
@example('elem f = tail(comps=[{s:0,r:0,g:segs[[1/2,3/4,"1"],[7/8,1,"1"]]}]);')
def test_fuzz_statement_like(src):
    try:
        execute(Session(), parse(src))
    except AsymcalcError:
        pass


def test_rejected_values_are_located_parse_errors():
    with pytest.raises(ParseError) as e:
        run_text(Session(), "elem x = rho;\n"
                 "set A = orbit(ratio=1/2, shape=[[1/4,3/4]]);")
    assert (e.value.line, e.value.col) == (2, 1)


@pytest.mark.parametrize("script, at", [
    ("set A = point();", (1, 9)),
    ("elem x = const();", (1, 10)),
    ("set A = full(); query precedes(A);", (1, 23)),
    ("elem x = pl();", (1, 10)),
    ("elem x = pl(1);", (1, 10)),
    ("check cauchy-glue seed=1/2 size=1;", (1, 24)),
    ("check cauchy-glue seed=1 size=3/2;", (1, 31)),
])
def test_missing_and_fractional_arguments_are_parse_errors(script, at):
    with pytest.raises(ParseError) as e:
        run_text(Session(), script)
    assert (e.value.line, e.value.col) == at


@pytest.mark.parametrize("script, at", [
    ("set B = point(3/4, 1/2);", (1, 9)),
    ("set B = point(3/4, ratio=1/3);", (1, 9)),
    ("set B = orbit([[3/4,7/8]], anchr=1/2);", (1, 9)),
    ("set A = full(); query precedes(A, A, A);", (1, 23)),
    ("elem y = const(1, 2);", (1, 10)),
    ("set A = full(); set B = full(A);", (1, 25)),
    ("check cauchy-glue seed=1 sise=3;", (1, 26)),
    ("elem y = tail(ratio=1/2, comps=[], shape=[[1/2,1]]);", (1, 10)),
    ("elem y = rho(1, 2);", (1, 10)),
    ("set A = full(); set B = union(A);", (1, 25)),
    ("set A = full(); set B = intersect(A);", (1, 25)),
    ("ideal I = gen();", (1, 11)),
    ("filter F = fg();", (1, 12)),
])
def test_extra_arguments_and_unknown_keywords_are_parse_errors(script, at):
    with pytest.raises(ParseError) as e:
        run_text(Session(), script)
    assert (e.value.line, e.value.col) == at


def test_every_call_checks_its_argument_count():
    """Each constructor and query, with too few arguments, raises a
    library error and never an IndexError."""
    defs = ("set A = orbit(shape=[[3/4,7/8]]); elem x = rho; "
            "ideal I = gen(x); filter F = fg(A);")
    calls = {
        "set B": ["orbit", "point", "union", "intersect", "complement",
                  "interior", "closure", "insert_between"],
        "elem y": ["const", "pl", "segs", "tail"],
        "filter G": ["ofideal", "interior", "closure"],
        "query": ["precedes", "subset", "set_eq", "characteristic",
                  "valuation", "negligible", "sharp_dist", "restr_zero",
                  "restr_invertible", "eventual_sign", "idempotent",
                  "ideal_member", "radical_member", "closure_member",
                  "zclosure_member", "pure_member", "annihilator_member",
                  "filter_member", "ideal_of_filter_member"],
    }
    for lhs, heads in calls.items():
        for head in heads:
            for args in ("", "A", "x"):
                stmt = f"{lhs} = {head}({args});" if lhs != "query" \
                    else f"query {head}({args});"
                try:
                    run_text(Session(), defs + stmt)
                except AsymcalcError:
                    pass


@pytest.mark.parametrize("script", [
    "set A = orbit(ratio=1/2, shape=[[7/10,4/5]]); set B = union(A, A);",
    "set A = orbit(ratio=1/2, shape=[[7/10,4/5]]); query precedes(A, A);",
    "elem x = rho; query sharp_dist(x, x);",
])
def test_library_value_errors_are_not_parse_errors(monkeypatch, script):
    # a ValueError raised inside an operation or a query is a library
    # fault, not malformed input: it must not be reported as a ParseError
    from asymcalc import genconst
    from asymcalc.scaleset import AsymptoticSet

    def fault(*args):
        raise ValueError("library fault")
    monkeypatch.setattr(AsymptoticSet, "union", fault)
    monkeypatch.setattr(AsymptoticSet, "precedes", fault)
    monkeypatch.setattr(genconst, "sharp_dist", fault)
    with pytest.raises(ValueError, match="library fault"):
        run_text(Session(), script)


def test_rows_of_a_head_agree_on_count_and_keywords():
    # the parser checks a call against the first row of its head
    from asymcalc.dsl import _CALLS
    for head, rows in _CALLS.items():
        assert len({(r.counts(), r.keys) for r in rows.values()}) == 1, head


@pytest.mark.parametrize("script, at, msg", [
    ("set A = full(); set B = union(A A);", (1, 33), "expected ','"),
    ("set A = orbit(shape=[[1/2,3/4] [7/8,1]]);", (1, 32), "expected ','"),
    ("elem x = pl[(1/2,0),(3/4 1),(1,0)];", (1, 26), "expected ','"),
    ('elem x = tail(comps=[{s:0,r:0 g:"1"}]);', (1, 31), "expected ','"),
    ("set A = orbit(shape=[,[1/2,3/4]]);", (1, 22), "unexpected token"),
    ("set A = full(); set B = union(A,,A);", (1, 33), "unexpected token"),
    ('elem x = tail(comps=[{s:0,r:0,g:"1",r:1}]);', (1, 37),
     "'r' is given twice"),
    ("set A = orbit(shape=[[1/2,3/4]], shape=[[5/8,7/8]]);", (1, 34),
     "'shape' is given twice"),
    # the positional shape is named shape too
    ("set A = orbit([[1/2,3/4]], shape=[[5/8,7/8]]);", (1, 28),
     "'shape' is given twice"),
    # a doubled comma is an empty entry, after a keyword as anywhere else
    ("set A = orbit(ratio=1/2, shape=[[1/2,3/4]],, D=1);", (1, 44),
     "unexpected token ','"),
    ("set A = orbit(ratio=1/2, [[1/2,3/4]]);", (1, 26),
     "positional argument after keyword"),
])
def test_malformed_sequences_are_located_parse_errors(script, at, msg):
    # one comma between entries and each name once, in every sequence
    with pytest.raises(ParseError, match=msg) as e:
        run_text(Session(), script)
    assert (e.value.line, e.value.col) == at


def test_trailing_commas_are_accepted():
    out = run_text(Session(), """
        set A = orbit(shape=[[1/2,3/4,],[7/8,1],],);
        elem x = tail(comps=[{s:0,r:0,g:pl[(1/2,1),(1,1),],},],);
        query precedes(A, A,);
    """)
    assert out[-1]["result"] is False


def test_library_errors_carry_their_statements_position():
    with pytest.raises(ContinuityViolation) as e:
        run_text(Session(), 'elem x = rho;\n  elem y = tail(ratio=1/2, '
                 'comps=[{s:0,r:0,g:"w^2"}]);')
    assert (e.value.line, e.value.col) == (2, 3)
    assert str(e.value).startswith("line 2, col 3: profile fails matching")


@pytest.mark.parametrize("script, col, msg", [
    ("set A = full(); eval A at 1/2;", 17,
     "'A' is a set, expected an element"),
    ("elem x = rho; ideal I = gen(x); query ideal_member(I, I);", 33,
     "'I' is an ideal, expected an element"),
    ("elem x = rho; query ideal_member(x, x);", 15,
     "'x' is an element, expected an ideal"),
    ("set A = full(); query filter_member(A, A);", 17,
     "'A' is a set, expected a filter"),
])
def test_type_mismatch_names_both_kinds(script, col, msg):
    with pytest.raises(TypeMismatch) as e:
        run_text(Session(), script)
    assert str(e.value) == f"line 1, col {col}: {msg}"
