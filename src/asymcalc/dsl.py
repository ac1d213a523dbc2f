"""Script language for driving the calculus from text.

Statements end with a semicolon:

    set A = orbit(ratio=1/2, shape=[[7/10,4/5]]);
    elem osc = tail(ratio=1/2, comps=[{s:1, r:0, g:"w*(4*w^2-6*w+3)"}]);
    ideal J = gen(osc);
    filter F = closure(fg(A));
    eval osc at 3/16;
    query precedes(A, B);
    check all seed=42 size=20;

Rationals are written p/q; decimal literals are rejected so no value is
ever rounded on the way in.  Window profiles are entered either as
restricted expressions in w (quoted), as the piecewise-linear shorthand
pl[(w,v),...], or segment by segment as segs[[lo,hi,"expr"],...].

Call arguments, lists, (w, v) tuples and records take one comma between
entries, a trailing one allowed, and each keyword or key once; `check`
options are space-separated.  A statement's errors all carry a position.

Every call is one row of the call table `_CALLS`, which the parser's
count and keyword checks and the builder both read (see `_Call`).  A new
call is one row; a new constructor also needs its `print_object` branch,
so that a session holding it prints back to a script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import reduce

from . import genconst
from .afilter import (FG, Closure, Interior, OfIdeal, filter_member,
                      i_of_f_member)
from .errors import (AsymcalcError, ParseError, PreconditionViolated,
                     TypeMismatch, UndefinedName)
from .grid import Grid
from .ideal import (FgIdeal, annihilator_member, closure_member,
                    ideal_member, pure_part_member, radical_member,
                    zclosure_member)
from .ivset import Iv, IvSet
from .polytools import ONE, padd, pmul, pneg, poly, ppow
from .pwfunc import PwFunction, TailComponent
from .scaleset import AsymptoticSet, insert_between
from .signs import eventual_sign_on
from .verify import run_checks
from .window import Piecewise, Seg

__all__ = ["Session", "parse", "execute", "run_text", "print_object",
           "print_session"]


# -- tokens --------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<decimal>\d+\.)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<op>[()\[\]{},;=:/*^+-])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str):
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind, text = m.lastgroup, m.group()
        if kind == "decimal":
            raise ParseError("decimal literals are not accepted; write p/q",
                             line, col)
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# -- statements ----------------------------------------------------------


@dataclass
class Stmt:
    kind: str            # set | elem | ideal | filter | eval | query | check
    name: str | None
    expr: object
    line: int
    col: int


class _Parser:
    """Recursive descent over one token list: a script, or the window
    expression of the string node `within`, whose errors are reported at
    that string."""

    def __init__(self, toks, within=None):
        self.toks = toks
        self.i = 0
        self.within = within

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, tok=None):
        if self.within is not None:
            _, text, tok = self.within
            msg = f"in window expression {text!r}: {msg}"
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, text) -> Token:
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}", t)
        return t

    def expect_name(self) -> Token:
        t = self.next()
        if t.kind != "name":
            self.fail(f"expected a name, found {t.text!r}", t)
        return t

    # rationals ----------------------------------------------------------

    def rational(self) -> Q:
        neg = self.peek().text == "-"
        if neg:
            self.next()
        t = self.next()
        if t.kind != "num":
            self.fail("expected a rational p/q", t)
        num = int(t.text)
        den = 1
        if self.peek().text == "/":
            self.next()
            d = self.next()
            if d.kind != "num" or int(d.text) == 0:
                self.fail("expected a nonzero denominator", d)
            den = int(d.text)
        q = Q(num, den)
        return -q if neg else q

    # expressions --------------------------------------------------------

    def value(self):
        t = self.peek()
        if t.text in ("-",) or t.kind == "num":
            return ("rat", self.rational(), t)
        if t.kind == "str":
            self.next()
            return ("str", t.text[1:-1], t)
        if t.text == "[":
            return self.bracket_list()
        if t.text == "{":
            return self.record()
        if t.kind == "name":
            self.next()
            if self.peek().text == "(":
                return self.call(t)
            if self.peek().text == "[":
                # pl[...] / segs[...] shorthand
                return ("call", t.text, [self.bracket_list()], {}, t)
            return ("name", t.text, t)
        self.fail(f"unexpected token {t.text!r}", t)

    def seq(self, close, value, key=lambda: None, names=()):
        """The comma-separated entries up to the token `close`, which it
        consumes: each a name that `key` reads (None if positional) and a
        `value`.  The i-th positional entry also goes by the name
        `names[i]`, if there is one.  Returns the positional values and
        the named ones' dict."""
        args, named = [], {}
        while self.peek().text != close:
            t = self.peek()
            k = key()
            if k is None:
                args.append(value())
                if named:
                    self.fail("positional argument after keyword", t)
            elif k in named or k in names[:len(args)]:
                self.fail(f"{k!r} is given twice", t)
            else:
                named[k] = value()
            if self.peek().text != close:
                self.expect(",")
        self.next()
        return args, named

    def keyword(self):
        t = self.peek()
        if t.kind == "name" and self.toks[self.i + 1].text == "=":
            self.i += 2
            return t.text

    def call(self, head: Token):
        self.expect("(")
        # the rows of one head agree on count and keywords
        row = next(iter(_CALLS[head.text].values())) \
            if head.text in _CALLS else None
        args, kwargs = self.seq(")", self.value, self.keyword,
                                row.names if row else ())
        if row:
            for k in kwargs:
                if k not in row.keys:
                    self.fail(f"{head.text}() takes no keyword {k!r}", head)
            least, most = row.counts()
            if len(args) < least or (most is not None and len(args) > most):
                want = f"at least {least}" if most is None else \
                    str(least) if least == most else f"{least} or {most}"
                self.fail(f"{head.text}() takes {want} positional "
                          f"arguments, {len(args)} given", head)
        return ("call", head.text, args, kwargs, head)

    def bracket_list(self):
        t = self.expect("[")

        def item():
            if self.peek().text != "(":
                return self.value()
            self.next()
            return ("tuple", self.seq(")", self.value)[0], t)
        return ("list", self.seq("]", item)[0], t)

    def record(self):
        t = self.expect("{")

        def key():
            k = self.expect_name().text
            self.expect(":")
            return k
        return ("record", self.seq("}", self.value, key)[1], t)

    # window expressions in w: (num, den) coefficient pairs ----------------

    def wsum(self):
        n, d = self.wterm()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            n2, d2 = self.wterm()
            if op == "-":
                n2 = pneg(n2)
            n = padd(pmul(n, d2), pmul(n2, d))
            d = pmul(d, d2)
        return (n, d)

    def wterm(self):
        n, d = self.wfactor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            n2, d2 = self.wfactor()
            if op == "/" and not n2:
                self.fail("division by the zero function")
            n, d = (pmul(n, n2), pmul(d, d2)) if op == "*" else \
                (pmul(n, d2), pmul(d, n2))
        return (n, d)

    def wfactor(self):
        if self.peek().text == "-":
            self.next()
            n, d = self.wfactor()
            return (pneg(n), d)
        n, d = self.watom()
        if self.peek().text == "^":
            self.next()
            e = self.next()
            if e.kind != "num":
                self.fail("exponent must be a nonnegative integer")
            k = int(e.text)
            return (ppow(n, k), ppow(d, k))
        return (n, d)

    def watom(self):
        t = self.next()
        if t.text == "(":
            v = self.wsum()
            if self.next().text != ")":
                self.fail("unbalanced parenthesis")
            return v
        if t.text == "w":
            return ((0, 1), ONE)
        if t.kind == "num":
            return (poly(int(t.text)), ONE)
        self.fail(f"unexpected {t.text!r}")

    # statements ---------------------------------------------------------

    def statement(self) -> Stmt:
        t = self.expect_name()
        if t.text in ("set", "elem", "ideal", "filter"):
            name = self.expect_name()
            self.expect("=")
            expr = self.value()
            self.expect(";")
            return Stmt(t.text, name.text, expr, t.line, t.col)
        if t.text == "eval":
            name = self.expect_name()
            at = self.expect_name()
            if at.text != "at":
                self.fail("expected 'at'", at)
            q = self.rational()
            self.expect(";")
            return Stmt("eval", name.text, q, t.line, t.col)
        if t.text == "query":
            head = self.expect_name()
            expr = self.call(head)
            self.expect(";")
            return Stmt("query", None, expr, t.line, t.col)
        if t.text == "check":
            names, opts = [], {}
            while self.peek().text != ";":
                n = self.expect_name()
                # check names may be hyphenated, e.g. interior-closure
                text = n.text
                while self.peek().text == "-":
                    self.next()
                    text += "-" + self.expect_name().text
                if self.peek().text == "=":
                    if text not in ("seed", "size"):
                        self.fail(f"check takes no option {text!r}", n)
                    self.next()
                    opts[text] = self.value()
                else:
                    names.append(text)
            self.expect(";")
            return Stmt("check", None, (names, opts), t.line, t.col)
        self.fail(f"unknown statement {t.text!r}", t)


def parse(source: str):
    """Parse script text into a list of statements."""
    p = _Parser(_tokenize(source))
    out = []
    while p.peek().kind != "eof":
        out.append(p.statement())
    return out


def _wexpr(node):
    """The rational function (num, den) of the quoted window expression
    in w at the string node `node`."""
    p = _Parser(_tokenize(node[1]), within=node)
    v = p.wsum()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return v


# -- execution -----------------------------------------------------------


@dataclass
class Session:
    """Symbol table plus the shared grid parameters, checked by Grid.of."""
    sigma: Q = Q(1, 2)
    D: int = 1
    symbols: dict = field(default_factory=dict)

    def __post_init__(self):
        Grid.of(self.sigma, D=self.D)

    def define(self, kind, name, obj):
        if name in self.symbols:
            raise PreconditionViolated(f"name {name!r} is already defined")
        self.symbols[name] = (kind, obj)

    def lookup(self, name, kind):
        if name not in self.symbols:
            raise UndefinedName(f"{name!r} is not defined")
        k, obj = self.symbols[name]
        if k != kind:
            raise TypeMismatch(f"{name!r} is {_UNKNOWN[k][0]}, "
                               f"expected {_UNKNOWN[kind][0]}")
        return obj


# What `build` reports of a value that is no call, and of a call with no
# row of the kind asked for; `lookup` names kinds by the first.
_UNKNOWN = {"set": ("a set", "unknown set constructor {!r}"),
            "elem": ("an element", "unknown element constructor {!r}"),
            "ideal": ("an ideal", "expected an ideal expression"),
            "filter": ("a filter", "unknown filter constructor {!r}"),
            "query": (None, "unknown query {!r}")}


class _Builder:
    def __init__(self, session: Session):
        self.sn = session

    def fail(self, msg, node):
        raise ParseError(msg, node[-1].line, node[-1].col)

    def make(self, ctor, *args, **kwargs):
        """Call a validating constructor; its ValueError is a ParseError."""
        try:
            return ctor(*args, **kwargs)
        except ValueError as e:
            raise ParseError(str(e)) from None

    def rat(self, node) -> Q:
        if node[0] != "rat":
            self.fail("expected a rational", node)
        return node[1]

    def intval(self, node) -> int:
        q = self.rat(node)
        if q.denominator != 1:
            self.fail("expected an integer", node)
        return int(q)

    def build(self, kind, node):
        """The value of `kind` at `node`: a rational, an integer, a name of
        that kind, or a call of a row of that kind, its arguments built by
        their kinds."""
        if kind == "rat":
            return self.rat(node)
        if kind == "int":
            return self.intval(node)
        if node[0] == "name":
            if kind == "elem" and node[1] == "rho":
                return PwFunction.upower(1, self.sn.sigma, self.sn.D)
            return self.sn.lookup(node[1], kind)
        if node[0] != "call":
            self.fail(f"expected {_UNKNOWN[kind][0]} expression", node)
        row = _CALLS.get(node[1], {}).get(kind)
        if row is None:
            self.fail(_UNKNOWN[kind][1].format(node[1]), node)
        if row.node:
            return row.fn(self, node)
        kinds = row.args.split()
        if row.args.endswith("+"):
            kinds += kinds[-1:] * len(node[2])
        args = [self.build(k.rstrip("?+"), a) for k, a in zip(kinds, node[2])]
        if row.grid:
            return self.make(row.fn, *args, sigma=self.sn.sigma, D=self.sn.D)
        return row.fn(*args)

    def grid_args(self, kwargs):
        """(ratio, anchor, D) of an orbit or a tail; the session grid and
        anchor 1 by default."""
        ratio = self.rat(kwargs["ratio"]) if "ratio" in kwargs \
            else self.sn.sigma
        anchor = self.rat(kwargs["anchor"]) if "anchor" in kwargs else Q(1)
        D = self.intval(kwargs["D"]) if "D" in kwargs else self.sn.D
        return ratio, anchor, D

    # orbits -------------------------------------------------------------

    def interval_list(self, node):
        if node[0] != "list":
            self.fail("expected a list of intervals", node)
        ivs = []
        for item in node[1]:
            if item[0] != "list" or len(item[1]) not in (1, 2, 3):
                self.fail("each interval is [a,b], [a,b,\"flags\"] "
                          "or [p]", item)
            parts = item[1] * 2 if len(item[1]) == 1 else item[1]
            a, b = self.rat(parts[0]), self.rat(parts[1])
            flags = parts[2] if len(parts) == 3 else ("str", "cc")
            if flags[0] != "str" or flags[1] not in ("cc", "co", "oc", "oo"):
                self.fail('flags must be "cc", "co", "oc" or "oo"', item)
            lc, hc = (f == "c" for f in flags[1])
            ivs.append(self.make(Iv, a, b, lc, hc))
        return IvSet(ivs)

    def orbit(self, node) -> AsymptoticSet:
        _, head, args, kwargs, _ = node
        ratio, anchor, D = self.grid_args(kwargs)
        shape = kwargs.get("shape", args[0] if args else None)
        if shape is None:
            self.fail(f"{head}() is missing argument 1", node)
        shape = self.interval_list(shape)
        head_ivs = self.interval_list(kwargs["head"]) \
            if "head" in kwargs else None
        return self.make(AsymptoticSet, ratio, shape, head_ivs,
                         c0=anchor, D=D)

    # window profiles and tails ------------------------------------------

    def profile(self, node, lo, hi) -> Piecewise:
        """A window profile on [lo, hi]: a quoted expression in w, or a
        call of a profile row."""
        if node[0] == "str":
            return self.make(Piecewise.from_poly, lo, hi, *_wexpr(node))
        row = node[0] == "call" and _CALLS.get(node[1], {}).get("profile")
        if not row:
            self.fail("expected a window profile "
                      "(\"expr\", pl[...] or segs[...])", node)
        return row.fn(self, node)

    def entries(self, node):
        """The entries of the one list argument of a pl or segs call."""
        lst = node[2][0]
        if lst[0] != "list":
            self.fail(f"{node[1]} takes a list", node)
        return lst[1]

    def pl(self, node) -> Piecewise:
        pts = []
        for item in self.entries(node):
            if item[0] != "tuple" or len(item[1]) != 2:
                self.fail("pl entries are (w, v) pairs", item)
            pts.append((self.rat(item[1][0]), self.rat(item[1][1])))
        return self.make(Piecewise.linear_interp, pts)

    def segs(self, node) -> Piecewise:
        segs = []
        for item in self.entries(node):
            if item[0] != "list" or len(item[1]) != 3:
                self.fail('segs entries are [lo, hi, "expr"]', item)
            a, b = self.rat(item[1][0]), self.rat(item[1][1])
            if item[1][2][0] != "str":
                self.fail("segment expression must be quoted", item)
            segs.append(self.make(Seg, a, b, *_wexpr(item[1][2])))
        return self.make(Piecewise, segs)

    def pl_elem(self, node) -> PwFunction:
        g = self.profile(node, self.sn.sigma, 1)
        return self.make(PwFunction, self.sn.sigma, [TailComponent(0, 0, g)])

    def tail(self, node) -> PwFunction:
        kwargs = node[3]
        ratio, anchor, D = self.grid_args(kwargs)
        if "comps" not in kwargs or kwargs["comps"][0] != "list":
            self.fail("tail needs comps=[{s:..., r:..., g:...}, ...]", node)
        comps = []
        for item in kwargs["comps"][1]:
            if item[0] != "record":
                self.fail("each component is {s:..., r:..., g:...}", item)
            rec = item[1]
            for key in ("s", "r", "g"):
                if key not in rec:
                    self.fail(f"component is missing {key!r}", item)
            comps.append(TailComponent(
                self.intval(rec["s"]), self.intval(rec["r"]),
                self.profile(rec["g"], ratio, 1)))
        head_prof = self.profile(kwargs["head"], anchor, 1) \
            if "head" in kwargs else None
        return self.make(PwFunction, ratio, comps, head_prof,
                         c0=anchor, D=D)


# -- the call table ------------------------------------------------------


@dataclass(frozen=True)
class _Call:
    """One row of the call table, for a head and the kind it builds (set,
    elem, ideal, filter, profile or query): the kinds of the positional
    arguments, separated by spaces ("rat", "int", or a kind that `build`
    makes; a last "kind+" takes one or more, "kind?" none or one), the
    function of the built arguments, the keywords, and the keywords that
    may name the positional arguments instead, in order.  A `grid` row's
    function is a validating constructor that also takes the session's
    sigma and D.  A `node` row's function takes the builder and the call
    node and reads the arguments itself; its kinds only count them."""
    args: str
    fn: object
    keys: tuple = ()
    names: tuple = ()
    grid: bool = False
    node: bool = False

    def counts(self):
        """(least, most) positional arguments; most is None for no bound."""
        kinds = self.args.split()
        return (sum(not k.endswith("?") for k in kinds),
                None if self.args.endswith("+") else len(kinds))


def _restr_invertible(x, S):
    ok, n, delta = genconst.restr_invertible(x, S)
    return {"invertible": ok, "order": n,
            "threshold": None if delta is None else str(Q(delta))}


_GRID_KEYS = ("ratio", "anchor", "D", "head")
_CALLS = {
    # sets
    "orbit": {"set": _Call("list?", _Builder.orbit,
                           _GRID_KEYS + ("shape",), ("shape",), node=True)},
    "point": {"set": _Call("rat", AsymptoticSet.orbit_point, grid=True)},
    "full": {"set": _Call("", AsymptoticSet.full, grid=True)},
    "union": {"set": _Call("set set+", lambda *S: reduce(
        lambda s, t: s.union(t), S))},
    "intersect": {"set": _Call("set set+", lambda *S: reduce(
        lambda s, t: s.intersect(t), S))},
    "complement": {"set": _Call("set", lambda S: S.complement())},
    "interior": {"set": _Call("set", lambda S: S.interior()),
                 "filter": _Call("filter", Interior)},
    "closure": {"set": _Call("set", lambda S: S.closure()),
                "filter": _Call("filter", Closure)},
    "insert_between": {"set": _Call("set set", insert_between)},
    # elements and their window profiles
    "const": {"elem": _Call("rat", PwFunction.const, grid=True)},
    "rho": {"elem": _Call("int?", lambda n=1, **grid: PwFunction.upower(
        n, **grid), grid=True)},
    "pl": {"elem": _Call("list", _Builder.pl_elem, node=True),
           "profile": _Call("list", _Builder.pl, node=True)},
    "segs": {"profile": _Call("list", _Builder.segs, node=True)},
    "tail": {"elem": _Call("", _Builder.tail, _GRID_KEYS + ("comps",),
                           node=True)},
    # ideals and filters
    "gen": {"ideal": _Call("elem+", lambda *xs: FgIdeal(list(xs)))},
    "fg": {"filter": _Call("set+", lambda *S: FG(list(S)))},
    "ofideal": {"filter": _Call("ideal", OfIdeal)},
    # queries; the methods and genconst functions are looked up as they run
    "precedes": {"query": _Call("set set", lambda S, T: S.precedes(T))},
    "subset": {"query": _Call("set set", lambda S, T: S.subset_of(T))},
    "set_eq": {"query": _Call("set set", lambda S, T: S.set_eq(T))},
    "characteristic": {"query": _Call("set", lambda S: S.is_characteristic())},
    "valuation": {"query": _Call("elem", lambda x: "infinity" if x.valuation()
                                 is None else str(x.valuation()))},
    "negligible": {"query": _Call("elem", lambda x: x.is_negligible())},
    "sharp_dist": {"query": _Call("elem elem", lambda x, y:
                                  genconst.sharp_dist(x, y))},
    "restr_zero": {"query": _Call("elem set", lambda x, S:
                                  genconst.restr_zero(x, S))},
    "restr_invertible": {"query": _Call("elem set", _restr_invertible)},
    "eventual_sign": {"query": _Call("elem set", eventual_sign_on)},
    "idempotent": {"query": _Call("elem", lambda x:
                                  genconst.idempotent_class(x))},
    "ideal_member": {"query": _Call("elem ideal", lambda x, I: dict(
        zip(("member", "order"), ideal_member(x, I))))},
    "radical_member": {"query": _Call("elem ideal", lambda x, I: dict(
        zip(("member", "power", "order"), radical_member(x, I))))},
    "closure_member": {"query": _Call("elem ideal", closure_member)},
    "zclosure_member": {"query": _Call("elem ideal", zclosure_member)},
    "pure_member": {"query": _Call("elem ideal", lambda x, I:
                                   pure_part_member(x, I)[0])},
    "annihilator_member": {"query": _Call("elem ideal", annihilator_member)},
    "filter_member": {"query": _Call("filter set", filter_member)},
    "ideal_of_filter_member": {"query": _Call("elem filter", i_of_f_member)},
}


def execute(session: Session, statements):
    """Run statements against a session; returns one output per statement."""
    b = _Builder(session)
    out = []
    for st in statements:
        try:
            if st.kind in ("set", "elem", "ideal", "filter"):
                session.define(st.kind, st.name, b.build(st.kind, st.expr))
                out.append({"stmt": st.kind, "name": st.name})
            elif st.kind == "eval":
                x = session.lookup(st.name, "elem")
                val = b.make(x.eval, st.expr)
                out.append({"stmt": "eval", "name": st.name,
                            "at": str(st.expr), "value": str(val)})
            elif st.kind == "query":
                out.append({"stmt": "query", "head": st.expr[1],
                            "result": b.build("query", st.expr)})
            elif st.kind == "check":
                names, opts = st.expr
                reps = run_checks(names, **{k: b.intval(v)
                                            for k, v in opts.items()})
                out.append({"stmt": "check",
                            "reports": [r.to_dict() for r in reps]})
            else:
                raise ParseError(f"unknown statement kind {st.kind!r}")
        except AsymcalcError as e:
            if e.line is None:
                e.line, e.col = st.line, st.col
            raise
    return out


def run_text(session: Session, source: str):
    return execute(session, parse(source))


# -- printing (round-trips through parse) --------------------------------


def _poly_str(num, den) -> str:
    def side(p):
        if not p:
            return "0"
        terms = []
        for k, c in enumerate(p):
            if c == 0:
                continue
            cs = str(c) if c.denominator == 1 else f"({c})"
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append(f"{cs}*w")
            else:
                terms.append(f"{cs}*w^{k}")
        return " + ".join(terms) if terms else "0"
    if den == ONE:
        return side(num)
    return f"({side(num)}) / ({side(den)})"


def _profile_str(g: Piecewise) -> str:
    return "segs[" + ",".join(f'[{s.lo},{s.hi},"{_poly_str(*s.monic())}"]'
                              for s in g.segs) + "]"


def _ivset_str(ivs) -> str:
    parts = [f"[{p}]" for p in ivs.points()]
    for iv in ivs.fat_part().ivs:
        flags = ("c" if iv.lc else "o") + ("c" if iv.hc else "o")
        parts.append(f'[{iv.lo},{iv.hi},"{flags}"]')
    return "[" + ",".join(parts) + "]"


def print_object(kind, obj) -> str:
    if kind == "set":
        s = f"orbit(ratio={obj.sigma}, shape={_ivset_str(obj.shape)}"
        if obj.c0 != 1:
            s += f", anchor={obj.c0}, head={_ivset_str(obj.head)}"
        if obj.D != 1:
            s += f", D={obj.D}"
        return s + ")"
    if kind == "elem":
        comps = ",".join(
            "{s:%d, r:%d, g:%s}" % (c.s, c.r, _profile_str(c.g))
            for c in obj.comps)
        s = f"tail(ratio={obj.sigma}, comps=[{comps}]"
        if obj.c0 != 1:
            s += f", anchor={obj.c0}, head={_profile_str(obj.head)}"
        if obj.D != 1:
            s += f", D={obj.D}"
        return s + ")"
    if kind == "ideal":
        gens = ",".join(print_object("elem", g.rep) for g in obj.gens)
        return f"gen({gens})"
    if kind == "filter":
        if isinstance(obj, FG):
            return "fg(" + ",".join(print_object("set", g)
                                    for g in obj.gens) + ")"
        if isinstance(obj, OfIdeal):
            return f"ofideal({print_object('ideal', obj.ideal)})"
        if isinstance(obj, (Interior, Closure)):
            op = "interior" if isinstance(obj, Interior) else "closure"
            return f"{op}({print_object('filter', obj.of)})"
    raise TypeMismatch(f"cannot print a {kind}")


def print_session(session: Session) -> str:
    lines = []
    for name, (kind, obj) in session.symbols.items():
        lines.append(f"{kind} {name} = {print_object(kind, obj)};")
    return "\n".join(lines) + ("\n" if lines else "")
