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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction as Q

from .errors import (ParseError, PreconditionViolated, TypeMismatch,
                     UndefinedName)
from .grid import Grid
from .pwfunc import PwFunction, TailComponent
from .scaleset import AsymptoticSet, insert_between
from .window import Piecewise, Seg
from .polytools import ONE, padd, pmul, pneg, poly, ppow

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
        kind = m.lastgroup
        text = m.group()
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


# Each call's positional count (least, most; None for no bound) and the
# keywords it takes; calls not listed are unknown and fail when built.
_GRID_KEYS = ("ratio", "anchor", "D", "head")
_CALLS = {
    **dict.fromkeys(("point", "complement", "interior", "closure", "const",
                     "pl", "segs", "ofideal", "characteristic", "valuation",
                     "negligible", "idempotent"), (1, 1, ())),
    **dict.fromkeys(("insert_between", "precedes", "subset", "set_eq",
                     "sharp_dist", "restr_zero", "restr_invertible",
                     "eventual_sign", "ideal_member", "radical_member",
                     "closure_member", "zclosure_member", "pure_member",
                     "annihilator_member", "filter_member",
                     "ideal_of_filter_member"), (2, 2, ())),
    **dict.fromkeys(("union", "intersect"), (2, None, ())),
    **dict.fromkeys(("gen", "fg"), (1, None, ())),
    "full": (0, 0, ()),
    "rho": (0, 1, ()),
    "orbit": (0, 1, _GRID_KEYS + ("shape",)),
    "tail": (0, 0, _GRID_KEYS + ("comps",)),
}
_CHECK_OPTIONS = ("seed", "size")


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, tok=None):
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
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
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
                lst = self.bracket_list()
                return ("call", t.text, [lst], {}, t)
            return ("name", t.text, t)
        self.fail(f"unexpected token {t.text!r}", t)

    def call(self, head: Token):
        self.expect("(")
        args, kwargs = [], {}
        while self.peek().text != ")":
            t = self.peek()
            if t.kind == "name" and self.toks[self.i + 1].text == "=":
                self.next()
                self.next()
                kwargs[t.text] = self.value()
            else:
                if kwargs:
                    self.fail("positional argument after keyword", t)
                args.append(self.value())
            if self.peek().text == ",":
                self.next()
        self.expect(")")
        if head.text in _CALLS:
            least, most, keys = _CALLS[head.text]
            for k in kwargs:
                if k not in keys:
                    self.fail(f"{head.text}() takes no keyword {k!r}", head)
            if len(args) < least or (most is not None and len(args) > most):
                want = f"at least {least}" if most is None else \
                    str(least) if least == most else f"{least} or {most}"
                self.fail(f"{head.text}() takes {want} positional "
                          f"arguments, {len(args)} given", head)
        return ("call", head.text, args, kwargs, head)

    def bracket_list(self):
        t = self.expect("[")
        items = []
        while self.peek().text != "]":
            if self.peek().text == "(":
                self.next()
                tup = []
                while self.peek().text != ")":
                    tup.append(self.value())
                    if self.peek().text == ",":
                        self.next()
                self.expect(")")
                items.append(("tuple", tup, t))
            else:
                items.append(self.value())
            if self.peek().text == ",":
                self.next()
        self.expect("]")
        return ("list", items, t)

    def record(self):
        t = self.expect("{")
        rec = {}
        while self.peek().text != "}":
            key = self.expect_name()
            self.expect(":")
            rec[key.text] = self.value()
            if self.peek().text == ",":
                self.next()
        self.expect("}")
        return ("record", rec, t)

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
            names = []
            opts = {}
            while self.peek().text != ";":
                n = self.expect_name()
                # check names may be hyphenated, e.g. interior-closure
                text = n.text
                while self.peek().text == "-":
                    self.next()
                    text += "-" + self.expect_name().text
                n = Token(n.kind, text, n.line, n.col)
                if self.peek().text == "=":
                    if n.text not in _CHECK_OPTIONS:
                        self.fail(f"check takes no option {n.text!r}", n)
                    self.next()
                    opts[n.text] = self.value()
                else:
                    names.append(n.text)
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


# -- window expressions --------------------------------------------------


def _wexpr(text: str, tok: Token):
    """Parse a restricted expression in w into a rational function
    (num, den) coefficient pair."""
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def nxt():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def fail(msg):
        raise ParseError(f"in window expression {text!r}: {msg}",
                         tok.line, tok.col)

    def atom():
        t = nxt()
        if t.text == "(":
            v = expr()
            if nxt().text != ")":
                fail("unbalanced parenthesis")
            return v
        if t.text == "w":
            return ((0, 1), ONE)
        if t.kind == "num":
            return (poly(int(t.text)), ONE)
        fail(f"unexpected {t.text!r}")

    def factor():
        if peek().text == "-":
            nxt()
            n, d = factor()
            return (pneg(n), d)
        n, d = atom()
        if peek().text == "^":
            nxt()
            e = nxt()
            if e.kind != "num":
                fail("exponent must be a nonnegative integer")
            k = int(e.text)
            return (ppow(n, k), ppow(d, k))
        return (n, d)

    def term():
        n, d = factor()
        while peek().text in ("*", "/"):
            op = nxt().text
            n2, d2 = factor()
            if op == "*":
                n, d = pmul(n, n2), pmul(d, d2)
            else:
                if not n2:
                    fail("division by the zero function")
                n, d = pmul(n, d2), pmul(d, n2)
        return (n, d)

    def expr():
        n, d = term()
        while peek().text in ("+", "-"):
            op = nxt().text
            n2, d2 = term()
            if op == "-":
                n2 = pneg(n2)
            n = padd(pmul(n, d2), pmul(n2, d))
            d = pmul(d, d2)
        return (n, d)

    v = expr()
    if peek().kind != "eof":
        fail(f"trailing input {peek().text!r}")
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
            raise TypeMismatch(f"{name!r} is a {k}, expected a {kind}")
        return obj


class _Builder:
    def __init__(self, session: Session):
        self.sn = session
        self.at = (None, None)

    def fail(self, msg, node):
        tok = node[-1] if isinstance(node[-1], Token) else None
        if tok is not None:
            raise ParseError(msg, tok.line, tok.col)
        raise ParseError(msg)

    def make(self, ctor, *args, **kwargs):
        """Call a validating constructor; its ValueError is a ParseError."""
        try:
            return ctor(*args, **kwargs)
        except ValueError as e:
            raise ParseError(str(e), *self.at) from None

    def arg(self, node, i: int):
        """The i-th positional argument of the call `node`."""
        if i >= len(node[2]):
            self.fail(f"{node[1]}() is missing argument {i + 1}", node)
        return node[2][i]

    def rat(self, node) -> Q:
        if node[0] != "rat":
            self.fail("expected a rational", node)
        return node[1]

    def intval(self, node) -> int:
        q = self.rat(node)
        if q.denominator != 1:
            self.fail("expected an integer", node)
        return int(q)

    def grid_args(self, kwargs):
        """(ratio, anchor, D) of an orbit or a tail; the session grid and
        anchor 1 by default."""
        ratio = self.rat(kwargs["ratio"]) if "ratio" in kwargs \
            else self.sn.sigma
        anchor = self.rat(kwargs["anchor"]) if "anchor" in kwargs else Q(1)
        D = self.intval(kwargs["D"]) if "D" in kwargs else self.sn.D
        return ratio, anchor, D

    # intervals and shapes ----------------------------------------------

    def interval_list(self, node):
        from .ivset import Iv, IvSet
        if node[0] != "list":
            self.fail("expected a list of intervals", node)
        ivs = IvSet.empty()
        for item in node[1]:
            if item[0] != "list":
                self.fail("each interval is [a,b], [a,b,\"flags\"] "
                          "or [p]", item)
            parts = item[1] * 2 if len(item[1]) == 1 else item[1]
            if len(parts) not in (2, 3):
                self.fail("each interval is [a,b], [a,b,\"flags\"] "
                          "or [p]", item)
            a, b = self.rat(parts[0]), self.rat(parts[1])
            lc = hc = True
            if len(parts) == 3:
                if parts[2][0] != "str" or parts[2][1] not in \
                        ("cc", "co", "oc", "oo"):
                    self.fail('flags must be "cc", "co", "oc" or "oo"',
                              item)
                lc = parts[2][1][0] == "c"
                hc = parts[2][1][1] == "c"
            ivs = ivs.union(IvSet([self.make(Iv, a, b, lc, hc)]))
        return ivs

    # sets ---------------------------------------------------------------

    def build_set(self, node) -> AsymptoticSet:
        if node[0] == "name":
            return self.sn.lookup(node[1], "set")
        if node[0] != "call":
            self.fail("expected a set expression", node)
        _, head, args, kwargs, tok = node
        if head == "orbit":
            ratio, anchor, D = self.grid_args(kwargs)
            shape = self.interval_list(kwargs["shape"]) if "shape" in kwargs \
                else self.interval_list(self.arg(node, 0))
            head_ivs = self.interval_list(kwargs["head"]) \
                if "head" in kwargs else None
            return self.make(AsymptoticSet, ratio, shape, head_ivs,
                             c0=anchor, D=D)
        if head == "point":
            return self.make(AsymptoticSet.orbit_point,
                             self.rat(self.arg(node, 0)),
                             self.sn.sigma, D=self.sn.D)
        if head == "full":
            return AsymptoticSet.full(self.sn.sigma, D=self.sn.D)
        if head in ("union", "intersect"):
            sets = [self.build_set(a) for a in args]
            out = sets[0]
            for s in sets[1:]:
                out = out.union(s) if head == "union" else out.intersect(s)
            return out
        if head in ("complement", "interior", "closure"):
            return getattr(self.build_set(self.arg(node, 0)), head)()
        if head == "insert_between":
            return insert_between(self.build_set(self.arg(node, 0)),
                                  self.build_set(self.arg(node, 1)))
        self.fail(f"unknown set constructor {head!r}", node)

    # window profiles ----------------------------------------------------

    def build_profile(self, node, lo, hi) -> Piecewise:
        if node[0] == "str":
            num, den = _wexpr(node[1], node[2])
            return self.make(Piecewise.from_poly, lo, hi, num, den)
        if node[0] == "call" and node[1] in ("pl", "segs"):
            lst = self.arg(node, 0)
            if lst[0] != "list":
                self.fail(f"{node[1]} takes a list", node)
            if node[1] == "pl":
                pts = []
                for item in lst[1]:
                    if item[0] != "tuple" or len(item[1]) != 2:
                        self.fail("pl entries are (w, v) pairs", item)
                    pts.append((self.rat(item[1][0]), self.rat(item[1][1])))
                return self.make(Piecewise.linear_interp, pts)
            segs = []
            for item in lst[1]:
                if item[0] != "list" or len(item[1]) != 3:
                    self.fail('segs entries are [lo, hi, "expr"]', item)
                a, b = self.rat(item[1][0]), self.rat(item[1][1])
                if item[1][2][0] != "str":
                    self.fail("segment expression must be quoted", item)
                num, den = _wexpr(item[1][2][1], item[1][2][2])
                segs.append(self.make(Seg, a, b, num, den))
            return self.make(Piecewise, segs)
        self.fail("expected a window profile "
                  "(\"expr\", pl[...] or segs[...])", node)

    # elements -----------------------------------------------------------

    def build_elem(self, node) -> PwFunction:
        if node[0] == "name":
            if node[1] == "rho":
                return PwFunction.upower(1, self.sn.sigma, self.sn.D)
            return self.sn.lookup(node[1], "elem")
        if node[0] != "call":
            self.fail("expected an element expression", node)
        _, head, args, kwargs, tok = node
        if head == "const":
            return PwFunction.const(self.rat(self.arg(node, 0)),
                                    self.sn.sigma, self.sn.D)
        if head == "rho":
            n = self.intval(args[0]) if args else 1
            return PwFunction.upower(n, self.sn.sigma, self.sn.D)
        if head == "pl":
            ratio = self.sn.sigma
            prof = self.build_profile(node, ratio, 1)
            return self.make(PwFunction, ratio, [TailComponent(0, 0, prof)])
        if head == "tail":
            ratio, anchor, D = self.grid_args(kwargs)
            if "comps" not in kwargs or kwargs["comps"][0] != "list":
                self.fail("tail needs comps=[{s:..., r:..., g:...}, ...]",
                          node)
            comps = []
            for item in kwargs["comps"][1]:
                if item[0] != "record":
                    self.fail("each component is {s:..., r:..., g:...}",
                              item)
                rec = item[1]
                for key in ("s", "r", "g"):
                    if key not in rec:
                        self.fail(f"component is missing {key!r}", item)
                comps.append(TailComponent(
                    self.intval(rec["s"]), self.intval(rec["r"]),
                    self.build_profile(rec["g"], ratio, 1)))
            head_prof = None
            if "head" in kwargs:
                head_prof = self.build_profile(kwargs["head"], anchor, 1)
            return self.make(PwFunction, ratio, comps, head_prof,
                             c0=anchor, D=D)
        self.fail(f"unknown element constructor {head!r}", node)

    # ideals and filters -------------------------------------------------

    def build_ideal(self, node):
        from .ideal import FgIdeal
        if node[0] == "name":
            return self.sn.lookup(node[1], "ideal")
        if node[0] == "call" and node[1] == "gen":
            return FgIdeal([self.build_elem(a) for a in node[2]])
        self.fail("expected an ideal expression", node)

    def build_filter(self, node):
        from .afilter import FG, Closure, Interior, OfIdeal
        if node[0] == "name":
            return self.sn.lookup(node[1], "filter")
        if node[0] != "call":
            self.fail("expected a filter expression", node)
        _, head, args, kwargs, tok = node
        if head == "fg":
            return FG([self.build_set(a) for a in args])
        if head == "ofideal":
            return OfIdeal(self.build_ideal(self.arg(node, 0)))
        if head == "interior":
            return Interior(self.build_filter(self.arg(node, 0)))
        if head == "closure":
            return Closure(self.build_filter(self.arg(node, 0)))
        self.fail(f"unknown filter constructor {head!r}", node)


# -- queries -------------------------------------------------------------


def _run_query(b: _Builder, node):
    from . import genconst
    from .afilter import filter_member, i_of_f_member
    from .ideal import (annihilator_member, closure_member, ideal_member,
                        pure_part_member, radical_member, zclosure_member)
    _, head, _, _, tok = node

    def S(i):
        return b.build_set(b.arg(node, i))

    def E(i):
        return b.build_elem(b.arg(node, i))

    def I(i):
        return b.build_ideal(b.arg(node, i))

    if head == "precedes":
        return S(0).precedes(S(1))
    if head == "subset":
        return S(0).subset_of(S(1))
    if head == "set_eq":
        return S(0).set_eq(S(1))
    if head == "characteristic":
        return S(0).is_characteristic()
    if head == "valuation":
        v = E(0).valuation()
        return "infinity" if v is None else str(v)
    if head == "negligible":
        return E(0).is_negligible()
    if head == "sharp_dist":
        return genconst.sharp_dist(E(0), E(1))
    if head == "restr_zero":
        return genconst.restr_zero(E(0), S(1))
    if head == "restr_invertible":
        ok, n, delta = genconst.restr_invertible(E(0), S(1))
        return {"invertible": ok, "order": n,
                "threshold": None if delta is None else str(Q(delta))}
    if head == "eventual_sign":
        from .signs import eventual_sign_on
        return eventual_sign_on(E(0), S(1))
    if head == "idempotent":
        return genconst.idempotent_class(E(0))
    if head == "ideal_member":
        ok, n = ideal_member(E(0), I(1))
        return {"member": ok, "order": n}
    if head == "radical_member":
        ok, m, n = radical_member(E(0), I(1))
        return {"member": ok, "power": m, "order": n}
    if head == "closure_member":
        return closure_member(E(0), I(1))
    if head == "zclosure_member":
        return zclosure_member(E(0), I(1))
    if head == "pure_member":
        ok, _ = pure_part_member(E(0), I(1))
        return ok
    if head == "annihilator_member":
        return annihilator_member(E(0), I(1))
    if head == "filter_member":
        return filter_member(b.build_filter(b.arg(node, 0)), S(1))
    if head == "ideal_of_filter_member":
        return i_of_f_member(E(0), b.build_filter(b.arg(node, 1)))
    raise ParseError(f"unknown query {head!r}", tok.line, tok.col)


def _run_check(b: _Builder, names, opts):
    from .verify import run_checks
    seed = b.intval(opts["seed"]) if "seed" in opts else 0
    size = b.intval(opts["size"]) if "size" in opts else 24
    which = "all" if (not names or names == ["all"]) else names
    reps = run_checks(which, seed=seed, size=size)
    return [r.to_dict() for r in reps]


def execute(session: Session, statements):
    """Run statements against a session; returns one output per statement."""
    b = _Builder(session)
    out = []
    for st in statements:
        b.at = (st.line, st.col)
        if st.kind in ("set", "elem", "ideal", "filter"):
            build = getattr(b, f"build_{st.kind}")
            session.define(st.kind, st.name, build(st.expr))
            out.append({"stmt": st.kind, "name": st.name})
        elif st.kind == "eval":
            x = session.lookup(st.name, "elem")
            val = b.make(x.eval, st.expr)
            out.append({"stmt": "eval", "name": st.name,
                        "at": str(st.expr), "value": str(val)})
        elif st.kind == "query":
            res = _run_query(b, st.expr)
            out.append({"stmt": "query", "head": st.expr[1], "result": res})
        elif st.kind == "check":
            names, opts = st.expr
            out.append({"stmt": "check", "reports": _run_check(b, names,
                                                               opts)})
        else:
            raise ParseError(f"unknown statement kind {st.kind!r}",
                             st.line, st.col)
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
    parts = []
    for s in g.segs:
        parts.append(f'[{s.lo},{s.hi},"{_poly_str(*s.monic())}"]')
    return "segs[" + ",".join(parts) + "]"


def _ivset_str(ivs) -> str:
    parts = []
    for p in ivs.points():
        parts.append(f"[{p}]")
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
        from .afilter import FG, Closure, Interior, OfIdeal
        if isinstance(obj, FG):
            return "fg(" + ",".join(print_object("set", g)
                                    for g in obj.gens) + ")"
        if isinstance(obj, OfIdeal):
            return f"ofideal({print_object('ideal', obj.ideal)})"
        if isinstance(obj, Interior):
            return f"interior({print_object('filter', obj.of)})"
        if isinstance(obj, Closure):
            return f"closure({print_object('filter', obj.of)})"
    raise TypeMismatch(f"cannot print a {kind}")


def print_session(session: Session) -> str:
    lines = []
    for name, (kind, obj) in session.symbols.items():
        lines.append(f"{kind} {name} = {print_object(kind, obj)};")
    return "\n".join(lines) + ("\n" if lines else "")
