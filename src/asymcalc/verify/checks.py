"""Named invariant checks over seeded corpora.

Each check draws its instances deterministically from corpus_generate
and records exact failures (with serialized witnesses) in a CheckReport.
Numeric corroboration that cannot decide an instance is counted as
inconclusive, never as a failure of the exact engine.
"""

import random
import time
from fractions import Fraction as Q

from ..afilter import (FG, Closure, Interior, filter_member, rapid_element,
                       rapid_witness, refuting_cover)
from ..errors import (AsymcalcError, ImproperFilter, ModulusViolated,
                      PreconditionViolated, ProductNotZero,
                      RepresentabilityError, SearchBoundExceeded,
                      UnknownCheck)
from ..genconst import (GenConstant, cauchy_glue, extend_invertible,
                        extend_zero, invert_on, restr_invertible, restr_zero,
                        zero_product_split)
from ..ideal import (FgIdeal, closure_member, f_of_I_member, ideal_member,
                     pure_part_member, radical_member, zclosure_member)
from ..pwfunc import PwFunction
from ..scaleset import AsymptoticSet, distance_profile, insert_between
from .corpus import corpus_generate, pair_stream, q64, random_set, tent
from .oracle import (OracleConfig, oracle_valuation, oracle_vanishes_on)
from .report import CheckReport

__all__ = ["run_checks", "available_checks", "ideal_of_fg"]


def ideal_of_fg(F: FG) -> FgIdeal:
    """A finitely generated ideal whose zero set is the filter base."""
    return FgIdeal([distance_profile(F.base())])


# -- individual checks ---------------------------------------------------


def _check_valuation_oracle(corpus, rng, rep):
    grid = OracleConfig(depth=800, window=80)
    for x in corpus.elements[:20]:
        rep.instances += 1
        v = x.valuation()
        try:
            est = oracle_valuation(x, grid)
        except AsymcalcError:
            rep.inconclusive += 1
            continue
        if not est.contains(v):
            rep.record_failure(element=x, exact=str(v),
                               interval=[est.lo, est.hi])


def _check_restr_zero_oracle(corpus, rng, rep):
    grid = OracleConfig(depth=400, window=40)
    pairs = pair_stream(rng, corpus)
    for _ in range(30):
        x, S = next(pairs)
        if not S.is_characteristic():
            continue
        rep.instances += 1
        exact = restr_zero(x, S)
        shadow = oracle_vanishes_on(x, S, grid)
        if shadow is None:
            rep.inconclusive += 1
        elif shadow != exact:
            rep.record_failure(element=x, set=S, exact=exact, oracle=shadow)


def _check_inv_char(corpus, rng, rep):
    pairs = pair_stream(rng, corpus)
    for _ in range(25):
        x, S = next(pairs)
        if not S.is_characteristic():
            continue
        rep.instances += 1
        ok, n, delta = restr_invertible(x, S)
        try:
            y = invert_on(x, S)
            built = True
        except PreconditionViolated:
            built = False
        except RepresentabilityError:
            rep.inconclusive += 1
            continue
        if built != ok:
            rep.record_failure(element=x, set=S, predicate=ok,
                               constructed=built)
            continue
        if built and not restr_zero((GenConstant(x) * y
                                     - GenConstant.const(1, x.sigma)).rep, S):
            rep.record_failure(element=x, set=S, reason="bad inverse")


def _check_duality(corpus, rng, rep):
    for _ in range(60):
        S = random_set(rng)
        T = random_set(rng)
        rep.instances += 1
        lhs = S.precedes(T)
        rhs = T.complement_like(S).precedes(S.complement_like(T))
        if lhs != rhs:
            rep.record_failure(S=S, T=T, lhs=lhs, rhs=rhs)
        if lhs and S.is_characteristic():
            M = insert_between(S, T)
            if not (S.precedes(M) and M.precedes(T)):
                rep.record_failure(S=S, T=T, mid=M, reason="not between")


def _check_extension(corpus, rng, rep):
    pairs = pair_stream(rng, corpus)
    for _ in range(20):
        x, S = next(pairs)
        if not S.is_characteristic():
            continue
        rep.instances += 1
        if restr_invertible(x, S)[0]:
            try:
                T = extend_invertible(x, S)
            except RepresentabilityError:
                rep.inconclusive += 1
                continue
            if not (S.precedes(T) and restr_invertible(x, T)[0]):
                rep.record_failure(element=x, set=S, ext=T, kind="inv")
        elif restr_zero(x, S):
            try:
                T = extend_zero(x, S)
            except RepresentabilityError:
                rep.inconclusive += 1
                continue
            if not (S.precedes(T) and restr_zero(x, T)):
                rep.record_failure(element=x, set=S, ext=T, kind="zero")


def _disjoint_tents(rng):
    cuts = sorted({q64(rng) for _ in range(6)})
    while len(cuts) < 6:
        cuts = sorted(set(cuts) | {q64(rng)})
    return tent(*cuts[:3]), tent(*cuts[3:])


def _check_zero_product(corpus, rng, rep):
    for _ in range(15):
        a, b = _disjoint_tents(rng)
        rep.instances += 1
        try:
            T, U = zero_product_split(a, b)
        except (ProductNotZero, RepresentabilityError):
            rep.inconclusive += 1
            continue
        full = AsymptoticSet.full()
        if not full.subset_of(T.interior().union(U.interior())):
            rep.record_failure(a=a, b=b, reason="interiors do not cover")
        if not (restr_zero(a, T) and restr_zero(b, U)):
            rep.record_failure(a=a, b=b, reason="restriction not zero")


def _check_filter_ideal_galois(corpus, rng, rep):
    fgs = [f for f in corpus.filters if isinstance(f, FG)][:5]
    while len(fgs) < 3:
        fgs.append(FG([random_set(rng).closure()]))
    for F in fgs:
        I = ideal_of_fg(F)
        for _ in range(8):
            S = random_set(rng).closure()
            rep.instances += 1
            via_ideal = f_of_I_member(S, I)
            direct = filter_member(Interior(F).normalize(), S)
            if via_ideal != direct:
                rep.record_failure(filter=repr(F), probe=S,
                                   via_ideal=via_ideal, direct=direct)


def _check_interior_closure(corpus, rng, rep):
    for F in corpus.filters[:8]:
        for _ in range(6):
            S = random_set(rng).closure()
            rep.instances += 1
            a = filter_member(Closure(Interior(F)).normalize(), S)
            b = filter_member(Closure(F).normalize(), S)
            if a != b:
                rep.record_failure(filter=repr(F), probe=S,
                                   law="cl int = cl", lhs=a, rhs=b)
            c = filter_member(Interior(Closure(F)).normalize(), S)
            d = filter_member(Interior(F).normalize(), S)
            if c != d:
                rep.record_failure(filter=repr(F), probe=S,
                                   law="int cl = int", lhs=c, rhs=d)


def _check_prime_ideal_char(corpus, rng, rep):
    full = AsymptoticSet.full()
    for F in corpus.filters[:6]:
        rep.instances += 1
        try:
            ce = refuting_cover(F)
        except ImproperFilter:
            # a filter is improper exactly when it holds the empty set
            if not filter_member(F, AsymptoticSet.empty()):
                rep.record_failure(filter=repr(F),
                                   reason="proper filter called improper")
            continue
        S, T = ce.S, ce.T
        if not filter_member(F, S.union(T)):
            rep.record_failure(filter=repr(F), S=S, T=T,
                               reason="union outside the filter")
        if not full.subset_of(S.interior().union(T.interior())):
            rep.record_failure(filter=repr(F), S=S, T=T,
                               reason="interiors do not cover")
        if filter_member(F, S) or filter_member(F, T):
            rep.record_failure(filter=repr(F), S=S, T=T,
                               reason="a part lies in the filter")


def _check_rapid(corpus, rng, rep):
    chain = [AsymptoticSet.orbit_interval(Q(40 - k, 64), Q(48 + k, 64))
             for k in range(4, 0, -1)]
    F = FG([c.closure() for c in chain])
    rep.instances += 1
    base = rapid_witness(F, chain)
    if not base.set_eq(chain[-1]):
        rep.record_failure(reason="witness is not the chain base")
    phi = rapid_element(chain)
    if phi.rep.is_negligible():
        rep.record_failure(reason="rapid element collapsed to zero")
    fgs = [f for f in corpus.filters if isinstance(f, FG)][:4]
    while len(fgs) < 2:
        fgs.append(FG([random_set(rng).closure()]))
    for F in fgs:
        rep.instances += 1
        G = F.base()
        try:
            rapid_witness(F, [G])
        except AsymcalcError as e:
            rep.record_failure(filter=repr(F), error=str(e))


def _check_purity(corpus, rng, rep):
    for I in corpus.ideals[:6]:
        for x in corpus.elements[:6]:
            rep.instances += 1
            try:
                pure, wit = pure_part_member(x, I)
            except (AsymcalcError,):
                rep.inconclusive += 1
                continue
            if pure and wit is not None:
                prod = GenConstant(x) * wit
                if not prod.rep.equiv((GenConstant(x)).rep):
                    rep.record_failure(element=x, reason="x*y != x")
                if not ideal_member(wit.rep, I)[0]:
                    rep.record_failure(element=x, reason="witness not in I")
            if pure and len(x.comps) <= 2:
                # powers of wide elements are too expensive to probe
                try:
                    rad, _, _ = radical_member(x, I, mmax=4)
                except SearchBoundExceeded:
                    rep.inconclusive += 1
                    continue
                if not rad:
                    rep.record_failure(element=x, reason="pure not radical")
            zc = zclosure_member(x, I)
            if zc != closure_member(x, I):
                rep.record_failure(element=x, reason="zclosure != closure")


def _check_cauchy(corpus, rng, rep):
    for _ in range(6):
        rep.instances += 1
        x0 = rng.choice(corpus.elements)
        base = GenConstant(x0)
        xs = [base]
        for n in range(1, 5):
            xs.append(xs[-1] + GenConstant(PwFunction.upower(n + 1)))
        moduli = [Q(1, 2 ** n) for n in range(len(xs))]
        try:
            s = cauchy_glue(xs, moduli)
        except ModulusViolated:
            rep.inconclusive += 1
            continue
        for n, xn in enumerate(xs):
            d = (s - xn).rep
            v = d.valuation()
            if v is not None and v < n - 2:
                rep.record_failure(prefix=n, valuation=str(v))


_REGISTRY = {
    "valuation-oracle": (
        _check_valuation_oracle,
        "numeric slope estimates bracket exact valuations"),
    "restr-zero-oracle": (
        _check_restr_zero_oracle,
        "grid thresholding agrees with exact restriction-to-zero"),
    "inv-char": (
        _check_inv_char,
        "invertibility predicate matches constructive inversion"),
    "ext-eltair-duality": (
        _check_duality,
        "extension order is dual under complement and dense"),
    "extension": (
        _check_extension,
        "zero/invertible loci extend strictly beyond any trace"),
    "zero-product": (
        _check_zero_product,
        "zero divisors split along covering interior supports"),
    "filter-ideal-galois": (
        _check_filter_ideal_galois,
        "filters of realized ideals agree with filter interiors"),
    "interior-closure": (
        _check_interior_closure,
        "interior/closure operators are idempotent and absorbing"),
    "prime-ideal-char": (
        _check_prime_ideal_char,
        "every proper filter has a cover refuting primality and "
        "pseudoprimality"),
    "rapid-chain": (
        _check_rapid,
        "descending chains admit rapid elements and witnesses"),
    "purity": (
        _check_purity,
        "pure parts are radical and carry multiplicative witnesses"),
    "cauchy-glue": (
        _check_cauchy,
        "glued limits stay within the stated moduli"),
}


def available_checks():
    return sorted(_REGISTRY)


def run_checks(names, seed: int = 0, size: int = 24):
    """Run named checks (or all of them) and return CheckReport objects."""
    if names in ("all", None):
        names = available_checks()
    if isinstance(names, str):
        names = [names]
    for n in names:
        if n not in _REGISTRY:
            raise UnknownCheck(f"no check named {n!r}; choose from "
                               f"{', '.join(available_checks())}")
    corpus = corpus_generate(seed, size)
    out = []
    for n in names:
        fn, anchor = _REGISTRY[n]
        rep = CheckReport(name=n, anchor=anchor, seed=seed)
        rng = random.Random(f"asymcalc-check-{n}-{seed}")
        t0 = time.perf_counter()
        fn(corpus, rng, rep)
        rep.wall_time = time.perf_counter() - t0
        out.append(rep)
    return out
