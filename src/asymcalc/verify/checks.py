"""Named invariant checks over seeded corpora.

Each check draws its instances deterministically from corpus_generate
and records exact failures (with serialized witnesses) in a CheckReport.
Numeric corroboration that cannot decide an instance is counted as
inconclusive, never as a failure of the exact engine.

A statement that a check and an acceptance criterion both test has one
per-instance body ``(rep, *instance)``, which counts the instance and
records its failures and inconclusive outcomes; the check's loop and the
criterion's loop each call it.  The bodies, with check and criterion:
`duality_instance` (ext-eltair-duality, c01), `inv_char_instance`
(inv-char, c02), `extension_instance` (extension, c03),
`zero_product_instance` (zero-product, c04), `galois_instance`
(filter-ideal-galois, c05), `interior_closure_instance` (interior-closure,
c06), `prime_cover_instance` (prime-ideal-char, c07) and `cauchy_instance`
(cauchy-glue, c10).  The other four checks test other statements or
tolerances than their nearest criteria and keep their own loops.
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


# -- per-instance bodies shared with the acceptance criteria -------------


def duality_instance(rep, S, T):
    """S precedes T exactly when the complement of T (on the grid of S)
    precedes that of S, and `insert_between` lands strictly between."""
    rep.instances += 1
    lhs = S.precedes(T)
    rhs = T.complement_like(S).precedes(S.complement_like(T))
    if lhs != rhs:
        rep.record_failure(S=S, T=T, lhs=lhs, rhs=rhs)
    if lhs and S.is_characteristic():
        M = insert_between(S, T)
        if not (S.precedes(M) and M.precedes(T)):
            rep.record_failure(S=S, T=T, mid=M, reason="not between")


def inv_char_instance(rep, x, S):
    """`invert_on` builds an exact inverse on S exactly when
    `restr_invertible` holds; inconclusive when the inverse is not
    representable.  Returns the predicate and its order (ok, n)."""
    rep.instances += 1
    ok, n, _ = restr_invertible(x, S)
    try:
        y = invert_on(x, S)
        built = True
    except PreconditionViolated:
        built = False
    except RepresentabilityError:
        rep.inconclusive += 1
        return ok, n
    if built != ok:
        rep.record_failure(element=x, set=S, predicate=ok, constructed=built)
    elif built and not restr_zero((GenConstant(x) * y
                                   - GenConstant.const(1, x.sigma)).rep, S):
        rep.record_failure(element=x, set=S, reason="bad inverse")
    return ok, n


def extension_instance(rep, x, S):
    """An invertible (or vanishing) restriction of x to S extends to a set
    T that S precedes and on which x stays invertible (or vanishes);
    inconclusive when T is not representable."""
    rep.instances += 1
    if restr_invertible(x, S)[0]:
        try:
            T = extend_invertible(x, S)
        except RepresentabilityError:
            rep.inconclusive += 1
            return
        if not (S.precedes(T) and restr_invertible(x, T)[0]):
            rep.record_failure(element=x, set=S, ext=T, kind="inv")
    elif restr_zero(x, S):
        try:
            T = extend_zero(x, S)
        except RepresentabilityError:
            rep.inconclusive += 1
            return
        if not (S.precedes(T) and restr_zero(x, T)):
            rep.record_failure(element=x, set=S, ext=T, kind="zero")


def zero_product_instance(rep, a, b):
    """`zero_product_split` of a zero product gives parts T, U whose
    interiors cover and on which a and b vanish."""
    rep.instances += 1
    try:
        T, U = zero_product_split(a, b)
    except (ProductNotZero, RepresentabilityError):
        rep.inconclusive += 1
        return
    if not AsymptoticSet.full().subset_of(T.interior().union(U.interior())):
        rep.record_failure(a=a, b=b, reason="interiors do not cover")
    if not (restr_zero(a, T) and restr_zero(b, U)):
        rep.record_failure(a=a, b=b, reason="restriction not zero")


def galois_instance(rep, F, I, S):
    """The invertibility filter of I = `ideal_of_fg(F)` holds the closed
    set S exactly when the interior of F does."""
    rep.instances += 1
    via_ideal = f_of_I_member(S, I)
    direct = filter_member(Interior(F), S)
    if via_ideal != direct:
        rep.record_failure(filter=repr(F), probe=S,
                           via_ideal=via_ideal, direct=direct)


def interior_closure_instance(rep, F, S):
    """cl int F = cl F and int cl F = int F, probed at the closed set S."""
    rep.instances += 1
    a = filter_member(Closure(Interior(F)), S)
    b = filter_member(Closure(F), S)
    if a != b:
        rep.record_failure(filter=repr(F), probe=S,
                           law="cl int = cl", lhs=a, rhs=b)
    c = filter_member(Interior(Closure(F)), S)
    d = filter_member(Interior(F), S)
    if c != d:
        rep.record_failure(filter=repr(F), probe=S,
                           law="int cl = int", lhs=c, rhs=d)


def prime_cover_instance(rep, F):
    """`refuting_cover(F)` gives parts S, T outside F whose union lies in F
    and whose interiors cover; an improper F must hold the empty set.
    Returns the cover, or None for an improper filter."""
    rep.instances += 1
    try:
        ce = refuting_cover(F)
    except ImproperFilter:
        # a filter is improper exactly when it holds the empty set
        if not filter_member(F, AsymptoticSet.empty()):
            rep.record_failure(filter=repr(F),
                               reason="proper filter called improper")
        return None
    S, T = ce.S, ce.T
    if not filter_member(F, S.union(T)):
        rep.record_failure(filter=repr(F), S=S, T=T,
                           reason="union outside the filter")
    if not AsymptoticSet.full().subset_of(S.interior().union(T.interior())):
        rep.record_failure(filter=repr(F), S=S, T=T,
                           reason="interiors do not cover")
    if filter_member(F, S) or filter_member(F, T):
        rep.record_failure(filter=repr(F), S=S, T=T,
                           reason="a part lies in the filter")
    return ce


def cauchy_instance(rep, xs):
    """The limit glued from xs under the moduli 2^-n differs from the n-th
    term by valuation at least n - 2; inconclusive when the sequence
    breaks the moduli."""
    rep.instances += 1
    moduli = [Q(1, 2 ** n) for n in range(len(xs))]
    try:
        s = cauchy_glue(xs, moduli)
    except ModulusViolated:
        rep.inconclusive += 1
        return
    for n, xn in enumerate(xs):
        v = (s - xn).rep.valuation()
        if v is not None and v < n - 2:
            rep.record_failure(prefix=n, valuation=str(v))


# -- individual checks ---------------------------------------------------


def _characteristic_pairs(corpus, rng, n):
    """The pairs with a characteristic set among n draws of pair_stream."""
    pairs = pair_stream(rng, corpus)
    for _ in range(n):
        x, S = next(pairs)
        if S.is_characteristic():
            yield x, S


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
    for x, S in _characteristic_pairs(corpus, rng, 30):
        rep.instances += 1
        exact = restr_zero(x, S)
        shadow = oracle_vanishes_on(x, S, grid)
        if shadow is None:
            rep.inconclusive += 1
        elif shadow != exact:
            rep.record_failure(element=x, set=S, exact=exact, oracle=shadow)


def _check_inv_char(corpus, rng, rep):
    for x, S in _characteristic_pairs(corpus, rng, 25):
        inv_char_instance(rep, x, S)


def _check_duality(corpus, rng, rep):
    for _ in range(60):
        duality_instance(rep, random_set(rng), random_set(rng))


def _check_extension(corpus, rng, rep):
    for x, S in _characteristic_pairs(corpus, rng, 20):
        extension_instance(rep, x, S)


def _disjoint_tents(rng):
    cuts = sorted({q64(rng) for _ in range(6)})
    while len(cuts) < 6:
        cuts = sorted(set(cuts) | {q64(rng)})
    return tent(*cuts[:3]), tent(*cuts[3:])


def _check_zero_product(corpus, rng, rep):
    for _ in range(15):
        zero_product_instance(rep, *_disjoint_tents(rng))


def _check_filter_ideal_galois(corpus, rng, rep):
    fgs = [f for f in corpus.filters if isinstance(f, FG)][:5]
    while len(fgs) < 3:
        fgs.append(FG([random_set(rng).closure()]))
    for F in fgs:
        I = ideal_of_fg(F)
        for _ in range(8):
            galois_instance(rep, F, I, random_set(rng).closure())


def _check_interior_closure(corpus, rng, rep):
    for F in corpus.filters[:8]:
        for _ in range(6):
            interior_closure_instance(rep, F, random_set(rng).closure())


def _check_prime_ideal_char(corpus, rng, rep):
    for F in corpus.filters[:6]:
        prime_cover_instance(rep, F)


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
        xs = [GenConstant(rng.choice(corpus.elements))]
        for n in range(1, 5):
            xs.append(xs[-1] + GenConstant(PwFunction.upower(n + 1)))
        cauchy_instance(rep, xs)


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


def run_checks(names=None, seed: int = 0, size: int = 24):
    """Run the named checks and return CheckReport objects.  No names,
    "all" or ["all"] runs every check; "all" among other names is no
    check's name."""
    if isinstance(names, str):
        names = [names]
    if not names or names == ["all"]:
        names = available_checks()
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
