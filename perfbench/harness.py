"""Closed-loop measurement of one workload in this process.

One caller sends each query after the previous one returns.  Every query
is one public engine call, timed on its own and recorded as a span
``(kind, start, end, item, status)``.  A query is *decided* when it
returns a verdict, *undecided* when it raises a documented
``AsymcalcError`` refusal or returns None (an inconclusive oracle), and
*failed* when it raises anything else.  Verdicts are checked after the
timed phase, so nothing the checks compute is cached before a timed
query asks for it.

Speed correction.  On a shared CPU the speed of the machine drifts by
tens of percent within minutes, so two runs of identical work can differ
by 25% in wall time.  After every ``PROBE_EVERY_S`` of query time the
loop times a fixed kernel (300 stdlib ``Fraction`` additions, with the
collector off so that the engine's heap cannot slow it).  Each stretch
of queries is scaled by ``PROBE_NOMINAL_S`` over the median probe time
around it, so corrected times read as seconds on a machine where the
kernel takes ``PROBE_NOMINAL_S``.  Nothing a change to the engine can
touch runs inside the kernel.  Raw wall times are kept alongside.
"""

import gc
import hashlib
import math
import statistics
import time
from fractions import Fraction

from asymcalc.errors import AsymcalcError

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"

PROBE_TERMS = tuple(Fraction(i, i % 7 + 2) for i in range(1, 301))
PROBE_NOMINAL_S = 0.00075  # the kernel's median time on the baseline host
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 3  # probes on each side of a stretch that set its speed


def probe():
    """Seconds the fixed kernel takes, the best of two tries."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            acc = Fraction(0)
            for term in PROBE_TERMS:
                acc += term
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def speed_factor(samples):
    """Nominal over measured kernel time: the factor that turns seconds
    measured now into seconds on the nominal machine."""
    return PROBE_NOMINAL_S / statistics.median(samples)


class Outcome:
    __slots__ = ("status", "value")

    def __init__(self, status, value):
        self.status = status
        self.value = value

    @property
    def decided(self):
        return self.status == DECIDED


class Recorder:
    """Times each query and keeps its span and outcome in memory."""

    def __init__(self):
        self.spans = []
        self.item = 0
        self.outs = {}

    def begin(self, item):
        self.item = item
        self.outs = {}

    def call(self, kind, fn, *args):
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except AsymcalcError as e:
            status, value = UNDECIDED, e
        except Exception as e:  # an engine defect: counted, never hidden
            status, value = FAILED, e
        else:
            status = UNDECIDED if value is None else DECIDED
        t1 = time.perf_counter()
        self.spans.append((kind, t0, t1, self.item, status))
        out = Outcome(status, value)
        self.outs[kind] = out
        return out


def digest(wl, items):
    h = hashlib.sha256(repr(wl.pool_spec()).encode())
    for it in items:
        h.update(repr(it.spec).encode())
    return h.hexdigest()[:16]


class Run:
    """The outcome of ``measure``: the recorder, the (item, outcomes)
    pairs, raw and corrected timed-phase seconds, and the speed factor of
    each span."""

    def __init__(self, rec, done, raw_s, corrected_s, factors):
        self.rec = rec
        self.done = done
        self.raw_s = raw_s
        self.corrected_s = corrected_s
        self.factors = factors


def measure(wl, items, profiler=None):
    """Run the items in order, probing the machine's speed between
    stretches of queries; the profiler, if any, sees only the items."""
    rec = Recorder()
    done = []
    probes = [probe()]
    stretches = []  # (first span, end span, seconds), one per probe gap
    first, since = 0, 0.0
    for i, item in enumerate(items):
        rec.begin(i)
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        wl.run(item, rec)
        since += time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()
        done.append((item, rec.outs))
        if since >= PROBE_EVERY_S or i == len(items) - 1:
            stretches.append((first, len(rec.spans), since))
            probes.append(probe())
            first, since = len(rec.spans), 0.0
    factors = []
    corrected = 0.0
    for k, (a, b, secs) in enumerate(stretches):
        # stretch k ran between probes k and k + 1
        f = speed_factor(probes[max(0, k + 1 - PROBE_WINDOW):
                                k + 1 + PROBE_WINDOW])
        factors.extend([f] * (b - a))
        corrected += secs * f
    raw = sum(secs for _, _, secs in stretches)
    return Run(rec, done, raw, corrected, factors)


def check(wl, done):
    """Wrong verdicts, and checks that could not be computed (the engine
    raised while cross-checking), as lists of messages."""
    wrong, unchecked = [], []
    for item, outs in done:
        try:
            wrong.extend(f"{msg}: {item.spec!r}"
                         for msg in wl.check(item, outs))
        except Exception as e:  # noqa: BLE001 - reported, not fatal
            unchecked.append(f"{type(e).__name__}: {e}: {item.spec!r}")
    return wrong, unchecked


def band_mean(sorted_values, q, half=0.05):
    """Mean of the samples ranked within ``half`` of quantile ``q``.

    On a shared CPU the speed of short stretches of time varies by tens
    of percent, and a single order statistic is one query's time; the
    mean over a band of ranks keeps the quantile's position but averages
    that noise over many queries."""
    n = len(sorted_values)
    lo = min(n - 1, int(n * (q - half)))
    hi = max(lo + 1, -int(-n * (q + half) // 1))
    return statistics.fmean(sorted_values[lo:hi])


def query_stats(run):
    """End-to-end figures of a run, on corrected times."""
    spans = run.rec.spans
    n = len(spans)
    ms = sorted((t1 - t0) * f * 1e3
                for (_, t0, t1, _, _), f in zip(spans, run.factors))
    by_status = {DECIDED: 0, UNDECIDED: 0, FAILED: 0}
    for s in spans:
        by_status[s[4]] += 1
    specs = [item.spec for item, _ in run.done]
    distinct = {(kind, specs[it]) for kind, _, _, it, _ in spans}
    return {
        "queries": n,
        "ops_per_s": n / run.corrected_s,
        "raw_ops_per_s": n / run.raw_s,
        "query_p50_ms": band_mean(ms, 0.5),
        "query_p90_ms": band_mean(ms, 0.9),
        "decided": by_status[DECIDED],
        "failed": by_status[FAILED],
        "reuse_ratio": n / len(distinct),
    }


def op_stats(rec, kinds):
    """calls, total_s and p50_ms per query kind, from the spans."""
    per = {k: [] for k in kinds}
    for kind, t0, t1, _, _ in rec.spans:
        per[kind].append(t1 - t0)
    return {k: {"calls": len(v), "total_s": math.fsum(v),
                "p50_ms": statistics.median(v) * 1e3 if v else 0.0}
            for k, v in per.items()}


def failures(done):
    """One line per failed query: kind, exception and input spec."""
    out = []
    for item, outs in done:
        for kind, o in outs.items():
            if o.status == FAILED:
                out.append(f"{kind}: {type(o.value).__name__}: {o.value}: "
                           f"{item.spec!r}")
    return out
