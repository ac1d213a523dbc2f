"""Per-layer attribution of a cProfile run.

The profiler instruments the engine from outside; no source is changed.
Each profiled function belongs to the layer of the file that defines it:
an ``asymcalc`` module, ``verify/oracle.py`` (layer ``oracle``), the
stdlib ``fractions`` module, or the ``mpmath`` package.  Built-in
functions have no file, so each call edge into a built-in is charged to
the layer of its caller.  Dataclass-generated methods are compiled from
``<string>``; they take the layer of the functions they call (their
``__post_init__``), else of their callers.

Per layer L:

- ``L.calls``: calls into L from a function outside L.  A call made by
  a built-in (a ``sorted`` key, a comparison in ``max``, a generator
  resumed by ``sum``) is an entry only when no function of L calls that
  built-in, since the profile does not say which caller it served.
- ``L.incl_s``: time inside those calls.  A call that leaves L and
  re-enters it is counted once per entry, as cProfile reports it.
- ``L.self_s``: time in L's own functions and in the built-ins they call.

Self time no layer claims (the benchmark loop, ``random``, other stdlib
code) is ``unattributed_s``.
"""

import fractions
import os

LAYERS = ("polytools", "ivset", "window", "pwfunc", "scaleset", "signs",
          "genconst", "ideal", "afilter", "oracle", "fractions", "mpmath")

# (layer, function name) -> named count; Seg is the only class in window
# with a __post_init__
COUNTED = {("polytools", "isolate_roots"): "isolate_roots",
           ("window", "__post_init__"): "seg_validations",
           ("signs", "eventual_sign_on"): "eventual_sign_on"}


def _layer_of_file(path, pkg_dir, mpmath_dir):
    if path.startswith(pkg_dir):
        mod = os.path.splitext(os.path.relpath(path, pkg_dir))[0]
        mod = mod.replace(os.sep, ".")
        if mod == "verify.oracle":
            return "oracle"
        return mod if mod in LAYERS else None
    if path == fractions.__file__:
        return "fractions"
    if path.startswith(mpmath_dir):
        return "mpmath"
    return None


def _key(code):
    return code if isinstance(code, str) else id(code)


def attribute(entries):
    """Layer table and named counts from ``cProfile.Profile.getstats()``."""
    import asymcalc
    import mpmath
    pkg_dir = os.path.dirname(asymcalc.__file__) + os.sep
    mpmath_dir = os.path.dirname(mpmath.__file__) + os.sep

    callers = {}
    for e in entries:
        for sub in e.calls or ():
            callers.setdefault(_key(sub.code), []).append(e.code)

    layer = {}
    for e in entries:
        c = e.code
        if not isinstance(c, str):
            layer[id(c)] = _layer_of_file(c.co_filename, pkg_dir, mpmath_dir)
    for e in entries:
        c = e.code
        if isinstance(c, str) or c.co_filename != "<string>":
            continue
        near = [sub.code for sub in e.calls or ()] + callers.get(id(c), [])
        for n in near:
            if not isinstance(n, str) and layer.get(id(n)):
                layer[id(c)] = layer[id(n)]
                break

    def layer_of(code):
        return None if isinstance(code, str) else layer.get(id(code))

    # the layers that call each built-in
    builtin_users = {}
    for e in entries:
        for sub in e.calls or ():
            if isinstance(sub.code, str) and not isinstance(e.code, str):
                builtin_users.setdefault(sub.code, set()).add(
                    layer_of(e.code))

    calls = dict.fromkeys(LAYERS, 0)
    incl = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    named = dict.fromkeys(COUNTED.values(), 0)
    total = 0.0
    for e in entries:
        total += e.inlinetime
        c = e.code
        if isinstance(c, str):
            users = builtin_users.get(c, ())
            for sub in e.calls or ():
                there = layer_of(sub.code)
                if there and there not in users:
                    calls[there] += sub.callcount
                    incl[there] += sub.totaltime
            continue
        here = layer_of(c)
        if here:
            self_s[here] += e.inlinetime
        if (here, c.co_name) in COUNTED:
            named[COUNTED[here, c.co_name]] += e.callcount
        for sub in e.calls or ():
            if isinstance(sub.code, str):
                if here:
                    self_s[here] += sub.inlinetime
                continue
            there = layer_of(sub.code)
            if there and there != here:
                calls[there] += sub.callcount
                incl[there] += sub.totaltime
    return {
        "layers": {L: {"calls": calls[L], "incl_s": incl[L],
                       "self_s": self_s[L]} for L in LAYERS},
        "named": named,
        "total_s": total,
        "unattributed_s": total - sum(self_s.values()),
    }
