"""Spans around the library's public functions, patched in from outside.

``Tracer(modules, namespaces)`` finds the public functions of each module in
``modules`` (names without a leading underscore, defined in that module) and,
on ``install()``, replaces every binding of each one in every namespace of
``namespaces``: ``lseries`` calls ``laplace_many`` through the name it
imported from ``testfn``, so patching ``testfn`` alone would miss that call.
``uninstall()`` puts the originals back.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent).  Spans stay in memory in flat
arrays until ``take()`` hands them over as a ``Recording``.  A span's self
time is its duration minus the part of it that its child spans cover.
Counters are kept at the same boundaries: quadrature points (the integrand
passed to ``quadrature`` is wrapped to count them), Laplace frequencies,
long-double escalations, distinct transform tables and twists, ``eval_iy``
ordinates, and reliable functional-equation verdicts.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import statistics
import threading
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module``, including cached ones."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
            out[name] = obj
    return out


class Recording:
    """Spans and counters of one traced phase."""

    def __init__(self, names, name_ids, start, end, parent, counters, distinct):
        self.names = names
        self.name_ids = name_ids
        self.start = start
        self.end = end
        self.parent = parent
        self.counters = counters
        self.distinct = distinct

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the union of its children's intervals.

        Spans are numbered in the order they start, so one pass visits each
        span's children in start order and merges their intervals as it goes.
        """
        start, end = self.start, self.end
        out = np.array(end) - np.array(start)
        open_lo, open_hi = {}, {}  # parent -> merged child interval being grown
        for i, p in enumerate(self.parent):
            if p < 0:
                continue
            a, b = max(start[i], start[p]), min(end[i], end[p])
            if b <= a:
                continue
            hi = open_hi.get(p)
            if hi is None or a > hi:
                if hi is not None:
                    out[p] -= hi - open_lo[p]
                open_lo[p], open_hi[p] = a, b
            elif b > hi:
                open_hi[p] = b
        for p, hi in open_hi.items():
            out[p] -= hi - open_lo[p]
        return out

    def by_function(self) -> dict[str, tuple[int, float]]:
        """Function name -> (calls, self seconds)."""
        selfs = self.self_times()
        calls = Counter()
        total = defaultdict(float)
        for i, nid in enumerate(self.name_ids):
            name = self.names[nid]
            calls[name] += 1
            total[name] += float(selfs[i])
        return {n: (calls[n], total[n]) for n in calls}

    def write(self, path) -> None:
        """One tab-separated line per span, gzip-compressed: name, start, end, parent."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            fh.writelines(
                f"{names[n]}\t{a:.9f}\t{b:.9f}\t{p}\n"
                for n, a, b, p in zip(self.name_ids, self.start, self.end, self.parent)
            )


def _digest(arr) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


class Tracer:
    """Wraps the public functions of the given modules; see the module doc."""

    def __init__(self, modules, namespaces):
        self.targets = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in public_functions(module).items():
                self.targets[f"{short}.{name}"] = fn
        self.namespaces = list(namespaces)
        self._patches = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.names = sorted(self.targets)
        self._reset()

    def _reset(self):
        self._name_ids = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._counters = Counter()
        self._distinct = defaultdict(set)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for name, fn in self.targets.items():
            wrapper = self._wrap(name, fn)
            for ns in self.namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, fn = self._patches.pop()
            setattr(ns, attr, fn)

    def take(self) -> Recording:
        """Hand over the spans and counters recorded so far, and start afresh."""
        rec = Recording(self.names, self._name_ids, self._start, self._end,
                        self._parent, self._counters, self._distinct)
        self._reset()
        return rec

    # -- the wrapper --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self._start)
                self._name_ids.append(nid)
                self._parent.append(stack[-1] if stack else -1)
                self._start.append(clock())
                self._end.append(0.0)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._counters[name + ".raised"] += 1
                raise
            finally:
                stack.pop()
                self._end[idx] = clock()
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self._counters[key] += n

    def distinct(self, key: str, item) -> None:
        self._distinct[key].add(item)


# ----------------------------------------------------------------------------
# counters taken at the boundaries; each returns the (possibly wrapped) args


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _quadrature(tr: Tracer, args, kwargs):
    f = args[0]
    vectorized = bool(kwargs.get("vectorized", False))

    def counted(x):
        tr.count("testfn.quadrature.points", len(x) if vectorized else 1)
        return f(x)

    return (counted, *args[1:]), kwargs


def _laplace_many(tr: Tracer, args, kwargs):
    phi = args[0]
    us = np.asarray(_arg(args, kwargs, 1, "us"))
    dtype = np.dtype(_arg(args, kwargs, 2, "dtype", np.float64))
    tr.count("testfn.laplace_many.freqs", us.size)
    if dtype == np.dtype(np.longdouble):
        tr.count("testfn.laplace_many.longdouble_calls")
    tr.distinct("testfn.laplace_many", (phi, dtype.str, _digest(us)))
    return args, kwargs


def _twist(tr: Tracer, args, kwargs):
    f, chi = args[0], args[1]
    tr.distinct("form.twist", (id(f), chi.modulus, chi.index))
    return args, kwargs


def _eval_iy(tr: Tracer, args, kwargs):
    tr.count("form.eval_iy.points", np.asarray(args[1]).size)
    return args, kwargs


def _fe_pair(tr: Tracer, reports):
    tr.count("verify.reliable_verdicts", sum(1 for r in reports if r.verdict_reliable))


_BEFORE = {
    "testfn.quadrature": _quadrature,
    "testfn.laplace_many": _laplace_many,
    "form.twist": _twist,
    "form.eval_iy": _eval_iy,
}
_AFTER = {"verify.fe_pair": _fe_pair}


# ----------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("specials", "qseries", "testfn", "form", "lseries", "verify")
CALLS_AND_SELF = (
    "testfn.laplace_many", "testfn.quadrature", "testfn.laplace",
    "specials.upper_gamma", "specials.whittaker_M", "specials.bessel_J",
    "lseries.series_membership", "lseries.lseries_series", "lseries.lseries_delta",
    "lseries.lseries_integral", "specials.gauss_sum", "form.twist", "form.eval_iy",
)
CALLS_ONLY = ("specials.characters_mod", "qseries.fixture", "verify.fe_pair")
SELF_ONLY = (
    "specials.kronecker_character", "qseries.fixture_qexp",
    "verify.gf_term_check", "verify.mf_term_check",
)
COUNTERS = (
    "testfn.laplace_many.freqs", "testfn.laplace_many.longdouble_calls",
    "testfn.quadrature.points", "form.eval_iy.points", "verify.reliable_verdicts",
)
RATIOS = ("testfn.laplace_many", "form.twist")


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for fn in CALLS_AND_SELF:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update({f"{fn}.calls": "count" for fn in CALLS_ONLY})
    units.update({f"{fn}.self_s": "s" for fn in SELF_ONLY})
    units.update({c: "count" for c in COUNTERS})
    units["testfn.quadrature.failed"] = "count"
    units.update({f"{fn}.distinct_ratio": "ratio" for fn in RATIOS})
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(rec: Recording) -> dict[str, float]:
    """The per-layer metrics of one recording (``trace.overhead_s`` aside)."""
    funcs = rec.by_function()
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, (_, self_s) in funcs.items():
        out[name.split(".")[0] + ".self_s"] += self_s
    for fn in CALLS_AND_SELF + CALLS_ONLY + SELF_ONLY:
        calls, self_s = funcs.get(fn, (0, 0.0))
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = self_s
    for c in COUNTERS:
        out[c] = rec.counters.get(c, 0)
    out["testfn.quadrature.failed"] = rec.counters.get("testfn.quadrature.raised", 0)
    for fn in RATIOS:
        calls = funcs.get(fn, (0, 0.0))[0]
        out[f"{fn}.distinct_ratio"] = len(rec.distinct.get(fn, ())) / calls if calls else 1.0
    units = metric_units()
    return {k: v for k, v in out.items() if k in units}


def combine(setup: dict[str, float], rounds: list[dict[str, float]]) -> dict[str, float]:
    """Set-up figures plus the median round; ratios from the rounds alone."""
    out = {}
    for key in rounds[0]:
        med = statistics.median(r[key] for r in rounds)
        out[key] = med if key.endswith("distinct_ratio") else setup.get(key, 0) + med
    return out
