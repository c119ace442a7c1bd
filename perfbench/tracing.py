"""Span tracing of qhabiro's layers from outside the library.

:class:`Tracer` wraps each layer's public functions by rebinding them in
every ``qhabiro`` module that holds them (and methods on their classes), and
records one span per call: name, start, end and the index of the enclosing
span.  A layer's self time is its spans' durations minus the time their
child spans cover.  :meth:`Tracer.uninstall` binds every name to its
original function again.

Lazy coefficient sequences are timed coefficient by coefficient: the
``CoeffSeq`` that ``f_from_a`` or ``a_from_f`` returns gets a traced
generator, so each coefficient is one span wherever it is first pulled.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import lcm

# lru_cache'd functions whose cache_info() is snapshotted after a traced run
CACHES = (
    ("qcomb.qbinom", "qhabiro.qcomb", "qbinom"),
    ("qcomb.qint", "qhabiro.qcomb", "qint"),
    ("qcomb.qfact", "qhabiro.qcomb", "qfact"),
    ("qcomb.curly_fact", "qhabiro.qcomb", "curly_fact"),
    ("qcomb.curly_poch", "qhabiro.qcomb", "curly_poch"),
    ("qcomb.poch", "qhabiro.qcomb", "poch"),
    ("omega.gamma", "qhabiro.omega", "gamma"),
)

# Per-layer metrics: (name, unit).  The order is the report order.
LAYER_METRICS = (
    ("series.mul_small.calls", "count"),
    ("series.mul_small.self_s", "s"),
    ("series.mul_small.terms", "count"),
    ("series.mul_large.calls", "count"),
    ("series.mul_large.self_s", "s"),
    ("series.mul_large.terms", "count"),
    ("series.dot.calls", "count"),
    ("series.dot.self_s", "s"),
    ("series.dot.pairs", "count"),
    ("series.sum.self_s", "s"),
    ("series.sum_bounded.calls", "count"),
    ("series.sum_bounded.self_s", "s"),
    ("series.sum_bounded.terms", "count"),
    ("series.invert_unit.self_s", "s"),
    ("qcomb.qbinom.calls", "count"),
    ("qcomb.qbinom.self_s", "s"),
    ("qcomb.qbinom.hit_ratio", "ratio"),
    ("qcomb.qbinom.cache_size", "count"),
    ("qcomb.curly_poch.hit_ratio", "ratio"),
    ("qcomb.poch.self_s", "s"),
    ("transform.f_from_a.coeffs", "count"),
    ("transform.f_from_a.self_s", "s"),
    ("transform.a_from_f.coeffs", "count"),
    ("transform.a_from_f.self_s", "s"),
    ("omega.omega_mul.coeffs", "count"),
    ("omega.omega_mul.self_s", "s"),
    ("omega.gamma.hit_ratio", "ratio"),
    ("residues.residue_series.calls", "count"),
    ("residues.residue_series.self_s", "s"),
    ("residues.to_series.calls", "count"),
    ("residues.to_series.self_s", "s"),
    ("residues.residues_from_f.self_s", "s"),
    ("surgery.route_fk.self_s", "s"),
    ("surgery.route_residues.self_s", "s"),
    ("surgery.route_ih.self_s", "s"),
    ("surgery.weight_poly.self_s", "s"),
    ("surgery.fallbacks", "count"),
)


def qhabiro_modules():
    """The imported qhabiro package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qhabiro" or name.startswith("qhabiro."))]


def cache_snapshot() -> dict:
    """cache_info() of every cache in CACHES, by layer name.  Call it while
    no tracer is installed: a traced name has no cache_info()."""
    return {name: getattr(sys.modules[mod], attr).cache_info()._asdict()
            for name, mod, attr in CACHES}


class Tracer:
    """Records spans at qhabiro's layer boundaries while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._rebound = []  # (namespace, attribute, original)
        self._caches = {}  # layer name -> the lru_cache'd function
        self._caches_before = {}

    # -- recording ---------------------------------------------------------

    def _timed(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            return self._timed(name, fn, *args, **kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, module: str, attr: str, make):
        """Replace the function ``module.attr`` by ``make(original)`` in
        every qhabiro module that binds the same object."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod in qhabiro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebound.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attrs, make):
        original = vars(cls)[attrs[0]]
        wrapper = make(original)
        for attr in attrs:
            self._rebound.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)

    def install(self):
        from qhabiro import residues, series

        counts = self.counts
        timed = self._timed
        span = self._span

        def mul(orig):
            QSeries = series.QSeries

            def grid_len(x, s):
                return (len(x.coeffs) - 1) * (s // x.scale) + 1 if x.coeffs else 0

            def traced(a, b):
                if isinstance(b, QSeries):
                    s = lcm(a.scale, b.scale)
                    n = grid_len(a, s) * grid_len(b, s)
                else:  # scalar factor
                    n = len(a.coeffs)
                # the kernel's own cutoff, read at call time
                name = ("series.mul_small" if n <= series._KRONECKER_CUTOFF
                        else "series.mul_large")
                counts[name + ".terms"] += n
                return timed(name, orig, a, b)
            return traced

        def dot(orig):
            def traced(pairs):
                def run():
                    items = list(pairs)
                    counts["series.dot.pairs"] += len(items)
                    return orig(items)
                return timed("series.dot", run)
            return traced

        def sum_bounded(orig):
            def traced(terms, bound, prec):
                def counted(k):
                    counts["series.sum_bounded.terms"] += 1
                    return terms(k)
                return timed("series.sum_bounded", orig, counted, bound, prec)
            return traced

        def lazy_seq(name):
            def make(orig):
                def traced(*args, **kwargs):
                    seq = orig(*args, **kwargs)
                    gen = seq._gen

                    def traced_gen(k):
                        counts[name + ".coeffs"] += 1
                        return timed(name, gen, k)
                    seq._gen = traced_gen
                    return seq
                return traced
            return make

        def omega_mul(orig):
            def traced(*args, **kwargs):
                # the product's LBC audit pulls every coefficient, so the
                # whole product is computed inside this call
                el = timed("omega.omega_mul", orig, *args, **kwargs)
                counts["omega.omega_mul.coeffs"] += el.a.max_index + 1
                return el
            return traced

        def route(name):
            def make(orig):
                def traced(*args, **kwargs):
                    res = timed(name, orig, *args, **kwargs)
                    if "diverges" in res.sign_convention:
                        counts["surgery.fallbacks"] += 1
                    return res
                return traced
            return make

        self._caches = {name: getattr(sys.modules[mod], attr)
                        for name, mod, attr in CACHES}
        self._caches_before = {name: fn.cache_info()._asdict()
                               for name, fn in self._caches.items()}
        self._rebind_method(series.QSeries, ("__mul__", "__rmul__"), mul)
        self._rebind_method(residues.ResidueAtom, ("to_series",),
                            lambda f: span("residues.to_series", f))
        plain = (
            ("series", "series_sum", "series.sum"),
            ("series", "series_invert_unit", "series.invert_unit"),
            ("qcomb", "qbinom", "qcomb.qbinom"),
            ("qcomb", "poch", "qcomb.poch"),
            ("residues", "residue_series", "residues.residue_series"),
            ("residues", "residues_from_f", "residues.residues_from_f"),
            ("surgery", "surgery_weight_poly", "surgery.weight_poly"),
        )
        for mod, attr, name in plain:
            self._rebind("qhabiro." + mod, attr, lambda f, n=name: span(n, f))
        self._rebind("qhabiro.series", "series_dot", dot)
        self._rebind("qhabiro.series", "series_sum_bounded", sum_bounded)
        self._rebind("qhabiro.transform", "f_from_a", lazy_seq("transform.f_from_a"))
        self._rebind("qhabiro.transform", "a_from_f", lazy_seq("transform.a_from_f"))
        self._rebind("qhabiro.omega", "omega_mul", omega_mul)
        for attr, name in (("zhat_via_fk", "surgery.route_fk"),
                           ("zhat_via_residues", "surgery.route_residues"),
                           ("zhat_via_ih", "surgery.route_ih")):
            self._rebind("qhabiro.surgery", attr, route(name))

    def uninstall(self):
        for ns, attr, original in reversed(self._rebound):
            setattr(ns, attr, original)

    def restored(self) -> bool:
        """True iff every name the tracer rebound is its original again."""
        return all(getattr(ns, attr) is original
                   for ns, attr, original in self._rebound)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (calls, self seconds) over all recorded spans."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

    def metrics(self) -> dict:
        """Every per-layer metric of LAYER_METRICS, by name."""
        values = dict(self.counts)
        for name, (calls, self_s) in self.self_times().items():
            values[name + ".calls"] = calls
            values[name + ".self_s"] = self_s
        for name, fn in self._caches.items():
            info = fn.cache_info()._asdict()
            before = self._caches_before[name]
            hits = info["hits"] - before["hits"]
            looked_up = hits + info["misses"] - before["misses"]
            values[name + ".hit_ratio"] = hits / looked_up if looked_up else 0.0
            values[name + ".cache_size"] = info["currsize"]
        return {name: values.get(name, 0) for name, _ in LAYER_METRICS}
