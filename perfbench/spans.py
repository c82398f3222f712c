"""Spans around the calls into struvebounds' layers, recorded from the
benchmark's own files.

``install`` replaces the public functions listed below, in every module of
the package that binds them, with wrappers that open a span before the call
and close it after.  Each span is (id, name, start, end, parent id, query
id); spans stay in memory and are written out when the worker ends.  A
span's self time is its duration minus the durations of its child spans.

The wrappers also count what the layers cannot report themselves: whether a
series call is the first at its point in this process (the series runs) or
a repeat (only the wrapper and cache key run), which route M took, and the
(nu, x) points the registry is asked about.
"""

from __future__ import annotations

import gzip
import sys
import time
from functools import wraps

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.query_id = 0
        self.agg: dict[str, list] = {}  # name -> [calls, self s, total s]
        self.counts: dict[str, float] = {}
        self.stage_s: dict[str, list] = {}  # stage name -> durations
        self._open: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._seen: set = set()
        self._points: set = set()
        self._orders: set = set()
        self._mark = 0.0

    # -- spans ---------------------------------------------------------------
    def begin(self) -> None:
        self._open.append([self._next_id, _now(), 0.0])
        self._next_id += 1

    def end(self, name: str) -> float:
        t1 = _now()
        sid, t0, child = self._open.pop()
        dur = t1 - t0
        parent = -1
        if self._open:
            self._open[-1][2] += dur
            parent = self._open[-1][0]
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur - child
        a[2] += dur
        self.spans.append((sid, name, t0, t1, parent, self.query_id))
        return dur

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def stage(self, name: str, seconds: float) -> None:
        self.stage_s.setdefault(name, []).append(seconds)

    def first_time(self, key) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def registry_point(self, nu: float, x: float) -> None:
        self.count("registry.calls")
        self._points.add((nu, x))
        self._orders.add(nu)

    # -- output --------------------------------------------------------------
    def summary(self) -> dict:
        counts = dict(self.counts)
        counts["registry.points"] = len(self._points)
        counts["registry.orders"] = len(self._orders)
        return {"agg": self.agg, "counts": counts, "stages": self.stage_s}

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,query\n")
            for sid, name, t0, t1, parent, qid in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{qid}\n")


def _span(tr: Tracer, fn, name: str):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tr.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(name)
    return wrapper


def _series(tr: Tracer, fn, name: str):
    """struve_l / bessel_i: first call at a point versus repeat."""
    @wraps(fn)
    def wrapper(nu, x, *rest, **kwargs):
        first = tr.first_time((name, nu, x))
        tr.begin()
        try:
            out = fn(nu, x, *rest, **kwargs)
        finally:
            tr.end(f"special_core.{name}.{'first' if first else 'repeat'}")
        if first:
            tr.count("series.first")
            tr.count("series.terms", out.terms_used)
        return out
    return wrapper


def _struve_m(tr: Tracer, fn):
    """struve_m: first or repeat call, and the route the value came from."""
    @wraps(fn)
    def wrapper(nu, x, *rest, **kwargs):
        first = tr.first_time(("struve_m", nu, x))
        tr.begin()
        out = None
        try:
            out = fn(nu, x, *rest, **kwargs)
        finally:
            route = "error" if out is None else "stable" if out.cancellation else "direct"
            tr.end(f"special_core.struve_m.{'first' if first else 'repeat'}.{route}")
        if first and out.cancellation:
            tr.count("stable_m.neval", out.terms_used)
        return out
    return wrapper


def _exact_value(tr: Tracer, fn):
    @wraps(fn)
    def wrapper(target, nu, x, *rest, **kwargs):
        tr.registry_point(nu, x)
        tr.begin()
        try:
            return fn(target, nu, x, *rest, **kwargs)
        finally:
            tr.end(f"registry.exact_value.{target}")
    return wrapper


def _evaluate(tr: Tracer, fn, target: str):
    name = f"registry.evaluate.{target}"

    def wrapper(nu, x, *rest, **kwargs):
        tr.registry_point(nu, x)
        tr.begin()
        try:
            return fn(nu, x, *rest, **kwargs)
        finally:
            tr.end(name)
    return wrapper


def _certify(tr: Tracer, fn):
    @wraps(fn)
    def wrapper(bound_id, *args, **kwargs):
        tr.begin()
        try:
            return fn(bound_id, *args, **kwargs)
        finally:
            tr.stage(f"verify.certify_s.{bound_id}", tr.end("verify.certify"))
    return wrapper


def _staged(tr: Tracer, fn, name: str, stage: str):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tr.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.stage(stage, tr.end(name))
    return wrapper


def _suite(tr: Tracer, fn):
    """monotonicity_suite: each report's time runs from the end of the
    previous report (or the suite's start) to the end of its own."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tr.begin()
        tr._mark = _now()
        reports = None
        try:
            reports = fn(*args, **kwargs)
            return reports
        finally:
            tr.stage("verify.monotonicity_suite_s", tr.end("verify.monotonicity_suite"))
            if reports:
                tr.stage(f"verify.suite_s.{reports[-1].bound_id}", _now() - tr._mark)
    return wrapper


def _suite_report(tr: Tracer, fn):
    @wraps(fn)
    def wrapper(name, *args, **kwargs):
        out = fn(name, *args, **kwargs)
        t = _now()
        tr.stage(f"verify.suite_s.{name}", t - tr._mark)
        tr._mark = t
        return out
    return wrapper


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries of the imported package for this process."""
    from struvebounds import bfunc, registry, special_core, succ_ratio, verify

    targets = [
        (special_core, "struve_l", lambda f: _series(tr, f, "struve_l")),
        (special_core, "bessel_i", lambda f: _series(tr, f, "bessel_i")),
        (special_core, "struve_m", lambda f: _struve_m(tr, f)),
        (bfunc, "b_value", lambda f: _span(tr, f, "bfunc.b_value")),
        (registry, "exact_value", lambda f: _exact_value(tr, f)),
        (succ_ratio, "best_bracket", lambda f: _span(tr, f, "succ_ratio.best_bracket")),
        (verify, "certify", lambda f: _certify(tr, f)),
        (verify, "certify_all",
         lambda f: _staged(tr, f, "verify.certify_all", "verify.certify_all_s")),
        (verify, "monotonicity_suite", lambda f: _suite(tr, f)),
        (verify, "_comparison_report", lambda f: _suite_report(tr, f)),
        (verify, "relative_error_table",
         lambda f: _staged(tr, f, "verify.relative_error_table", "verify.table_s")),
        (verify, "crossover",
         lambda f: _staged(tr, f, "verify.crossover", "verify.crossover_s")),
    ]
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "struvebounds" or name.startswith("struvebounds."))]
    for home, attr, make in targets:
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapped = make(original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    record = verify.GridReport.record
    verify.GridReport.record = _span(tr, record, "verify.record")
    for spec in registry.REGISTRY.values():
        object.__setattr__(spec, "evaluate", _evaluate(tr, spec.evaluate, spec.target))
