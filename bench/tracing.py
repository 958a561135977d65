"""Span tracing of strongmin's public functions, installed from outside.

The tracer replaces each traced function with a wrapper at its definition
and at every other module-level name bound to the same function object:
``from ._descent import push_to_feasible`` makes ``oracle.push_to_feasible``
a second name, and wrapping only ``_descent`` would leave the oracle's calls
untimed.  No code under ``src/`` changes.

Every call records a span (id, name, start, end, parent id, report id,
stats).  Spans stay in memory until the run ends; ``write`` then saves
them and ``summary`` aggregates them.  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# residual at or below which the oracle and the cq probe keep a pushed sample
KEEP_TOL = 1e-9


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cols(index, name):
    def stat(args, kwargs, result):
        X = _arg(args, kwargs, index, name)
        return {"cols": X.shape[1] if X.ndim == 2 else 1}
    return stat


def _push_stat(args, kwargs, result):
    residuals = result[1]
    return {"cols": residuals.shape[0],
            "kept": int((residuals <= KEEP_TOL).sum())}


def _halton_stat(args, kwargs, result):
    return {"points": int(_arg(args, kwargs, 1, "count"))}


def _bytes_stat(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# "<module>.<function>" or "<module>.<Class>.<method>" ->
# (stat extractor, stats printed as "<name>.<stat>").
SPANS = {
    "expr.eval_grads": (_cols(1, "X"), ("calls", "cols", "self_s")),
    "expr.eval_values": (_cols(1, "X"), ("calls", "cols", "self_s")),
    "expr.eval_bundle": (None, ("calls", "self_s")),
    "problem.batch_constraint_grads": (_cols(1, "X"), ("calls", "cols", "self_s")),
    "problem.batch_constraint_values": (_cols(1, "X"), ("calls", "cols", "self_s")),
    "problem.load": (None, ("self_s",)),
    "problem.evaluate": (None, ("self_s",)),
    "sosc.analyze": (None, ("self_s",)),
    "sosc.build_critical_cone": (None, ("self_s",)),
    "sosc.CriticalCone.project": (_cols(1, "W"), ("calls", "cols", "self_s")),
    "_descent.push_to_feasible": (_push_stat, ("calls", "cols", "self_s", "kept_frac")),
    "_descent.minimize_tilted": (_cols(2, "starts"), ("calls", "cols", "self_s")),
    "oracle.estimate_qg_modulus": (None, ("self_s",)),
    "oracle.tilt_probe": (None, ("self_s",)),
    "kkt.stationarity_check": (None, ("calls", "self_s")),
    "kkt.build_multiplier_set": (None, ("self_s",)),
    "kkt.maximize_linear": (None, ("calls", "self_s")),
    "kkt.enumerate_polyhedron": (None, ("calls", "self_s")),
    "_simplex.solve_lp": (None, ("calls", "self_s")),
    "cq.run_cq": (None, ("self_s",)),
    "cq.check_mfcq": (None, ("self_s",)),
    "cq.check_crcq": (None, ("self_s",)),
    "cq.check_rcq_dual": (None, ("self_s",)),
    "cq.probe_mscq": (None, ("self_s",)),
    "_sampling.halton": (_halton_stat, ("calls", "points", "self_s")),
    # traced so that their time is not charged to their callers; no metric
    "_sampling.sphere": (None, ()),
    "_sampling.ball": (None, ()),
    "pw1d.load": (None, ("self_s",)),
    "pw1d.check_conditions": (None, ("self_s",)),
    "pw1d.estimate_qgc_1d": (None, ("self_s",)),
    "pw1d.second_subderivative": (None, ("self_s",)),
    "report.analyze_report": (None, ("self_s",)),
    "report.pw1d_report": (None, ("self_s",)),
    "report.dumps_report": (_bytes_stat, ("self_s", "bytes")),
}

# Called thousands of times per report for microseconds each: counted
# without a span, so their time stays in the caller's self time.
COUNTED = ("pw1d.Piecewise1D.prox_subdiff",)

UNITS = {"calls": "count", "cols": "count", "points": "count", "self_s": "s",
         "bytes": "B", "kept_frac": "ratio"}

ENTRY_POINTS = ("report.analyze_report", "report.pw1d_report")

def _resolve(name):
    """Split "<module>.<attr>[.<attr>]" into (holder object, attribute)."""
    parts = name.split(".")
    holder = sys.modules["strongmin." + parts[0]]
    for part in parts[1:-1]:
        holder = getattr(holder, part)
    return holder, parts[-1]


class Tracer:
    """Wraps the functions in SPANS and COUNTED while installed."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, report, stats)
        self.counts = Counter()  # COUNTED name -> calls
        self.report_id = None
        self._stack = []
        self._next_id = 0
        self._patches = []       # (holder, attribute, original)

    def _span(self, name, fn, stat):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                stats = stat(args, kwargs, result) if stat and returned else None
                self.spans.append((sid, name, t0, t1, parent, self.report_id, stats))
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self):
        wrapped = {}  # id(original) -> (original, wrapper)
        targets = [(n, self._span, (s,)) for n, (s, _) in SPANS.items()]
        targets += [(n, self._counter, ()) for n in COUNTED]
        for name, make, extra in targets:
            holder, attr = _resolve(name)
            original = holder.__dict__[attr]
            wrapper = make(name, original, *extra)
            wrapped[id(original)] = (original, wrapper)
            self._patch(holder, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("strongmin.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        """One JSON line per span: [id, name, start, end, parent, report]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:6]) + "\n")

    def summary(self):
        """Per span name: calls, self_s and summed stats; plus covered time.

        ``covered_s`` is the time of root spans minus the self time of the
        report entry points: report wall time attributed to a layer below
        them (``dumps_report`` counts as such a layer).
        """
        child_s = defaultdict(float)
        for _, _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        agg = defaultdict(Counter)
        root_s = 0.0
        for sid, name, t0, t1, parent, _, stats in self.spans:
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - child_s[sid]
            if stats:
                a.update(stats)
            if parent < 0:
                root_s += t1 - t0
        for name, calls in self.counts.items():
            agg[name]["calls"] += calls
        entry_self = sum(agg[n]["self_s"] for n in ENTRY_POINTS)
        return agg, root_s - entry_self

    def layer_metrics(self, passes: int, report_s: float) -> dict:
        """name -> (value, unit): every printed stat, per traced pass.

        ``report_s`` is the wall time of the traced reports, the base of
        ``trace.coverage``.
        """
        agg, covered_s = self.summary()
        printed = {n: wanted for n, (_, wanted) in SPANS.items()}
        printed.update((n, ("calls",)) for n in COUNTED)
        out = {}
        for name, wanted in printed.items():
            a = agg.get(name, Counter())
            for stat in wanted:
                if stat == "kept_frac":
                    value = a["kept"] / a["cols"] if a["cols"] else 0.0
                else:
                    value = a[stat] / passes
                out[f"{name}.{stat}"] = (value, UNITS[stat])
        out["trace.coverage"] = (covered_s / report_s, "ratio")
        return out
