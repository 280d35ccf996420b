"""Traced mode: spans and counts recorded from outside the package.

Wrappers are installed around the entry points of each layer in every
namespace that bound them (the package re-exports, and modules that imported
a function by name, such as cli.periodic_orbits_for_coordinate or
analysis.trace_billiard).  Field operations (GoldenNum, PentaNum,
MoebiusMap.apply) and CyclicWord hashing are counted at class level with no
span, because they run millions of times per item; CyclicWord equality gets
a span, since it runs a few times per item and its cost is what matters.

A span is (name, start_ns, end_ns, parent span, item).  Spans stay in memory
and are written out once, after the last item.  A span's self time is its
duration minus the durations of its direct children, which nest inside it
because the program is single-threaded.  No layer waits on another (there
are no threads or queues), so there are no wait-time metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

#: (module, function) -> span name; the layer entry points
SPANNED = {
    ("directions", "coordinate_of_index"): "directions.coordinate_of_index",
    ("directions", "index_of_coordinate"): "directions.index_of_coordinate",
    ("periods", "period_of_index"): "periods.period_of_index",
    ("orbits", "orbit_of_index"): "orbits.orbit_of_index",
    ("orbits", "vector_of"): "orbits.vector_of",
    ("orbits", "roman_of_arabic"): "orbits.roman_of_arabic",
    ("orbits", "reduce_word"): "orbits.reduce_word",
    ("orbits", "rotate_alphabet"): "orbits.rotate_alphabet",
    ("orbits", "enhance"): "orbits.enhance",
    ("tracer", "periodic_orbits_for_coordinate"): "tracer.periodic_orbits",
    ("tracer", "strip_cells_for_coordinate"): "tracer.strip_cells",
    ("tracer", "section_cell_points"): "tracer.section_cell_points",
    ("tracer", "trace_surface"): "tracer.trace_surface",
    ("tracer", "trace_billiard"): "tracer.trace_billiard",
    ("analysis", "billiard_report"): "analysis.billiard_report",
    ("analysis", "check_conjecture_concat"): "analysis.check_conjecture_concat",
    ("cli", "main"): "cli.main",
}

#: per-layer metrics that are defined on every workload, with their units;
#: the rest of the report (self times and rates of layers a workload leaves
#: idle) is printed and saved but has no value on every workload
DECLARED = {
    "golden.mul_calls": "count", "golden.inverse_calls": "count",
    "golden.sign_calls": "count", "penta.mul_calls": "count",
    "penta.inverse_calls": "count", "penta.sign_calls": "count",
    "golden.moebius_apply_calls": "count",
    "golden.mul_ns": "ns", "golden.inverse_ns": "ns", "golden.sign_ns": "ns",
    "penta.mul_ns": "ns", "penta.inverse_ns": "ns",
    "tracer.strip_cells.calls": "count", "tracer.trace_surface.calls": "count",
    "tracer.crossings": "count", "tracer.crossings_needed": "count",
    "tracer.cone_hits": "count", "tracer.trace_billiard.calls": "count",
    "tracer.reflections": "count",
    "orbits.symbols_out": "count", "orbits.word_eq.calls": "count",
    "orbits.word_hash.calls": "count",
    "directions.digits_out": "count", "directions.coordinate_of_index.self_s": "s",
    "periods.period_of_index.calls": "count",
    "trace.overhead_ratio": "ratio",
}

#: the other per-layer metrics, reported where the layer did work
REPORTED = {
    "tracer.strip_cells.self_s": "s", "tracer.crossings_per_needed": "ratio",
    "tracer.crossings_per_s": "1/s", "tracer.section_cell_points.self_s": "s",
    "tracer.reflections_per_s": "1/s",
    "analysis.billiard_report.self_s": "s",
    "analysis.billiard_attempts_per_report": "ratio",
    "analysis.check_conjecture_concat.self_s": "s",
    "orbits.orbit_of_index.self_s": "s", "orbits.symbols_per_s": "1/s",
    "orbits.word_eq.self_s": "s", "orbits.vector_of.self_s": "s",
    "orbits.roman_of_arabic.self_s": "s",
    "directions.index_of_coordinate.self_s": "s",
    "directions.moebius_applies_per_digit": "ratio",
    "periods.period_of_index.self_s": "s", "cli.main.self_s": "s",
}


class Recorder:
    """Holds the spans and counts of one traced pass."""

    def __init__(self, pf):
        self.pf = pf
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = -1
        self.originals: dict = {}

    # -- installing -------------------------------------------------------

    def _span(self, name, fn, on_return=None, on_raise=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.item])
            stack.append(sid)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                spans[sid][2] = clock()
                stack.pop()
                active[name] -= 1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counted(self, key, fn, also=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if also is not None:
                also()
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Replace original by wrapper in every package namespace bound to it."""
        for modname, module in list(sys.modules.items()):
            if modname != "pentaflow" and not modname.startswith("pentaflow."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        pf = self.pf
        counts, active = self.counts, self.active

        def needed(cells):
            counts["tracer.crossings_needed"] += sum(c[2].crossings for c in cells)

        def cone(exc):
            if isinstance(exc, pf.tracer.SaddleConnectionError):
                counts["tracer.cone_hits"] += 1

        def symbols(word):
            counts["orbits.symbols_out"] += len(word)

        def digits(idx):
            counts["directions.digits_out"] += idx.generation

        hooks = {
            "tracer.strip_cells": (needed, None),
            "tracer.trace_surface": (None, cone),
            "orbits.orbit_of_index": (symbols, None),
            "directions.index_of_coordinate": (digits, None),
        }
        for (modname, fname), name in SPANNED.items():
            original = getattr(getattr(pf, modname), fname)
            on_return, on_raise = hooks.get(name, (None, None))
            self._rebind(original, self._span(name, original, on_return, on_raise))

        # crossings and reflections: each side the tracers leave through
        exit_side = pf.tracer._exit_side

        def counted_exit(*args):
            result = exit_side(*args)
            if active["tracer.trace_billiard"]:
                counts["tracer.reflections"] += 1
            else:
                counts["tracer.crossings"] += 1
            return result

        self._rebind(exit_side, counted_exit)

        def renorm_apply():
            if active["directions.index_of_coordinate"]:
                counts["directions.moebius_applies"] += 1

        classes = (
            (pf.GoldenNum, "golden", ("__mul__", "inverse", "sign")),
            (pf.PentaNum, "penta", ("__mul__", "inverse", "sign")),
        )
        for cls, prefix, methods in classes:
            for meth in methods:
                original = vars(cls)[meth]
                self.originals[(cls, meth)] = original
                key = f"{prefix}.{meth.strip('_')}_calls"
                setattr(cls, meth, self._counted(key, original))
        moebius = pf.MoebiusMap
        self.originals[(moebius, "apply")] = vars(moebius)["apply"]
        moebius.apply = self._counted("golden.moebius_apply_calls",
                                      vars(moebius)["apply"], renorm_apply)
        word = pf.CyclicWord
        self.originals[(word, "__hash__")] = vars(word)["__hash__"]
        self.originals[(word, "__eq__")] = vars(word)["__eq__"]
        word.__hash__ = self._counted("orbits.word_hash.calls", vars(word)["__hash__"])
        word.__eq__ = self._span("orbits.word_eq", vars(word)["__eq__"])

    def restore_classes(self) -> None:
        """Put the field and word methods back, for the micro-kernels."""
        for (cls, meth), original in self.originals.items():
            setattr(cls, meth, original)

    # -- results ----------------------------------------------------------

    def layer_times(self) -> dict[str, dict]:
        """calls, total seconds and self seconds per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, _parent, _item) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[sid]) / 1e9
        return out

    def billiard_attempts(self) -> int:
        """trace_billiard spans whose ancestors include a billiard report."""
        names = [s[0] for s in self.spans]
        parents = [s[3] for s in self.spans]
        hits = 0
        for sid, name in enumerate(names):
            if name != "tracer.trace_billiard":
                continue
            p = parents[sid]
            while p >= 0 and names[p] != "analysis.billiard_report":
                p = parents[p]
            hits += p >= 0
        return hits

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps([name, start, end, parent, item]) + "\n")

    def metrics(self) -> dict[str, float | None]:
        """Every per-layer metric but the field-operation timings; a self
        time, rate or ratio is None where the workload left its layer idle."""
        c = self.counts
        t = self.layer_times()

        def calls(span):
            return t[span]["calls"] if span in t else 0

        def total_s(span):
            return t[span]["total_s"] if span in t else 0.0

        def ratio(num, den):
            return num / den if den else None

        m = {k: c[k] for k, unit in DECLARED.items() if unit == "count"}
        for span in ("tracer.strip_cells", "tracer.trace_surface",
                     "tracer.trace_billiard", "orbits.word_eq",
                     "periods.period_of_index"):
            m[f"{span}.calls"] = calls(span)
        m["directions.coordinate_of_index.self_s"] = (
            t["directions.coordinate_of_index"]["self_s"]
            if "directions.coordinate_of_index" in t else 0.0)
        for metric, unit in REPORTED.items():
            span = metric[:-len(".self_s")]
            if unit == "s":
                m[metric] = t[span]["self_s"] if span in t else None
        m["tracer.crossings_per_needed"] = ratio(c["tracer.crossings"],
                                                 c["tracer.crossings_needed"])
        m["tracer.crossings_per_s"] = ratio(c["tracer.crossings"],
                                            total_s("tracer.trace_surface"))
        m["tracer.reflections_per_s"] = ratio(c["tracer.reflections"],
                                              total_s("tracer.trace_billiard"))
        m["analysis.billiard_attempts_per_report"] = ratio(
            self.billiard_attempts(), calls("analysis.billiard_report"))
        m["orbits.symbols_per_s"] = ratio(c["orbits.symbols_out"],
                                          total_s("orbits.orbit_of_index"))
        m["directions.moebius_applies_per_digit"] = ratio(
            c["directions.moebius_applies"], c["directions.digits_out"])
        return m


def operands(pf, workload: str, items: list[dict]) -> list:
    """Golden operands from the workload's own inputs: the sample points for
    renorm, the boundary coordinates of the item indices otherwise."""
    if workload == "renorm":
        return [pf.GoldenNum(Fraction(*it["a"]), Fraction(*it["b"])) for it in items]
    key = "index" if workload == "oracle" else "digits"
    idxs = [pf.DirectionIndex(tuple(int(c) for c in it[key])) for it in items]
    return [pf.coordinate_of_index(idx).value for idx in idxs]


def kernels(pf, values: list, repeats: int = 5) -> dict[str, float]:
    """Nanoseconds per call of the field operations, the median of `repeats`
    sweeps over operand pairs of consecutive values."""
    golden, penta = pf.GoldenNum, pf.PentaNum
    values = [v for v in values if not v.is_zero()][:64] or [golden.of(1, 1)]
    pairs = list(zip(values, values[1:] + values[:1]))
    pvals = [penta(a, b) for a, b in pairs]
    ppairs = list(zip(pvals, pvals[1:] + pvals[:1]))

    cases = {
        "golden.mul_ns": (golden.__mul__, pairs),
        "golden.inverse_ns": (golden.inverse, [(v,) for v in values]),
        "golden.sign_ns": (golden.sign, [(v,) for v in values]),
        "penta.mul_ns": (penta.__mul__, ppairs),
        "penta.inverse_ns": (penta.inverse, [(v,) for v in pvals]),
    }
    out = {}
    clock = time.perf_counter_ns
    for name, (fn, args) in cases.items():
        per_call = []
        for _ in range(repeats):
            start = clock()
            for a in args:
                fn(*a)
            per_call.append((clock() - start) / len(args))
        out[name] = statistics.median(per_call)
    return out
