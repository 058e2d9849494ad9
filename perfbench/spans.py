"""Span recorder for the traced run.

`Tracer.install` wraps the library's public functions at every module
attribute where a caller looks them up, and `uninstall` puts the originals
back, so untraced runs execute unmodified library code. Spans are kept in
memory while the run lasts; `write` saves them when it ends.

A span's self time is its duration minus the part of it that its child spans
cover. Counts (arcs, edges, class numbers, merges) are read from the wrapped
calls' arguments and return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, function) pairs timed per span; metric names are "<module>.<function>"
TRACED = (
    ("cli", "main"),
    ("core", "parse_graph"),
    ("core", "to_text"),
    ("core", "shadow"),
    ("core", "is_connected"),
    ("core", "bfs"),
    ("shadow_factor", "factor_shadow"),
    ("shadow_factor", "coordinates_from_colors"),
    ("directed_factor", "factor_directed"),
    ("loop_factor", "factor_with_loops"),
    ("product", "group_coordinates"),
    ("product", "unit_layer"),
    ("product", "cartesian_product"),
    ("oracle", "reconstruct_check_parts"),
)
# functions whose tracemalloc peak is reported
PEAKED = (
    "shadow_factor.factor_shadow",
    "product.group_coordinates",
    "core.parse_graph",
    "product.cartesian_product",
    "oracle.reconstruct_check_parts",
)
COUNTS = (
    "graph.arcs",
    "shadow.edges",
    "classes.k0",
    "classes.k1",
    "classes.k2",
    "directed.merges",
    "loops.merges",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        out.append(s.end - s.start - covered(children.get(i, []), s.start, s.end))
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _observe(name: str, args, result, counts: dict[str, int]) -> None:
    def most(key, value):
        counts[key] = max(counts.get(key, 0), value)

    if name == "core.parse_graph":
        most("graph.arcs", len(result.arcs))
    elif name == "core.shadow":
        most("shadow.edges", result.edge_count)
    elif name == "shadow_factor.factor_shadow":
        most("classes.k0", len(result.factors))
    elif name == "directed_factor.factor_directed":
        G, SF = args[0], args[1]
        most("graph.arcs", len(G.arcs))
        most("shadow.edges", len(SF.colors))
        most("classes.k0", len(SF.factors))
        counts["classes.k1"] = len(result.factors)
        counts["directed.merges"] = counts.get("directed.merges", 0) + result.merges
    elif name == "loop_factor.factor_with_loops":
        counts["classes.k2"] = len(result.factors)
        counts["loops.merges"] = counts.get("loops.merges", 0) + result.merges


class Tracer:
    """Collects spans, counts and tracemalloc peaks of wrapped library calls.

    Recording happens only between `begin_job` and `end_job`; calls made
    while checking outputs pass straight through.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.job_times: list[tuple[int, float, float]] = []
        self.counts: list[dict[str, int]] = []
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._peak_frames: list[list[int]] = []
        self._job: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "boxfactor"]
        for modname, fname in TRACED:
            orig = getattr(sys.modules[f"boxfactor.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for mod in mods:
                if vars(mod).get(fname) is orig:
                    self._patched.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        peaked = self.memory and name in PEAKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            if peaked:
                return self._call_peaked(name, fn, args, kwargs)
            if self.memory:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, self._job)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            _observe(name, args, result, self.counts[-1])
            return result

        return wrapper

    def _call_peaked(self, name, fn, args, kwargs):
        # reset_peak is global, so fold the current peak into every open frame first
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._peak_frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._peak_frames.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._peak_frames.pop()
            peak = max(frame[1], tracemalloc.get_traced_memory()[1])
            for outer in self._peak_frames:
                outer[1] = max(outer[1], peak)
            self.peaks[name] = max(self.peaks[name], (peak - frame[0]) / 2**20)

    # -- jobs --------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self._job = job
        self.counts.append({})

    def end_job(self, start: float, end: float) -> None:
        """Close the job; [start, end] is its wall time as the loop measured it."""
        self.job_times.append((self._job, start, end))
        self._job = None

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-job means of self time, calls and counts, plus peaks and untraced time."""
        jobs = max(1, len(self.job_times))
        selfs = self_times(self.spans)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s, st in zip(self.spans, selfs):
            self_s[s.name] += st
            calls[s.name] += 1
            if s.parent is None:
                top[s.job].append((s.start, s.end))
        out: dict[str, tuple[float, str]] = {}
        for modname, fname in TRACED:
            name = f"{modname}.{fname}"
            out[f"{name}.self_s"] = (self_s[name] / jobs, "s")
            out[f"{name}.calls"] = (calls[name] / jobs, "count")
        for name in PEAKED:
            out[f"{name}.peak_mb"] = (self.peaks[name], "MB")
        totals = defaultdict(int)
        for c in self.counts:
            if "classes.k1" in c and "classes.k2" not in c:
                c["classes.k2"] = c["classes.k1"]  # no loops: the loop pass never ran
            for key in COUNTS:
                totals[key] += c.get(key, 0)
        for key in COUNTS:
            out[key] = (totals[key] / jobs, "count")
        untraced = sum(b - a - covered(top[j], a, b) for j, a, b in self.job_times)
        out["untraced_s"] = (untraced / jobs, "s")
        return out

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "job": s.job}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
