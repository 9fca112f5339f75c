"""Span tracing for the benchmark's traced run.

Wrappers go around coordlab's public functions at the names the calling
module looks up (``coordlab.oracle.solve_two_node`` is a different name
from ``coordlab.region_solver.solve_two_node``, though both reach the same
function), so every cross-module call leaves one span. Nothing in the
package changes: the wrappers exist only between ``install`` and
``remove``, and ``remove`` puts the original objects back.

Spans stay in memory; each records its name, start, end, parent span, the
workload tag active when it opened, and a few numbers taken from the
call's result.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    tag: Optional[str]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gap(point) -> dict:
    return {"gap": float(point.certificate)}


def _worst_gap(points) -> dict:
    return {"gap": max(float(p.certificate) for p in points)}


def _m1(code) -> dict:
    return {"m1": int(code.m1)}


def _samples(report) -> dict:
    return {"samples": int(report.sample_count)}


def _space(report) -> dict:
    return {"space": int(report.search_space_size)}


def _evaluated(scan) -> dict:
    return {"space": int(scan["evaluated_codes"])}


# (module looked up by the caller, attribute, span name, result hook)
TARGETS = (
    ("coordlab.region_solver", "solve_two_node", "region_solver.solve_two_node", _gap),
    ("coordlab.region_solver", "solve_cascade", "region_solver.solve_cascade", _worst_gap),
    ("coordlab.region_solver", "delta_star", "region_solver.delta_star", None),
    ("coordlab.region_solver", "compose", "prob_core.compose", None),
    ("coordlab.region_solver", "in_delta_neighborhood", "prob_core.in_delta_neighborhood", None),
    ("coordlab.coordination_code", "build_codebook_code", "coordination_code.build_codebook_code", _m1),
    ("coordlab.coordination_code", "expected_tv_monte_carlo", "coordination_code.expected_tv_monte_carlo", _samples),
    ("coordlab.coordination_code", "expected_tv_exact", "coordination_code.expected_tv_exact", None),
    ("coordlab.coordination_code", "compose", "prob_core.compose", None),
    ("coordlab.coordination_code", "total_variation", "prob_core.total_variation", None),
    ("coordlab.oracle", "solve_two_node", "region_solver.solve_two_node", _gap),
    ("coordlab.oracle", "build_codebook_code", "coordination_code.build_codebook_code", _m1),
    ("coordlab.oracle", "expected_tv_exact", "coordination_code.expected_tv_exact", None),
    ("coordlab.oracle", "compose", "prob_core.compose", None),
    ("coordlab.oracle", "grid_min_mi", "oracle.grid_min_mi", _space),
    ("coordlab.oracle", "exhaustive_best_code", "oracle.exhaustive_best_code", _space),
    ("coordlab.oracle", "theorem_consistency_scan", "oracle.theorem_consistency_scan", _evaluated),
    ("coordlab.prob_core", "compose", "prob_core.compose", None),
    ("coordlab.prob_core", "in_delta_neighborhood", "prob_core.in_delta_neighborhood", None),
    ("coordlab.prob_core", "total_variation", "prob_core.total_variation", None),
    ("coordlab.prob_core", "mutual_information", "prob_core.mutual_information", None),
    ("coordlab.cli", "main", "cli.main", None),
)


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list = []
        self.tag: Optional[str] = None
        self._stack: list = []
        self._installed: list = []

    def _wrap(self, original: Callable, name: str, hook) -> Callable:
        spans, stack = self.spans, self._stack
        leaf = name.startswith("prob_core.")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # prob_core calling itself stays inside its caller's span
            if leaf and stack and spans[stack[-1]].name.startswith("prob_core."):
                return original(*args, **kwargs)
            span = Span(len(spans), stack[-1] if stack else None, name, self.tag, 0.0)
            spans.append(span)
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(result)
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def remove(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]


def span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, timed on a function doing nothing."""

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "probe", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def layer_metrics(tracer: Tracer) -> dict:
    """Per-name and per-module aggregates of a finished trace."""
    by_name: dict = {}
    by_module: dict = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        module = span.name.split(".", 1)[0]
        agg = by_name.setdefault(
            span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "s_max": 0.0, "spans": []}
        )
        agg["calls"] += 1
        agg["s"] += span.duration
        agg["self_s"] += self_s
        agg["s_max"] = max(agg["s_max"], span.duration)
        agg["spans"].append(span)
        mod = by_module.setdefault(module, {"calls": 0, "s": 0.0, "self_s": 0.0})
        mod["calls"] += 1
        mod["s"] += span.duration
        mod["self_s"] += self_s
    return {"by_name": by_name, "by_module": by_module}
