"""Call-boundary tracing of gridline from outside the package.

gridline modules import each other's functions by value
(``from .lp import solve_lp``), so a wrapper has to replace the name in the
module that *calls* it. ``TARGETS`` lists every such call site as
(module, attribute, span name); the span name's prefix is the layer. The
hottest scalar helpers are counted rather than spanned (``COUNTED``), since
a span per call would cost more than the call.

Spans are kept in memory as (name, start, end, parent index) and written
out once the run ends. Wrapping only works in the calling process, so
traced studies run with one worker.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np

LAYERS = ("network", "weather", "ratings", "factors", "dispatch", "lp", "scopf",
          "pipeline")

# (module, attribute, span name). Class methods are given as "Class.method".
TARGETS = (
    ("gridline.pipeline", "run", "pipeline.run"),
    ("gridline.pipeline", "_solve_task", "pipeline.task"),
    ("gridline.pipeline", "_aggregate", "pipeline.aggregate"),
    ("gridline.pipeline", "_write_outputs", "pipeline.write_outputs"),
    ("gridline.pipeline", "write_csv", "pipeline.write_csv"),
    ("gridline.pipeline", "load_network", "network.load_network"),
    ("gridline.network", "load_network", "network.load_network"),
    ("gridline.pipeline", "load_hourly_series", "network.load_hourly_series"),
    ("gridline.network", "HourlySeries.restrict", "network.restrict"),
    ("gridline.pipeline", "load_weather", "weather.load_weather"),
    ("gridline.weather", "load_weather", "weather.load_weather"),
    ("gridline.pipeline", "build_rating_series", "ratings.build_rating_series"),
    ("gridline.ratings", "build_rating_series", "ratings.build_rating_series"),
    ("gridline.ratings", "sweep_parameters", "ratings.sweep_parameters"),
    ("gridline.pipeline", "build_factors", "factors.build_factors"),
    ("gridline.pipeline", "hour_data", "dispatch.hour_data"),
    ("gridline.pipeline", "solve_copperplate", "dispatch.solve_copperplate"),
    ("gridline.scopf", "base_flow_rows", "dispatch.base_flow_rows"),
    ("gridline.scopf", "build_problem", "dispatch.build_problem"),
    ("gridline.dispatch", "build_problem", "dispatch.build_problem"),
    ("gridline.scopf", "solve_problem", "dispatch.solve_problem"),
    ("gridline.dispatch", "solve_problem", "dispatch.solve_problem"),
    ("gridline.dispatch", "build_lp", "dispatch.build_lp"),
    ("gridline.dispatch", "audit_result", "dispatch.audit_result"),
    ("gridline.dispatch", "solve_lp", "lp.solve_lp"),
    ("gridline.lp", "linprog", "lp.linprog"),
    ("gridline.pipeline", "solve_scdcopf", "scopf.solve_scdcopf"),
    ("gridline.scopf", "post_contingency_flows", "scopf.post_contingency_flows"),
    ("gridline.scopf", "screen_violations", "scopf.screen_violations"),
)

COUNTED = (
    ("gridline.ratings", "nearest_cell", "weather.nearest_cell"),
    ("gridline.ratings", "branch_multiplier", "ratings.branch_multiplier"),
    ("gridline.scopf", "contingency_row", "scopf.contingency_row"),
)

# every metric a traced run reports, with its unit
LAYER_UNITS = {
    "network.load_s": "s", "weather.load_s": "s", "weather.nearest_cell_calls": "count",
    "ratings.build_s": "s", "ratings.branch_multiplier_calls": "count",
    "ratings.branch_hours_per_s": "1/s",
    "factors.build_s": "s", "factors.matrix_mb": "MB",
    "dispatch.build_lp_s": "s", "dispatch.audit_s": "s",
    "dispatch.lp_count": "count", "dispatch.lp_nnz": "count",
    "lp.solve_s": "s", "lp.simplex_iterations": "count",
    "scopf.screen_s": "s", "scopf.passes": "count", "scopf.contingency_rows": "count",
    "scopf.binding_row_share": "ratio", "scopf.hours": "count",
    "scopf.hour_p50_s": "s", "scopf.hour_p99_s": "s",
    "pipeline.write_s": "s", "pipeline.output_mb": "MB", "pipeline.tasks": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_share": "ratio",
}

BINDING_TOL = 1e-9  # same threshold the pipeline uses for binding rows


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of one traced study."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _observe(self, name: str, result) -> None:
        """Counts read off a call's result."""
        if name == "factors.build_factors":
            self.add("factors.matrix_bytes", result.ptdf.nbytes + result.lodf.nbytes)
        elif name == "ratings.build_rating_series":
            self.add("ratings.branch_hours", result.multiplier.size)
        elif name == "dispatch.build_lp":
            lp = result[0]
            self.add("dispatch.lp_count")
            self.add("dispatch.lp_nnz", 0 if lp.a_ub is None else lp.a_ub.nnz)
        elif name == "lp.linprog":
            self.add("lp.simplex_iterations", int(result.nit))
        elif name == "scopf.solve_scdcopf":
            self.add("scopf.passes", result.iterations)
            dispatch = result.dispatch
            if dispatch.row_duals is not None:
                binding = sum(
                    1 for r, row in enumerate(result.flow_rows)
                    if row.outage_branch is not None
                    and (abs(dispatch.row_duals[r]) > BINDING_TOL
                         or dispatch.slack_values[r] > BINDING_TOL))
                self.add("scopf.binding_rows", binding)
        elif name == "pipeline.task":
            self.add("pipeline.tasks")

    def span(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            self._observe(name, result)
            return result
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the original attributes on exit,
        also when the traced code raises."""
        saved = []
        try:
            for module_name, attribute, name in TARGETS + COUNTED:
                owner, attr = _resolve(module_name, attribute)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                make = self.counter if (module_name, attribute, name) in COUNTED else self.span
                setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- summaries -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, *names: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n in names)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover.
        Calls are synchronous in one thread, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name.split(".", 1)[0]] += (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced study, by metric name."""
        c = self.counts.get
        rating_s = self.total("ratings.build_rating_series")
        hours = self.durations("scopf.solve_scdcopf")
        added = c("scopf.contingency_row", 0)
        metrics = {
            "network.load_s": self.total("network.load_network",
                                         "network.load_hourly_series", "network.restrict"),
            "weather.load_s": self.total("weather.load_weather"),
            "weather.nearest_cell_calls": c("weather.nearest_cell", 0),
            "ratings.build_s": rating_s,
            "ratings.branch_multiplier_calls": c("ratings.branch_multiplier", 0),
            "ratings.branch_hours_per_s": (c("ratings.branch_hours", 0) / rating_s
                                           if rating_s else 0.0),
            "factors.build_s": self.total("factors.build_factors"),
            "factors.matrix_mb": c("factors.matrix_bytes", 0) / 1e6,
            "dispatch.build_lp_s": self.total("dispatch.build_lp"),
            "dispatch.audit_s": self.total("dispatch.audit_result"),
            "dispatch.lp_count": c("dispatch.lp_count", 0),
            "dispatch.lp_nnz": c("dispatch.lp_nnz", 0),
            "lp.solve_s": self.total("lp.solve_lp"),
            "lp.simplex_iterations": c("lp.simplex_iterations", 0),
            "scopf.screen_s": self.total("scopf.post_contingency_flows",
                                         "scopf.screen_violations"),
            "scopf.passes": c("scopf.passes", 0),
            "scopf.contingency_rows": added,
            "scopf.binding_row_share": c("scopf.binding_rows", 0) / added if added else 0.0,
            "scopf.hours": len(hours),
            "scopf.hour_p50_s": float(np.percentile(hours, 50)) if hours else 0.0,
            "scopf.hour_p99_s": float(np.percentile(hours, 99)) if hours else 0.0,
            "pipeline.write_s": self.total("pipeline.write_csv"),
            "pipeline.tasks": c("pipeline.tasks", 0),
        }
        for layer, seconds in self.self_times().items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics

    def dump(self, path: Path, trace_id: str) -> None:
        """Write the spans as JSON lines: one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"trace": trace_id, "id": index, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")
