"""Span tracing of the program's public entry points, installed at run time.

The benchmark wraps the public functions of each layer it calls (see
:data:`TRACE_POINTS`); nothing in ``src/`` knows it is being traced.  Each
wrapped call records one span: name, start, end, parent span, the phase
(``setup`` or ``measure``) and the id of the tick or request it served.
Spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so summing self times over every span of a phase counts
each traced instant exactly once.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

#: (module, class, method, span name, count) — *count* names what one call
#: contributes to the span's item count: ``None`` (nothing), ``"rows"`` (the
#: ``n_rows`` of the returned frame), ``"int"`` (the returned integer) or
#: ``"cf"`` (a CoMTE counterfactual's evaluation counts).
TRACE_POINTS = (
    ("repro.hist.store", "HistStore", "ingest", "hist.ingest", "int"),
    ("repro.hist.store", "HistContainer", "query", "hist.query", "rows"),
    ("repro.monitoring.streaming", "StreamingDetector", "ingest_many", "monitoring.ingest_many", None),
    ("repro.monitoring.streaming", "StreamingDetector", "calibrate", "monitoring.calibrate", None),
    ("repro.features.rolling", "RollingNodeEngine", "admit", "features.rolling_admit", None),
    ("repro.features.rolling", "RollingNodeEngine", "evaluate", "features.rolling_evaluate", None),
    ("repro.runtime.parallel", "ParallelExtractor", "extract_matrix", "features.extract", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "submit", "fleet.submit", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "pump", "fleet.pump", None),
    ("repro.fleet.rollup", "ClusterRollup", "observe_many", "fleet.rollup", None),
    ("repro.core.prodigy", "ProdigyDetector", "anomaly_score", "core.score", None),
    ("repro.core.vae", "VAE", "fit", "core.vae_fit", None),
    ("repro.serving.gateway", "ServingGateway", "request", "serving.gateway", None),
    ("repro.serving.service", "AnalyticsService", "history_dashboard", "serving.history_panel", None),
    ("repro.serving.service", "AnalyticsService", "fleet_dashboard", "serving.fleet_panel", None),
    ("repro.pipeline.datagenerator", "DataGenerator", "job_series", "pipeline.datagenerator", None),
    ("repro.pipeline.datagenerator", "DataGenerator", "node_series", "pipeline.datagenerator", None),
    ("repro.pipeline.datapipeline", "DataPipeline", "fit_from_series", "pipeline.fit", None),
    ("repro.pipeline.datapipeline", "DataPipeline", "fit", "pipeline.fit", None),
    ("repro.pipeline.modeltrainer", "ModelTrainer", "save", "pipeline.trainer_save", None),
    ("repro.explain.comte", "OptimizedSearch", "explain", "explain.search", "cf"),
    ("repro.lifecycle.registry", "ModelRegistry", "register_artifacts", "lifecycle.register", None),
    ("repro.lifecycle.registry", "ModelRegistry", "activate", "lifecycle.activate", None),
    ("repro.lifecycle.registry", "ModelRegistry", "load", "lifecycle.load", None),
)

SETUP, MEASURE = "setup", "measure"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, phase, op id]
        self.spans: list[list] = []
        #: per span name: summed item counts (see TRACE_POINTS)
        self.items: dict[str, dict[str, float]] = {}
        self.phase = SETUP
        self.op: int | None = None
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add_items(self, name: str, **counts: float) -> None:
        if self.phase != MEASURE:
            return
        entry = self.items.setdefault(name, {})
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every :data:`TRACE_POINTS` method, for the rest of the process."""
        for module_name, class_name, attr, name, count in TRACE_POINTS:
            owner = getattr(importlib.import_module(module_name), class_name)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))

    def _wrap(self, fn, name: str, count: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count == "rows":
                tracer.add_items(name, rows=result.n_rows)
            elif count == "int":
                tracer.add_items(name, rows=int(result))
            elif count == "cf":
                tracer.add_items(
                    name,
                    evaluations=result.n_evaluations,
                    cached_evaluations=result.n_cached_evaluations,
                )
            return result

        return traced

    # -- analysis --------------------------------------------------------------

    def self_times(self, phase: str = MEASURE) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time and summed duration."""
        return summarize(self.spans, phase)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "phase", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of *interval* that the union of *children* covers."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time_list(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered((span[1], span[2]), children.get(i, []))
        for i, span in enumerate(spans)
    ]


def summarize(spans: list[list], phase: str = MEASURE) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_time_list(spans)):
        if span[4] != phase:
            continue
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[2] - span[1]
    return out
