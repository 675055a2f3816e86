"""In-memory span recorder and the timing wrappers the traced run installs.

A span is (id, name, start, end, parent). Spans are kept in a list and
written out once, when the run ends. Counts (calls, work items) are
recorded at the same boundaries.

Wrappers go on the name each caller looks up: `pipeline.run_cv` as well
as `evaluation.run_cv`, `recipes.stepwise_select` as well as
`lur.stepwise_select`. `Instrumentation.restore` puts every original
back. Spans assume one thread: the pipeline runs with `threads=1`.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def add_busy(self, name: str, start: float, busy: float) -> None:
        """Record work that ran in pieces (a generator consumed by its
        caller) as one span of its summed busy time, starting at its first
        piece, under the span that was open when it started."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._new_id(), name, start, start + busy, parent))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # -- summaries ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans with this name. No wrapped function
        calls another that records the same name, so none are nested."""
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Self time per layer (the text before the first dot of a span
        name): each span's duration minus the time its children cover.
        Children of one span never overlap, since spans nest in one thread."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name.split(".", 1)[0]] += (end - start) - child_time[sid]
        return dict(out)


class Instrumentation:
    """Timing wrappers over the program's public functions, installed on
    every name a caller looks up and removed by `restore`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> object:
        """Set `owner.attr = new`, keeping the original for `restore`."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)
        return original

    def wrap(self, owner, attr: str, span_name: str, counts=None) -> None:
        """Replace `owner.attr` with a timed wrapper that counts calls and
        raised errors. `counts(args, kwargs, result)` returns {count name:
        value} recorded after each call."""
        original = getattr(owner, attr)
        tracer = self.tracer

        def wrapped(*args, **kwargs):
            tracer.count(span_name + "_calls")
            try:
                with tracer.span(span_name):
                    result = original(*args, **kwargs)
            except Exception:
                tracer.count(span_name + "_errors")
                raise
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    tracer.count(key, value)
            return result

        self.replace(owner, attr, wrapped)

    def wrap_generator(self, owner, attr: str, span_name: str, count_name: str) -> None:
        """Time a generator function by the time spent inside its own
        `next()` calls; the caller's time between items is not counted."""
        original = getattr(owner, attr)
        tracer = self.tracer

        def wrapped(*args, **kwargs):
            tracer.count(span_name + "_calls")
            inner = original(*args, **kwargs)
            first = None
            busy = 0.0
            items = 0
            try:
                while True:
                    t = time.perf_counter()
                    first = t if first is None else first
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - t
                        return
                    busy += time.perf_counter() - t
                    items += 1
                    yield item
            finally:
                if first is not None:
                    tracer.add_busy(span_name, first, busy)
                tracer.count(count_name, items)

        self.replace(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def write_spans(path, tracers: dict[str, Tracer]) -> None:
    """Write every span as one JSON line tagged with its tracer's phase;
    times are seconds from the earliest span."""
    t0 = min((s[2] for t in tracers.values() for s in t.spans), default=0.0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for phase, tracer in tracers.items():
            for sid, name, start, end, parent in sorted(tracer.spans, key=lambda s: s[2]):
                f.write(json.dumps({"phase": phase, "id": sid, "name": name,
                                    "start": start - t0, "end": end - t0,
                                    "parent": parent}) + "\n")


def instrument(tracer: Tracer) -> Instrumentation:
    """Install wrappers on every layer the benchmark reports. Imports the
    program lazily so the module loads without it."""
    from lurk import (covariates, evaluation, exposure, geodata, kriging, lur, monitors,
                      pipeline, recipes)

    ins = Instrumentation(tracer)
    site_values = lambda a, kw, r: {"covariates.site_values": r.values.size}
    cells = lambda a, kw, r: {"covariates.cell_values": sum(g.values.size for g in r.values())}
    raster_cells = lambda a, kw, r: {"geodata.raster_cells": r.n_cols * r.n_rows}

    # geodata: looked up as `geodata.read_*` by the pipeline.
    ins.wrap(geodata, "read_features", "geodata.read_features",
             lambda a, kw, r: {"geodata.features": len(r)})
    ins.wrap(geodata, "read_raster", "geodata.read_raster", raster_cells)
    ins.wrap(geodata, "read_categorical", "geodata.read_raster", raster_cells)

    # covariates: looked up as `cov.build_matrix` / `cov.rasterize_covariates`.
    ins.wrap(covariates, "build_matrix", "covariates.build_matrix", site_values)
    ins.wrap(covariates, "rasterize_covariates", "covariates.rasterize", cells)

    # monitors: imported by name into the pipeline.
    for owner in (monitors, pipeline):
        ins.wrap_generator(owner, "read_daily_csv", "monitors.read_daily",
                           "monitors.daily_records")
        ins.wrap(owner, "annualize", "monitors.annualize")

    # lur and kriging: imported by name into recipes; uk_fit looks its
    # helpers up in the kriging module.
    selected = lambda a, kw, r: {"lur.selected_columns": len(r.selected)}
    for owner in (lur, recipes):
        ins.wrap(owner, "stepwise_select", "lur.stepwise_select", selected)
        ins.wrap(owner, "pls_fit", "lur.pls_fit")
    for owner in (kriging, recipes):
        ins.wrap(owner, "uk_fit", "kriging.uk_fit")
    ins.wrap(kriging, "empirical_variogram", "kriging.empirical_variogram")
    ins.wrap(kriging, "fit_exponential", "kriging.fit_exponential")
    ins.wrap(kriging.KrigingModel, "__init__", "kriging.solve_setup")
    ins.wrap(kriging.KrigingModel, "predict_many", "kriging.predict_many",
             lambda a, kw, r: {"kriging.predict_points": len(r[0])})

    # recipes and evaluation: imported by name into evaluation and pipeline.
    for owner in (recipes, evaluation, pipeline):
        ins.wrap(owner, "fit_recipe", "recipes.fit_recipe")
    folds = lambda a, kw, r: {"evaluation.folds": len(r.per_fold)}
    for owner in (evaluation, pipeline):
        ins.wrap(owner, "run_cv", "evaluation.run_cv", folds)

    def mc_counts(a, kw, r):
        n_grid = kw.get("n_grid", a[3] if len(a) > 3 else ())
        iterations = kw.get("iterations", a[4] if len(a) > 4 else 0)
        return {"evaluation.mc_iterations": len(r.rows),
                "evaluation.mc_skipped": len(n_grid) * iterations - len(r.rows)}

    ins.wrap(evaluation, "monte_carlo_curve", "evaluation.monte_carlo", mc_counts)

    # exposure: imported by name into the pipeline.
    grid_counts = lambda a, kw, r: {
        "exposure.cells_predicted": r.concentration.n_cols * r.concentration.n_rows,
        "exposure.n_floored": r.n_floored,
    }
    for owner in (exposure, pipeline):
        ins.wrap(owner, "predict_grid", "exposure.predict_grid", grid_counts)
        ins.wrap(owner, "cumulative_exposure", "exposure.cumulative_exposure")

    # pipeline: one span per stage (cached or not) and the bytes it hashes.
    tracer = ins.tracer

    def stage(self, name, *args, **kwargs):
        with tracer.span(f"pipeline.stage.{name}"):
            entry, cached = original_stage(self, name, *args, **kwargs)
        tracer.count("pipeline.stages")
        tracer.count("pipeline.stages_cached", float(cached))
        return entry, cached

    original_stage = ins.replace(pipeline._Runner, "stage", stage)
    ins.wrap(pipeline, "sha256_file", "pipeline.hash",
             lambda a, kw, r: {"pipeline.hashed_bytes": os.path.getsize(a[0])})
    return ins
