"""Per-layer spans and counters for the benchmark, taken from outside hupa.

Nothing in the package is instrumented.  ``LayerTrace.install()`` rebinds
the public names through which one hupa module calls another (for example
``hupa.cli.voronoi`` or ``hupa.variance.window_counts``) to timing or
counting wrappers, and ``uninstall()`` puts the originals back.  Spans nest:
a span's self time is its duration minus the spans it encloses, and the time
of the outermost spans is what the benchmark subtracts from a pass's wall
time to get the CLI's own glue time.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Per-layer metric names, in the order the benchmark prints them.  Each
# ``*_s`` metric is the inclusive time of the span of the same name, except
# the derived ones computed in ``metrics()``.
TIME_METRICS = (
    "variance.window_counts_s",
    "variance.default_radii_s",
    "variance.fit_classify_s",
    "field.window_dark_fractions_s",
    "field.rasterize_s",
    "field.save_field_s",
    "field.load_field_s",
    "tessellation.delaunay_s",
    "tessellation.voronoi_self_s",
    "tessellation.cell_statistics_s",
    "tessellation.face_model_s",
    "tessellation.save_tess_s",
    "generators.generate_s",
    "pattern.load_pattern_s",
    "pattern.save_pattern_s",
    "svg.render_s",
    "report.build_report_s",
    "report.write_report_s",
)
COUNT_METRICS = (
    "variance.window_counts_calls",
    "variance.windows_evaluated",
    "variance.points_counted",
    "field.windows_evaluated",
    "field.row_evaluations",
    "tessellation.triangles",
    "predicates.orient2d_calls",
    "predicates.incircle_perturbed_calls",
    "predicates.circumcenter_calls",
    "generators.points_generated",
    "pattern.points_loaded",
)


class LayerTrace:
    """Spans and counters recorded while installed; see the module doc."""

    def __init__(self):
        self._saved = []
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.outer = 0.0  # summed duration of spans with no enclosing span
        self._open = []  # per open span: time spent in its child spans

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._open.pop()
                self.inclusive[name] += dt
                self.self_time[name] += dt - children
                if self._open:
                    self._open[-1] += dt
                else:
                    self.outer += dt
            if after is not None:
                after(self.counts, args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------- binding

    def install(self):
        if self._saved:
            raise RuntimeError("layer trace is already installed")
        for owners, wrapper in self._bindings():
            for owner, attr in owners:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _bindings(self):
        from hupa import (cli, field, generators, pattern, report, svg,
                          tessellation, variance)

        def count_len(name):
            def after(counts, args, result):
                counts[name] += len(result)
            return after

        def window_counts_done(counts, args, result):
            counts["variance.window_counts_calls"] += 1
            counts["variance.windows_evaluated"] += len(result)
            counts["variance.points_counted"] += int(result.sum())

        def dark_fractions_done(counts, args, result):
            rows = args[0].bits.shape[0]  # args[0] is the BinaryField
            counts["field.windows_evaluated"] += len(result)
            counts["field.row_evaluations"] += len(result) * rows

        def triangles_done(counts, args, result):
            counts["tessellation.triangles"] += len(result.triangles)

        span = self._span
        BinaryField = field.BinaryField
        fit_classify = "variance.fit_classify"
        return [
            ([(cli, "generate")],
             span("generators.generate", generators.generate,
                  count_len("generators.points_generated"))),
            ([(cli, "load_pattern"), (pattern, "load_pattern")],
             span("pattern.load_pattern", pattern.load_pattern,
                  count_len("pattern.points_loaded"))),
            ([(cli, "save_pattern")],
             span("pattern.save_pattern", pattern.save_pattern)),
            ([(variance, "window_counts")],
             span("variance.window_counts", variance.window_counts,
                  window_counts_done)),
            ([(cli, "default_radii")],
             span("variance.default_radii", variance.default_radii)),
            ([(cli, "fit_scaling")], span(fit_classify, variance.fit_scaling)),
            ([(cli, "classify")], span(fit_classify, variance.classify)),
            ([(BinaryField, "window_dark_fractions")],
             span("field.window_dark_fractions",
                  BinaryField.window_dark_fractions, dark_fractions_done)),
            ([(field, "rasterize_tessellation")],
             span("field.rasterize", field.rasterize_tessellation)),
            ([(field, "save_field")], span("field.save_field", field.save_field)),
            ([(cli, "load_field")], span("field.load_field", field.load_field)),
            ([(cli, "delaunay"), (tessellation, "delaunay")],
             span("tessellation.delaunay", tessellation.delaunay,
                  triangles_done)),
            ([(cli, "voronoi"), (tessellation, "voronoi")],
             span("tessellation.voronoi", tessellation.voronoi)),
            ([(cli, "cell_statistics")],
             span("tessellation.cell_statistics", tessellation.cell_statistics)),
            # save_tess builds its own face model inside save_tess_s; this
            # span is the one the CLI builds for the SVG.
            ([(cli, "face_model")],
             span("tessellation.face_model", tessellation.face_model)),
            ([(cli, "save_tess")],
             span("tessellation.save_tess", tessellation.save_tess)),
            ([(cli, "render_tess_model")],
             span("svg.render", svg.render_tess_model)),
            ([(cli, "build_report")],
             span("report.build_report", report.build_report)),
            ([(cli, "write_report")],
             span("report.write_report", report.write_report)),
            # Exact predicate calls made from the tessellation module.
            ([(tessellation, "orient2d")],
             self._counter("predicates.orient2d_calls", tessellation.orient2d)),
            ([(tessellation, "incircle_perturbed")],
             self._counter("predicates.incircle_perturbed_calls",
                           tessellation.incircle_perturbed)),
            ([(tessellation, "circumcenter")],
             self._counter("predicates.circumcenter_calls",
                           tessellation.circumcenter)),
        ]

    # ------------------------------------------------------------- results

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics for one traced pass that took ``wall`` seconds."""
        out = {}
        for name in TIME_METRICS:
            span = name[:-2]
            if name == "tessellation.voronoi_self_s":
                out[name] = self.self_time["tessellation.voronoi"]
            else:
                out[name] = self.inclusive[span]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        out["cli.self_s"] = wall - self.outer
        return out
