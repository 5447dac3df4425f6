"""Per-layer spans for a traced benchmark run, recorded from outside ``src/``.

``install`` wraps public functions of the tspec modules.  The CLI and the
library import names into their own namespaces (``tspec.cli.save_dataset``,
``tspec.dataprep.window_matrices``, ``tspec.models.ensembles.build_tree``,
``tspec.evalharness.predict``, ...), so each wrapper replaces the function in
every tspec module namespace that holds it, which is where calls look it up.
Patching only the defining module would miss those calls.

A span's self time is its duration minus the time of the spans it caused.
Spans are aggregated in memory per name: ``<name>.s`` (total), ``<name>.self_s``
and ``<name>.calls``; counters add up under their own names.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

FAMILIES = ("glm_binomial", "glm_gaussian", "random_forest", "gbm")
CLI_COMMANDS = ("synth", "build-dataset", "train", "sweep", "identify")

# Every per-layer metric a traced run reports, in the order BENCHMARK.json
# lists them.  A metric whose layer did not run on a workload reads 0.
PER_LAYER = (
    *(f"cli.{c}.self_s" for c in CLI_COMMANDS),
    "ingest.parse_flow_csv.s",
    "ingest.parse_flow_csv.rows",
    "ingest.fill_missing_points.s",
    "ingest.fill_missing_points.filled",
    "ingest.select_features.s",
    "ingest.nonconstant_features.s",
    "windowing.window_matrices.s",
    "windowing.window_attack_tags.s",
    "windowing.windows",
    "spectrum.label_values.s",
    "spectrum.compute_threshold.s",
    "spectrum.threshold.n1",
    "spectrum.threshold.marked",
    "dataprep.generate_synthetic.s",
    "dataprep.assemble_dataset.s",
    "dataprep.split_dataset.s",
    "dataprep.zscore.s",
    "dataprep.save_dataset.s",
    "dataprep.save_dataset.bytes",
    "dataprep.load_dataset.s",
    "dataprep.load_dataset.calls",
    "dataprep.load_dataset.bytes",
    "dataprep.inject_noise.s",
    "dataprep.inject_noise.calls",
    *(f"models.train.{f}.s" for f in FAMILIES),
    *(f"models.predict.{f}.s" for f in FAMILIES),
    "models.predict.rows",
    "models.save_model.s",
    "models.load_model.s",
    "models.model_bytes",
    "models.glm.fit_binomial.s",
    "models.glm.fit_gaussian.s",
    "models.ensembles.gbm_fit.s",
    "models.ensembles.forest_fit.s",
    "models.trees.build_tree.s",
    "models.trees.build_tree.calls",
    "models.trees.build_tree.nodes",
    "models.trees.tree_predict.s",
    "models.trees.tree_predict.calls",
    "evalharness.run_noise_sweep.s",
    "evalharness.cells",
    "evalharness.emit_report.s",
    "evalharness.report_bytes",
    "identify.build_registry.s",
    "identify.identify_segments.s",
    "identify.segments",
    "identify.registry_io.s",
    "trace.overhead_s",  # filled in by run.py: traced minus untraced pipeline_s
    "failed_ops",  # filled in by run.py: share of commands and checks that failed
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "failed_ops":
        return "share"
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def _size(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.is_file() else 0


def _dataset_size(folder) -> int:
    return _size(Path(folder) / "dataset.csv") + _size(Path(folder) / "dataset.json")


class Tracer:
    """Nested wall-clock spans aggregated by name."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open span

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self.values[f"{name}.s"] += duration
            self.values[f"{name}.self_s"] += duration - children
            self.values[f"{name}.calls"] += 1

    def add(self, name: str, amount: float):
        self.values[name] += amount

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's arguments; ``count(tracer, result, *args)`` runs after the
        span closes, so its work is not timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(*args)):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        return {name: float(self.values.get(name, 0.0)) for name in PER_LAYER}


def _layers():
    """(module, function, span name, counter) for every wrapped function."""
    from tspec.spectrum import binarize

    def threshold(tracer, spec, labels, n1, *rest, **kw):
        tracer.add("spectrum.threshold.n1", n1)
        tracer.add("spectrum.threshold.marked", int(binarize(labels, spec).sum()))

    return [
        ("tspec.ingest", "parse_flow_csv", "ingest.parse_flow_csv",
         lambda t, r, *a, **k: t.add("ingest.parse_flow_csv.rows", len(r))),
        ("tspec.ingest", "fill_missing_points", "ingest.fill_missing_points",
         lambda t, r, timeline, *a, **k: t.add("ingest.fill_missing_points.filled",
                                               len(r) - len(timeline))),
        ("tspec.ingest", "select_features", "ingest.select_features", None),
        ("tspec.ingest", "nonconstant_features", "ingest.nonconstant_features", None),
        ("tspec.windowing", "window_matrices", "windowing.window_matrices",
         lambda t, r, *a, **k: t.add("windowing.windows", r[0].shape[0])),
        ("tspec.windowing", "window_attack_tags", "windowing.window_attack_tags", None),
        ("tspec.spectrum", "coap_values", "spectrum.label_values", None),
        ("tspec.spectrum", "sspe_values", "spectrum.label_values", None),
        ("tspec.spectrum", "compute_threshold", "spectrum.compute_threshold", threshold),
        ("tspec.dataprep", "generate_synthetic", "dataprep.generate_synthetic", None),
        ("tspec.dataprep", "assemble_dataset", "dataprep.assemble_dataset", None),
        ("tspec.dataprep", "split_dataset", "dataprep.split_dataset", None),
        ("tspec.dataprep", "zscore_fit", "dataprep.zscore", None),
        ("tspec.dataprep", "zscore_apply", "dataprep.zscore", None),
        ("tspec.dataprep", "save_dataset", "dataprep.save_dataset",
         lambda t, r, ds, out_dir, *a, **k: t.add("dataprep.save_dataset.bytes",
                                                  _dataset_size(out_dir))),
        ("tspec.dataprep", "load_dataset", "dataprep.load_dataset",
         lambda t, r, in_dir, *a, **k: t.add("dataprep.load_dataset.bytes",
                                             _dataset_size(in_dir))),
        ("tspec.dataprep", "inject_noise", "dataprep.inject_noise", None),
        ("tspec.models", "train", lambda spec, *a: f"models.train.{spec.family}", None),
        ("tspec.models", "predict", lambda model, *a: f"models.predict.{model.spec.family}",
         lambda t, r, *a, **k: t.add("models.predict.rows", len(r))),
        ("tspec.models", "save_model", "models.save_model",
         lambda t, r, model, path, *a, **k: t.add("models.model_bytes", _size(path))),
        ("tspec.models", "load_model", "models.load_model", None),
        ("tspec.models.glm", "fit_binomial", "models.glm.fit_binomial", None),
        ("tspec.models.glm", "fit_gaussian", "models.glm.fit_gaussian", None),
        ("tspec.models.ensembles", "gbm_fit", "models.ensembles.gbm_fit", None),
        ("tspec.models.ensembles", "forest_fit", "models.ensembles.forest_fit", None),
        ("tspec.models.trees", "build_tree", "models.trees.build_tree",
         lambda t, r, *a, **k: t.add("models.trees.build_tree.nodes", r.feature.size)),
        ("tspec.models.trees", "tree_predict", "models.trees.tree_predict", None),
        ("tspec.evalharness", "run_noise_sweep", "evalharness.run_noise_sweep",
         lambda t, r, *a, **k: t.add("evalharness.cells", len(r.rows))),
        ("tspec.evalharness", "emit_report", "evalharness.emit_report",
         lambda t, r, *a, **k: t.add("evalharness.report_bytes", sum(_size(p) for p in r))),
        ("tspec.identify", "build_registry", "identify.build_registry", None),
        ("tspec.evalharness", "identify_segments", "identify.identify_segments",
         lambda t, r, *a, **k: t.add("identify.segments", len(r[0]))),
        ("tspec.identify", "save_registry", "identify.registry_io", None),
        ("tspec.identify", "load_registry", "identify.registry_io", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer function wherever a tspec module looks it up."""
    modules = [m for n, m in sys.modules.items() if n == "tspec" or n.startswith("tspec.")]
    for module_name, attr, name, count in _layers():
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(original, name, count)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)
