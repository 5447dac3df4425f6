"""Detection/identification metrics, the noise-ratio sweep, and report IO.

The sweep walks (label method x model family x noise ratio) cells.  Each
cell noises the test features with its own derived seed, evaluates the
matching model against that method's labels, and gives one report row, so
cells can be computed in any order, or concurrently as ``run_noise_sweep``
does, with identical output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataprep import Dataset, NoiseSpec, inject_noise, noise_rows
from .errors import DataError, atomic_write, write_json
from .identify import (
    IdentificationResult,
    Registry,
    _attack_labels,
    _histograms,
    _label_edges,
    build_registry,
    identify_runs,
)
from .models import FAMILIES, TrainedModel, predict, train
from .processes import _map_in_processes
from .seeds import derive_seed
from .spectrum import (
    LABEL_METHODS,
    binarize,
    compute_threshold,
    is_spectrum_method,
    proportional_positive_count,
)

REPORT_SCHEMA_VERSION = 2
DETECTION_METRIC_NAMES = ("accuracy", "precision", "recall", "f1")
IDENTIFY_BINS = 50  # histogram bins of signatures and of the report's label histograms
MIN_SEGMENT_WINDOWS = 5  # rows an attack segment needs to be identified


@dataclass(frozen=True)
class DetectionMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def detection_metrics(y_true, y_pred) -> DetectionMetrics:
    """Confusion-matrix metrics; precision/recall are 0 when undefined."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise DataError("metrics need two equal-length non-empty label vectors")
    tp = int(((t == 1) & (p == 1)).sum())
    fp = int(((t == 0) & (p == 1)).sum())
    fn = int(((t == 1) & (p == 0)).sum())
    tn = int(((t == 0) & (p == 0)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return DetectionMetrics(
        accuracy=(tp + tn) / t.size,
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
    )


def identification_accuracy(results: list[IdentificationResult], truth: list[str]) -> float:
    """Fraction of identifications whose predicted attack matches the truth."""
    if len(results) != len(truth) or not results:
        raise DataError("need equally many results and truth tags, at least one each")
    hits = sum(1 for res, want in zip(results, truth) if res.predicted_attack == want)
    return hits / len(results)


def contiguous_segments(ds: Dataset) -> list[tuple[str, np.ndarray]]:
    """Maximal runs of rows sharing one named attack tag, in row order, as
    (attack name, row indices)."""
    codes = ds.tag_codes
    runs = np.split(np.arange(len(ds)), np.flatnonzero(codes[1:] != codes[:-1]) + 1)
    return [(name, r) for r in runs if r.size and (name := ds.attack_names[codes[r[0]]])]


def identify_segments(
    predictions: np.ndarray, ds: Dataset, registry: Registry
) -> tuple[list[IdentificationResult], list[str]]:
    """One identification per attack segment of ``ds`` of at least
    ``MIN_SEGMENT_WINDOWS`` rows, and its attack name: ``identify_runs`` of
    the segments' predictions, so every segment is histogrammed in one pass."""
    segments = [(name, rows) for name, rows in contiguous_segments(ds)
                if rows.size >= MIN_SEGMENT_WINDOWS]
    if not segments:
        raise DataError(f"no attack segment of at least {MIN_SEGMENT_WINDOWS} windows "
                        "to identify")
    predictions = np.asarray(predictions, dtype=np.float64)
    rows = np.concatenate([r for _, r in segments])
    results = identify_runs(predictions[rows], [r.size for _, r in segments], registry)
    return results, [name for name, _ in segments]


@dataclass(frozen=True)
class EvalRow:
    family: str
    method: str
    task: str
    noise_ratio: float
    seed: int
    metrics: DetectionMetrics | None = None
    identification_accuracy: float | None = None


@dataclass
class EvalReport:
    rows: tuple[EvalRow, ...]
    config: dict = field(default_factory=dict)
    label_histograms: dict = field(default_factory=dict)


@dataclass
class MethodArtifacts:
    """Everything the sweep needs for one label method.  ``source``, the
    dataset directory, names the dataset in errors."""

    train: Dataset
    test: Dataset
    detect_models: dict[str, TrainedModel] = field(default_factory=dict)
    regress_models: dict[str, TrainedModel] = field(default_factory=dict)
    source: Path | None = None


@dataclass
class SweepConfig:
    methods: dict[str, MethodArtifacts]
    ratios: tuple[float, ...]
    base_seed: int
    noise_train: bool = False
    config_echo: dict = field(default_factory=dict)


def detection_truth(train: Dataset, ds: Dataset) -> np.ndarray:
    """Detection labels of ``ds`` under its label method: the stored window
    labels for the baseline; for COAP and SSPE, its spectrum values binarized
    at the rank cutoff of the training split ``train``, the one that marks
    as many of ``train``'s windows as its attack-bit fraction asks for."""
    if not is_spectrum_method(train.provenance["method"]):
        return ds.binary_labels
    fraction = float(train.provenance["attack_bit_fraction"])
    n1 = proportional_positive_count(len(train), fraction)
    return binarize(ds.spectrum_labels, compute_threshold(train.spectrum_labels, n1))


def training_registry(train: Dataset) -> Registry:
    """Signatures of every attack in the training split ``train`` over
    ``IDENTIFY_BINS`` bins, for its label method and ``d_model``.  They come
    from training rows only, so no test segment is identified against its
    own labels."""
    return build_registry(
        labels_by_attack(train),
        bins=IDENTIFY_BINS,
        method=train.provenance["method"],
        d_model=train.provenance.get("d_model"),
    )


def _histogram_summary(ds: Dataset) -> dict | None:
    """Histogram of the attack-bearing spectrum labels of ``ds`` over the
    bins a registry built from them alone would use."""
    values = _attack_labels(ds.spectrum_labels)
    if values.size == 0:
        return None
    edges = _label_edges(values, IDENTIFY_BINS)
    counts = _histograms(values, [values.size], edges)[0]
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def run_noise_sweep(cfg: SweepConfig) -> EvalReport:
    """Evaluate every (method, task, family, ratio) cell and collect report rows.

    Detection cells compare the model's thresholded probabilities against the
    method's own test labels; identification cells (present when regression
    models are supplied for a spectrum method) run per-segment signature
    matching on the model's predicted spectrum labels.  Each cell noises the
    test features with the seed derived from its method, family, task (for
    identification only) and ratio.  With ``noise_train`` every cell also
    noises the training features, with the seed derived from "train-noise"
    and the same labels, and retrains its model from its spec: detection
    cells on the training detection labels, identification cells on the
    training spectrum labels.

    Without ``noise_train``, a model of a ``row_separable`` family predicts
    the clean test features once, and each of its cells predicts only the
    rows its noise draws (``noise_rows``), over a copy of the clean
    predictions: the same bits as predicting every row of the noised
    matrix, without making that matrix.

    Histograms, detection labels, signature registries and clean
    predictions are computed first, in this process; the cells then run in
    W processes (``_map_in_processes``), process k evaluating cells k,
    k + W, ... of the report order, and their rows are interleaved back
    into that order.
    """
    histograms: dict[str, dict] = {}
    truths: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # method: (test, train) labels
    registries: dict[str, Registry] = {}
    clean: dict[tuple, np.ndarray] = {}  # (method, task, family): clean test predictions
    cells: list[tuple] = []  # (method, task, family, ratio), in report order

    for method, art in cfg.methods.items():
        summary = _histogram_summary(art.train)
        if summary is not None:
            histograms[method] = summary
        truths[method] = (
            detection_truth(art.train, art.test),
            detection_truth(art.train, art.train),
        )
        tasks = [("detect", art.detect_models)]
        if art.regress_models and is_spectrum_method(method):
            try:
                registries[method] = training_registry(art.train)
            except DataError as exc:
                raise DataError(f"{art.source or method}: {exc}") from None
            tasks.append(("identify", art.regress_models))
        for task, models in tasks:
            for family, model in models.items():
                if FAMILIES[model.spec.family].row_separable and not cfg.noise_train:
                    clean[method, task, family] = predict(model, art.test.features)
                cells += [(method, task, family, ratio) for ratio in cfg.ratios]

    def evaluate(cell: int) -> EvalRow:
        method, task, family, ratio = cells[cell]
        art = cfg.methods[method]
        truth, train_truth = truths[method]
        model = (art.detect_models if task == "detect" else art.regress_models)[family]
        seed_labels = () if task == "detect" else (task,)
        pct = int(round(float(ratio) * 100))
        seed = derive_seed(cfg.base_seed, "noise", method, family, *seed_labels, pct)
        noise = NoiseSpec(float(ratio), seed)
        if cfg.noise_train:
            train_seed = derive_seed(
                cfg.base_seed, "train-noise", method, family, *seed_labels, pct
            )
            noised_train = inject_noise(art.train.features, NoiseSpec(float(ratio), train_seed))
            train_labels = train_truth if task == "detect" else art.train.spectrum_labels
            model = train(model.spec, noised_train, train_labels)
        clean_predictions = clean.get((method, task, family))
        if clean_predictions is None:
            predictions = predict(model, inject_noise(art.test.features, noise))
        else:
            rows, noised = noise_rows(art.test.features, noise)
            predictions = clean_predictions.copy()
            predictions[rows] = predict(model, noised)
        if task == "detect":
            preds = (predictions >= 0.5).astype(np.int64)
            score = {"metrics": detection_metrics(truth, preds)}
        else:
            try:
                results, truth_tags = identify_segments(predictions, art.test, registries[method])
            except DataError as exc:
                raise DataError(f"{art.source or method}: {exc}") from None
            score = {"identification_accuracy": identification_accuracy(results, truth_tags)}
        return EvalRow(family, method, task, float(ratio), seed, **score)

    rows = _map_in_processes(evaluate, len(cells))
    return EvalReport(rows=tuple(rows), config=dict(cfg.config_echo), label_histograms=histograms)


def labels_by_attack(ds: Dataset) -> dict[str, np.ndarray]:
    """Spectrum labels of each named attack's rows, in row order; attacks
    in the order of their first row."""
    grouped: dict[str, list[np.ndarray]] = {}
    for name, rows in contiguous_segments(ds):
        grouped.setdefault(name, []).append(rows)
    if not grouped:
        raise DataError("dataset has no tagged attack windows to build signatures from")
    return {name: ds.spectrum_labels[np.concatenate(rows)] for name, rows in grouped.items()}


def _row_to_dict(row: EvalRow) -> dict:
    out = {
        "family": row.family,
        "method": row.method,
        "task": row.task,
        "noise_ratio": row.noise_ratio,
        "seed": row.seed,
        "metrics": None,
        "identification_accuracy": row.identification_accuracy,
    }
    if row.metrics is not None:
        m = row.metrics
        out["metrics"] = {
            "accuracy": m.accuracy,
            "precision": m.precision,
            "recall": m.recall,
            "f1": m.f1,
            "confusion": {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn},
        }
    return out


def _figure_table(rows: list[EvalRow], metric: str) -> list[list]:
    """noise_ratio x method table of the metric, averaged over families."""
    cells: dict[tuple[float, str], list[float]] = {}
    for row in rows:
        value = (
            row.identification_accuracy
            if metric == "identification_accuracy"
            else getattr(row.metrics, metric)
        )
        cells.setdefault((row.noise_ratio, row.method), []).append(value)
    ratios = sorted({r for r, _ in cells})
    table = [["noise_ratio", *LABEL_METHODS]]
    for ratio in ratios:
        line: list = [repr(float(ratio))]
        for method in LABEL_METHODS:
            values = cells.get((ratio, method))
            line.append(repr(float(np.mean(values))) if values else "")
        table.append(line)
    return table


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus per-figure and histogram CSVs; returns paths.

    A figure or histogram CSV of an earlier report in ``out_dir`` that this
    report has no rows for is removed; no other file is touched."""
    if not report.rows:
        raise DataError("refusing to emit an empty report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": report.config,
        "rows": [_row_to_dict(r) for r in report.rows],
        "label_histograms": report.label_histograms,
    }
    report_path = out_dir / "report.json"
    write_json(report_path, payload)
    written.append(report_path)

    detect_rows = [r for r in report.rows if r.task == "detect"]
    identify_rows = [r for r in report.rows if r.task == "identify"]
    figures = [(f"detection_{m}.csv", detect_rows, m) for m in DETECTION_METRIC_NAMES if detect_rows]
    if identify_rows:
        figures.append(("identification_accuracy.csv", identify_rows, "identification_accuracy"))
    for name, rows, metric in figures:
        path = out_dir / name
        with atomic_write(path, encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(_figure_table(rows, metric))
        written.append(path)

    for method, hist in report.label_histograms.items():
        path = out_dir / f"spectrum_hist_{method}.csv"
        edges, counts = hist["edges"], hist["counts"]
        with atomic_write(path, encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["bin_left", "bin_right", "count"])
            for left, right, count in zip(edges[:-1], edges[1:], counts):
                writer.writerow([repr(float(left)), repr(float(right)), int(count)])
        written.append(path)

    own = [f"detection_{m}.csv" for m in DETECTION_METRIC_NAMES] + ["identification_accuracy.csv"]
    own += [f"spectrum_hist_{method}.csv" for method in LABEL_METHODS]
    for name in set(own) - {path.name for path in written}:
        (out_dir / name).unlink(missing_ok=True)
    return written

