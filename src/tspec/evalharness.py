"""Detection/identification metrics, the noise-ratio sweep, and report IO.

The sweep walks (label method x model family x noise ratio) cells.  Each
cell noises the test features with its own derived seed, evaluates the
matching model against that method's labels, and appends one report row, so
cells can be computed in any order (or concurrently) with identical output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataprep import Dataset, NoiseSpec, inject_noise
from .errors import DataError, read_json_object, write_json
from .identify import IdentificationResult, SpectrumSignature, build_registry, identify_attack
from .models import TrainedModel, predict, train
from .seeds import derive_seed
from .spectrum import ThresholdSpec, binarize

REPORT_SCHEMA_VERSION = 1
DETECTION_METRIC_NAMES = ("accuracy", "precision", "recall", "f1")
FIGURE_METHOD_COLUMNS = ("baseline", "coap", "sspe")


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

    def micro_averaged(self) -> dict[str, float]:
        # Binary micro-averaging pools both classes, which collapses
        # precision, recall, and F1 onto plain accuracy.
        return {"precision": self.accuracy, "recall": self.accuracy, "f1": self.accuracy}


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


def contiguous_segments(tags) -> list[tuple[str, np.ndarray]]:
    """Maximal runs of rows sharing one non-empty attack tag, in row order."""
    segments: list[tuple[str, list[int]]] = []
    current: str | None = None
    for i, tag in enumerate(tags):
        if not tag:
            current = None
            continue
        if tag != current:
            segments.append((tag, []))
            current = tag
        segments[-1][1].append(i)
    return [(tag, np.asarray(rows, dtype=np.int64)) for tag, rows in segments]


def identify_segments(
    predictions: np.ndarray,
    tags,
    signatures: list[SpectrumSignature],
    min_windows: int = 1,
) -> tuple[list[IdentificationResult], list[str]]:
    """One identification per attack segment of the prediction batch."""
    predictions = np.asarray(predictions, dtype=np.float64)
    results, truth = [], []
    for tag, rows in contiguous_segments(tags):
        if rows.size < min_windows:
            continue
        results.append(identify_attack(predictions[rows], signatures))
        truth.append(tag)
    if not results:
        raise DataError("no attack segments large enough to identify")
    return results, truth


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
    """Everything the sweep needs for one label method."""

    train: Dataset
    test: Dataset
    threshold: ThresholdSpec | None = None
    detect_models: dict[str, TrainedModel] = field(default_factory=dict)
    regress_models: dict[str, TrainedModel] = field(default_factory=dict)


@dataclass
class SweepConfig:
    methods: dict[str, MethodArtifacts]
    ratios: tuple[float, ...]
    noise_scale: float
    base_seed: int
    identify_bins: int = 50
    min_segment_windows: int = 5
    noise_train: bool = False
    config_echo: dict = field(default_factory=dict)


def detection_truth(method: str, test: Dataset, threshold: ThresholdSpec | None) -> np.ndarray:
    """Test-side labels under one method: the stored window labels for the
    baseline, or the train-fitted cutoff applied to the test spectrum."""
    if method == "baseline":
        return test.binary_labels
    if threshold is None:
        raise DataError(f"method {method!r} needs a fitted threshold for detection")
    return binarize(test.spectrum_labels, threshold)


def _histogram_summary(ds: Dataset, bins: int = 50) -> dict | None:
    values = ds.spectrum_labels[ds.spectrum_labels != 0.0]
    if values.size == 0:
        return None
    lo, hi = float(values.min()), float(values.max())
    if lo >= hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def run_noise_sweep(cfg: SweepConfig) -> EvalReport:
    """Evaluate every (method, family, ratio) cell and collect report rows.

    Detection cells compare the model's thresholded probabilities against the
    method's own test labels; identification cells (present when regression
    models are supplied) run per-segment signature matching on the model's
    predicted spectrum labels.  With ``noise_train`` the training features
    are noised too and the cell's model is retrained from its spec.
    """
    rows: list[EvalRow] = []
    histograms: dict[str, dict] = {}

    for method, art in cfg.methods.items():
        summary = _histogram_summary(art.train)
        if summary is not None:
            histograms[method] = summary
        truth = detection_truth(method, art.test, art.threshold)

        for family, model in art.detect_models.items():
            train_labels = detection_truth(method, art.train, art.threshold)
            for ratio in cfg.ratios:
                pct = int(round(float(ratio) * 100))
                seed = derive_seed(cfg.base_seed, "noise", method, family, pct)
                noised = inject_noise(art.test, NoiseSpec(float(ratio), cfg.noise_scale, seed))
                cell_model = model
                if cfg.noise_train:
                    train_seed = derive_seed(cfg.base_seed, "train-noise", method, family, pct)
                    noised_train = inject_noise(
                        art.train, NoiseSpec(float(ratio), cfg.noise_scale, train_seed)
                    )
                    cell_model = train(model.spec, noised_train.features, train_labels)
                probs = predict(cell_model, noised.features)
                preds = (probs >= 0.5).astype(np.int64)
                rows.append(
                    EvalRow(
                        family=family,
                        method=method,
                        task="detect",
                        noise_ratio=float(ratio),
                        seed=seed,
                        metrics=detection_metrics(truth, preds),
                    )
                )

        if art.regress_models and method != "baseline":
            if art.train.window_tags is None or art.test.window_tags is None:
                raise DataError("identification requires per-window attack tags")
            reference = labels_by_attack(art.train)
            signatures = build_registry(
                reference,
                bins=cfg.identify_bins,
                method=method,
                d_model=art.train.provenance.get("d_model"),
            )
            for family, model in art.regress_models.items():
                for ratio in cfg.ratios:
                    pct = int(round(float(ratio) * 100))
                    seed = derive_seed(cfg.base_seed, "noise", method, family, "identify", pct)
                    noised = inject_noise(
                        art.test, NoiseSpec(float(ratio), cfg.noise_scale, seed)
                    )
                    predictions = predict(model, noised.features)
                    results, truth_tags = identify_segments(
                        predictions,
                        art.test.window_tags,
                        signatures,
                        min_windows=cfg.min_segment_windows,
                    )
                    rows.append(
                        EvalRow(
                            family=family,
                            method=method,
                            task="identify",
                            noise_ratio=float(ratio),
                            seed=seed,
                            identification_accuracy=identification_accuracy(
                                results, truth_tags
                            ),
                        )
                    )

    return EvalReport(rows=tuple(rows), config=dict(cfg.config_echo), label_histograms=histograms)


def labels_by_attack(ds: Dataset) -> dict[str, np.ndarray]:
    grouped: dict[str, list[float]] = {}
    for value, tag in zip(ds.spectrum_labels, ds.window_tags):
        if tag:
            grouped.setdefault(tag, []).append(float(value))
    if not grouped:
        raise DataError("dataset has no tagged attack windows to build signatures from")
    return {name: np.asarray(vals) for name, vals in grouped.items()}


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
            "micro": m.micro_averaged(),
        }
    return out


def _row_from_dict(data: dict) -> EvalRow:
    metrics = None
    if data.get("metrics") is not None:
        m = data["metrics"]
        c = m["confusion"]
        metrics = DetectionMetrics(
            accuracy=m["accuracy"],
            precision=m["precision"],
            recall=m["recall"],
            f1=m["f1"],
            tp=c["tp"],
            fp=c["fp"],
            fn=c["fn"],
            tn=c["tn"],
        )
    return EvalRow(
        family=data["family"],
        method=data["method"],
        task=data["task"],
        noise_ratio=data["noise_ratio"],
        seed=data["seed"],
        metrics=metrics,
        identification_accuracy=data.get("identification_accuracy"),
    )


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
    table = [["noise_ratio", *FIGURE_METHOD_COLUMNS]]
    for ratio in ratios:
        line: list = [repr(float(ratio))]
        for method in FIGURE_METHOD_COLUMNS:
            values = cells.get((ratio, method))
            line.append(repr(float(np.mean(values))) if values else "")
        table.append(line)
    return table


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus per-figure and histogram CSVs; returns paths."""
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
        with path.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(_figure_table(rows, metric))
        written.append(path)

    for method, hist in report.label_histograms.items():
        path = out_dir / f"spectrum_hist_{method}.csv"
        edges, counts = hist["edges"], hist["counts"]
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["bin_left", "bin_right", "count"])
            for left, right, count in zip(edges[:-1], edges[1:], counts):
                writer.writerow([repr(float(left)), repr(float(right)), int(count)])
        written.append(path)
    return written


def load_report(path: str | Path) -> EvalReport:
    """Inverse of ``emit_report`` for the JSON part."""
    path = Path(path)
    if path.is_dir():
        path = path / "report.json"
    if not path.exists():
        raise DataError(f"report not found: {path}")
    payload = read_json_object(path, DataError, "report")
    if payload.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise DataError(f"unsupported report schema version {payload.get('schema_version')!r}")
    return EvalReport(
        rows=tuple(_row_from_dict(r) for r in payload["rows"]),
        config=payload.get("config", {}),
        label_histograms=payload.get("label_histograms", {}),
    )
