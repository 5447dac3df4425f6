"""Harness tests: metrics, the noise sweep, and the report files."""

import json
import os

import numpy as np
import pytest

from tspec import (
    AttackSegment,
    DataError,
    EvalReport,
    NoiseSpec,
    SweepConfig,
    SyntheticScenario,
    contiguous_segments,
    derive_seed,
    detection_metrics,
    detection_truth,
    emit_report,
    generate_synthetic,
    identification_accuracy,
    identify_attack,
    inject_noise,
    predict,
    run_noise_sweep,
    train,
)
from tspec import evalharness
from tspec.models import FAMILIES
from tspec.evalharness import identify_segments, labels_by_attack
from tspec.identify import Registry, build_registry
from tests.conftest import method_artifacts, tagged_dataset, use_cpus
from tests.test_cli import read_tree
from tests.oracles import confusion_oracle


class TestDetectionMetrics:
    def test_perfect(self):
        m = detection_metrics([0, 1, 1, 0], [0, 1, 1, 0])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_wrong(self):
        m = detection_metrics([0, 1], [1, 0])
        assert m.accuracy == 0.0

    def test_hand_confusion(self):
        y_true = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        y_pred = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        m = detection_metrics(y_true, y_pred)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 6) == confusion_oracle(y_true, y_pred)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.accuracy == pytest.approx(0.8)
        assert m.f1 == pytest.approx(2 / 3)

    def test_undefined_precision_recall_are_zero(self):
        m = detection_metrics([0, 0], [0, 0])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.accuracy == 1.0

    def test_recomputable_from_confusion(self):
        rng = np.random.default_rng(2)
        t = rng.integers(0, 2, 200)
        p = rng.integers(0, 2, 200)
        m = detection_metrics(t, p)
        total = m.tp + m.fp + m.fn + m.tn
        assert total == 200
        assert m.accuracy == pytest.approx((m.tp + m.tn) / total)
        if m.tp + m.fp:
            assert m.precision == pytest.approx(m.tp / (m.tp + m.fp))
        if m.tp + m.fn:
            assert m.recall == pytest.approx(m.tp / (m.tp + m.fn))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            detection_metrics([0, 1], [0])


class TestIdentificationAccuracy:
    def _results(self, names):
        edges, counts = np.linspace(0.0, 4.0, 5), np.array([[0.0, 0.5, 0.5, 0.0]])
        return [
            identify_attack(np.array([1.0]), Registry((name,), edges, counts, "sspe", None))
            for name in names
        ]

    def test_all_correct(self):
        results = self._results(["a", "b"])
        assert identification_accuracy(results, ["a", "b"]) == 1.0

    def test_none_correct(self):
        results = self._results(["a", "b"])
        assert identification_accuracy(results, ["b", "a"]) == 0.0

    def test_thirteen_of_fourteen(self):
        names = [f"atk{i}" for i in range(14)]
        results = self._results(names)
        truth = list(names)
        truth[5] = "other"
        assert identification_accuracy(results, truth) == pytest.approx(13 / 14, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            identification_accuracy(self._results(["a"]), ["a", "b"])


class TestSegments:
    def test_runs(self):
        tags = ["", "a", "a", "", "b", "b", "a", ""]
        segments = contiguous_segments(tagged_dataset(tags))
        assert [(t, r.tolist()) for t, r in segments] == [
            ("a", [1, 2]),
            ("b", [4, 5]),
            ("a", [6]),
        ]

    def test_empty(self):
        assert contiguous_segments(tagged_dataset(["", "", ""])) == []


def small_scenario():
    return SyntheticScenario(
        duration=260,
        feature_count=3,
        segments=(
            AttackSegment("dos", 20, 30, "burst", offset=3.0),
            AttackSegment("scan", 80, 40, "periodic", period=4, offset=3.0),
            AttackSegment("creep", 150, 40, "ramp", offset=3.0),
            AttackSegment("dos", 220, 20, "burst", offset=3.0),
        ),
    )


@pytest.fixture(scope="module")
def sweep_setup():
    seed = 123
    timeline = generate_synthetic(small_scenario(), derive_seed(seed, "synth"))
    families = ("glm_binomial", "random_forest", "gbm")
    methods = {}
    for method in ("baseline", "coap", "sspe"):
        reg = ("glm_gaussian",) if method != "baseline" else ()
        methods[method] = method_artifacts(timeline, method, seed, families, reg, window=10)
    return seed, methods


@pytest.fixture(scope="module")
def full_report(sweep_setup):
    seed, methods = sweep_setup
    cfg = SweepConfig(
        methods=methods,
        ratios=tuple(i / 10 for i in range(11)),
        noise_scale=1.0,
        base_seed=seed,
        identify_bins=12,
        min_segment_windows=3,
        config_echo={"seed": seed},
    )
    return run_noise_sweep(cfg)


class TestSweep:
    def test_detection_row_count(self, full_report):
        detect = [r for r in full_report.rows if r.task == "detect"]
        assert len(detect) == 3 * 3 * 11

    def test_identification_rows_present(self, full_report):
        ident = [r for r in full_report.rows if r.task == "identify"]
        assert len(ident) == 2 * 1 * 11
        assert all(r.identification_accuracy is not None for r in ident)
        assert all(0.0 <= r.identification_accuracy <= 1.0 for r in ident)

    def test_ratio_zero_equals_direct_evaluation(self, sweep_setup, full_report):
        seed, methods = sweep_setup
        art = methods["sspe"]
        truth = detection_truth(art.train, art.test)
        model = art.detect_models["random_forest"]
        probs = predict(model, art.test.features)
        direct = detection_metrics(truth, (probs >= 0.5).astype(int))
        row = next(
            r
            for r in full_report.rows
            if r.task == "detect"
            and r.method == "sspe"
            and r.family == "random_forest"
            and r.noise_ratio == 0.0
        )
        assert row.metrics == direct

    def test_rerun_identical(self, sweep_setup, full_report):
        seed, methods = sweep_setup
        cfg = SweepConfig(
            methods=methods,
            ratios=tuple(i / 10 for i in range(11)),
            noise_scale=1.0,
            base_seed=seed,
            identify_bins=12,
            min_segment_windows=3,
            config_echo={"seed": seed},
        )
        assert run_noise_sweep(cfg) == full_report

    def test_histograms_cover_methods(self, full_report):
        assert set(full_report.label_histograms) == {"baseline", "coap", "sspe"}

    def test_row_order_and_derived_seeds(self, sweep_setup, full_report):
        # Per method in config order: every detection cell (family, then
        # ratio), then every identification cell; the baseline has none.
        seed, _ = sweep_setup
        expected = []
        for method in ("baseline", "coap", "sspe"):
            for family in ("glm_binomial", "random_forest", "gbm"):
                for pct in range(0, 101, 10):
                    labels = ("noise", method, family, pct)
                    expected.append(("detect", method, family, pct / 100, labels))
            if method != "baseline":
                for pct in range(0, 101, 10):
                    labels = ("noise", method, "glm_gaussian", "identify", pct)
                    expected.append(("identify", method, "glm_gaussian", pct / 100, labels))
        got = [(r.task, r.method, r.family, r.noise_ratio, r.seed) for r in full_report.rows]
        assert got == [
            (task, method, family, ratio, derive_seed(seed, *labels))
            for task, method, family, ratio, labels in expected
        ]

    def test_noise_train_retrains_every_cell(self, sweep_setup, full_report):
        seed, methods = sweep_setup
        cfg = SweepConfig(
            methods={"sspe": methods["sspe"]},
            ratios=(0.0, 0.4),
            noise_scale=1.0,
            base_seed=seed,
            identify_bins=12,
            min_segment_windows=3,
            noise_train=True,
        )
        art = methods["sspe"]
        fits = []  # (spec, which labels) of every retraining, in call order

        def spy(spec, X, y):
            labels = "spectrum" if np.array_equal(y, art.train.spectrum_labels) else "detect"
            fits.append((spec, labels))
            return train(spec, X, y)

        with pytest.MonkeyPatch.context() as patch:
            use_cpus(patch, 1)  # the spy sees the retrainings of this process only
            patch.setattr(evalharness, "train", spy)
            rows = {(r.task, r.family, r.noise_ratio): r for r in run_noise_sweep(cfg).rows}
        plain = {
            (r.task, r.family, r.noise_ratio): r for r in full_report.rows if r.method == "sspe"
        }
        # Test features are noised as without noise_train.
        assert {k: r.seed for k, r in rows.items()} == {k: plain[k].seed for k in rows}

        def retrained(family, labels, *seed_labels):
            """The cell's model retrained on training features noised with
            its own "train-noise" stream."""
            model = {**art.detect_models, **art.regress_models}[family]
            train_seed = derive_seed(seed, "train-noise", "sspe", family, *seed_labels, 40)
            noised_train = inject_noise(art.train.features, NoiseSpec(0.4, 1.0, train_seed))
            return model, train(model.spec, noised_train, labels)

        # Detection cells retrain on the training detection labels.
        _, model = retrained("gbm", detection_truth(art.train, art.train))
        row = rows[("detect", "gbm", 0.4)]
        noised_test = inject_noise(art.test.features, NoiseSpec(0.4, 1.0, row.seed))
        probs = predict(model, noised_test)
        truth = detection_truth(art.train, art.test)
        assert row.metrics == detection_metrics(truth, (probs >= 0.5).astype(int))
        assert row.metrics != plain[("detect", "gbm", 0.4)].metrics

        # Identification cells retrain on the training spectrum labels, with
        # "identify" in their seed labels.
        original, model = retrained("glm_gaussian", art.train.spectrum_labels, "identify")
        row = rows[("identify", "glm_gaussian", 0.4)]
        noised_test = inject_noise(art.test.features, NoiseSpec(0.4, 1.0, row.seed))
        predictions = predict(model, noised_test)
        assert not np.array_equal(predictions, predict(original, noised_test))
        registry = build_registry(
            labels_by_attack(art.train), bins=12, method="sspe",
            d_model=art.train.provenance.get("d_model"),
        )
        results, truth_tags = identify_segments(
            predictions, art.test, registry, min_windows=3
        )
        assert row.identification_accuracy == identification_accuracy(results, truth_tags)
        assert [(spec.family, labels) for spec, labels in fits] == [
            (family, "detect")
            for family in art.detect_models for _ in cfg.ratios
        ] + [("glm_gaussian", "spectrum")] * len(cfg.ratios)


@pytest.mark.parametrize("noise_train", [False, True])
def test_sweeps_are_the_same_on_any_number_of_cpus(monkeypatch, tmp_path, sweep_setup,
                                                   noise_train):
    """Sweeps on 1, 2 and 3 CPUs, and on more CPUs than cells, give the same
    rows and report files byte for byte.  One worker is forked per CPU
    beyond the first, up to one process per cell, and none more by any
    process: a noise_train cell refits its forest or GBM in its own process."""
    seed, methods = sweep_setup
    cfg = SweepConfig(
        methods={"sspe": methods["sspe"]},
        ratios=(0.0, 0.5),
        noise_scale=1.0,
        base_seed=seed,
        identify_bins=12,
        min_segment_windows=3,
        noise_train=noise_train,
        config_echo={"seed": seed},
    )
    cells = 4 * len(cfg.ratios)  # three detect families and one identify family
    forks = tmp_path / "forks"
    fork = os.fork

    def counted_fork():  # in any process: a worker's nested fork counts too
        with open(forks, "a") as noted:
            noted.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    reports = {}
    for cpus in (1, 2, 3, cells + 1):
        use_cpus(monkeypatch, cpus)
        forks.write_text("")
        reports[cpus] = run_noise_sweep(cfg)
        assert len(forks.read_text().split()) == min(cpus, cells) - 1
        emit_report(reports[cpus], tmp_path / str(cpus))
    assert len(reports[1].rows) == cells
    for cpus, report in reports.items():
        assert report.rows == reports[1].rows
        assert report.label_histograms == reports[1].label_histograms
        assert read_tree(tmp_path / str(cpus)) == read_tree(tmp_path / "1")


@pytest.fixture(scope="module")
def four_family_setup():
    """The sspe method of ``sweep_setup`` with every family: glm_binomial,
    random_forest and gbm detect; glm_gaussian, random_forest and gbm
    identify."""
    seed = 123
    timeline = generate_synthetic(small_scenario(), derive_seed(seed, "synth"))
    art = method_artifacts(
        timeline, "sspe", seed, ("glm_binomial", "random_forest", "gbm"),
        ("glm_gaussian", "random_forest", "gbm"), window=10,
    )
    return seed, art


class TestCleanPredictionReuse:
    @pytest.mark.parametrize("noise_train", [False, True])
    def test_every_row_is_a_direct_prediction(self, four_family_setup, noise_train):
        seed, art = four_family_setup
        cfg = SweepConfig(
            methods={"sspe": art},
            ratios=(0.0, 0.3, 1.0),
            noise_scale=1.0,
            base_seed=seed,
            identify_bins=12,
            min_segment_windows=3,
            noise_train=noise_train,
        )
        predicted = {}  # rows predicted per (task, family)

        def predict_spy(model, X):
            key = ("detect" if model.spec.task == "classify" else "identify", model.spec.family)
            predicted[key] = predicted.get(key, 0) + len(X)
            return predict(model, X)

        identified = []  # the predictions of every identification cell

        def identify_spy(predictions, *args, **kwargs):
            identified.append(predictions)
            return identify_segments(predictions, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            use_cpus(patch, 1)  # the spies see the cells of this process only
            patch.setattr(evalharness, "predict", predict_spy)
            patch.setattr(evalharness, "identify_segments", identify_spy)
            report = run_noise_sweep(cfg)

        truth = detection_truth(art.train, art.test)
        registry = build_registry(
            labels_by_attack(art.train), bins=12, method="sspe",
            d_model=art.train.provenance.get("d_model"),
        )
        cells = iter(identified)
        for row in report.rows:
            detect = row.task == "detect"
            model = (art.detect_models if detect else art.regress_models)[row.family]
            if noise_train:
                labels = (
                    detection_truth(art.train, art.train)
                    if detect else art.train.spectrum_labels
                )
                train_seed = derive_seed(
                    seed, "train-noise", "sspe", row.family, *(() if detect else ("identify",)),
                    int(round(row.noise_ratio * 100)),
                )
                noised_train = inject_noise(
                    art.train.features, NoiseSpec(row.noise_ratio, 1.0, train_seed)
                )
                model = train(model.spec, noised_train, labels)
            noised = inject_noise(art.test.features, NoiseSpec(row.noise_ratio, 1.0, row.seed))
            predictions = predict(model, noised)
            if detect:
                assert row.metrics == detection_metrics(truth, (predictions >= 0.5).astype(int))
            else:
                assert next(cells).tobytes() == predictions.tobytes()
                results, tags = identify_segments(
                    predictions, art.test, registry, min_windows=3
                )
                assert row.identification_accuracy == identification_accuracy(results, tags)
        assert next(cells, None) is None
        # Tree models predict the clean rows once and then only the rows each
        # cell's noise changed; GLMs and noise_train cells predict every row.
        m = len(art.test)
        changed = sum(int(round(r * m)) for r in cfg.ratios)
        assert predicted == {
            (task, family): m * len(cfg.ratios)
            if noise_train or not FAMILIES[family].row_separable else m + changed
            for task, models in (("detect", art.detect_models), ("identify", art.regress_models))
            for family in models
        }


class TestEmit:
    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(DataError):
            emit_report(EvalReport(rows=()), tmp_path)

    def test_round_trip_equality(self, full_report, tmp_path):
        # report.json, read back as plain JSON, holds every field of every row.
        emit_report(full_report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert payload["schema_version"] == 2
        assert payload["config"] == full_report.config
        assert payload["label_histograms"] == full_report.label_histograms
        assert len(payload["rows"]) == len(full_report.rows)
        for written, row in zip(payload["rows"], full_report.rows):
            m = row.metrics
            assert written == {
                "family": row.family,
                "method": row.method,
                "task": row.task,
                "noise_ratio": row.noise_ratio,
                "seed": row.seed,
                "metrics": None if m is None else {
                    "accuracy": m.accuracy,
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "confusion": {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn},
                },
                "identification_accuracy": row.identification_accuracy,
            }

    def test_figure_csv_shape(self, full_report, tmp_path):
        emit_report(full_report, tmp_path)
        lines = (tmp_path / "detection_accuracy.csv").read_text().strip().splitlines()
        assert lines[0] == "noise_ratio,baseline,coap,sspe"
        assert len(lines) == 12  # header + 11 ratios

    def test_figure_values_are_family_means(self, full_report, tmp_path):
        emit_report(full_report, tmp_path)
        lines = (tmp_path / "detection_accuracy.csv").read_text().strip().splitlines()
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        rows = [
            r
            for r in full_report.rows
            if r.task == "detect" and r.method == "baseline" and r.noise_ratio == 0.0
        ]
        assert float(first[1]) == pytest.approx(np.mean([r.metrics.accuracy for r in rows]))

    def test_identification_csv_leaves_baseline_blank(self, full_report, tmp_path):
        emit_report(full_report, tmp_path)
        lines = (tmp_path / "identification_accuracy.csv").read_text().strip().splitlines()
        first = lines[1].split(",")
        assert first[1] == ""  # no baseline identification
        assert first[2] != "" and first[3] != ""

    def test_histogram_csvs_written(self, full_report, tmp_path):
        emit_report(full_report, tmp_path)
        for method in ("baseline", "coap", "sspe"):
            lines = (tmp_path / f"spectrum_hist_{method}.csv").read_text().splitlines()
            assert lines[0] == "bin_left,bin_right,count"
            assert len(lines) > 1
