"""Harness tests: metrics, the noise sweep, and report round trips."""

import numpy as np
import pytest

from tspec import (
    AttackSegment,
    DataError,
    EvalReport,
    NoiseSpec,
    SweepConfig,
    SyntheticScenario,
    binarize,
    contiguous_segments,
    derive_seed,
    detection_metrics,
    emit_report,
    generate_synthetic,
    identification_accuracy,
    identify_attack,
    inject_noise,
    load_report,
    predict,
    run_noise_sweep,
    train,
)
from tspec.identify import build_signature
from tests.conftest import method_artifacts
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
        sig = build_signature(np.array([1.0, 2.0]), "x", bins=4, value_range=(0.0, 4.0))
        out = []
        for name in names:
            result = identify_attack(np.array([1.0]), [replace_sig(sig, name)])
            out.append(result)
        return out

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


def replace_sig(sig, name):
    from tspec import SpectrumSignature

    return SpectrumSignature(
        attack_name=name,
        bin_edges=sig.bin_edges,
        counts=sig.counts,
        method=sig.method,
        d_model=sig.d_model,
    )


class TestSegments:
    def test_runs(self):
        tags = ["", "a", "a", "", "b", "b", "a", ""]
        segments = contiguous_segments(tags)
        assert [(t, r.tolist()) for t, r in segments] == [
            ("a", [1, 2]),
            ("b", [4, 5]),
            ("a", [6]),
        ]

    def test_empty(self):
        assert contiguous_segments(["", "", ""]) == []


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
        truth = binarize(art.test.spectrum_labels, art.threshold)
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

    def test_noise_train_retrains_detection_cells_only(self, sweep_setup, full_report):
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
        rows = {(r.task, r.family, r.noise_ratio): r for r in run_noise_sweep(cfg).rows}
        plain = {
            (r.task, r.family, r.noise_ratio): r for r in full_report.rows if r.method == "sspe"
        }
        # Identification cells never retrain; detection cells retrain on
        # training features noised with the "train-noise" stream.
        for key, row in rows.items():
            if key[0] == "identify":
                assert row == plain[key]
        art = methods["sspe"]
        model = art.detect_models["gbm"]
        noised_train = inject_noise(
            art.train, NoiseSpec(0.4, 1.0, derive_seed(seed, "train-noise", "sspe", "gbm", 40))
        )
        labels = binarize(art.train.spectrum_labels, art.threshold)
        retrained = train(model.spec, noised_train.features, labels)
        row = rows[("detect", "gbm", 0.4)]
        noised_test = inject_noise(art.test, NoiseSpec(0.4, 1.0, row.seed))
        probs = predict(retrained, noised_test.features)
        truth = binarize(art.test.spectrum_labels, art.threshold)
        assert row.metrics == detection_metrics(truth, (probs >= 0.5).astype(int))
        assert row.metrics != plain[("detect", "gbm", 0.4)].metrics


class TestEmit:
    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(DataError):
            emit_report(EvalReport(rows=()), tmp_path)

    def test_round_trip_equality(self, full_report, tmp_path):
        emit_report(full_report, tmp_path)
        assert load_report(tmp_path) == full_report

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

    def test_load_missing(self, tmp_path):
        with pytest.raises(DataError):
            load_report(tmp_path / "nope.json")
