"""Acceptance gate: every shipped criterion, one test each, with a printed
pass/fail line per criterion (visible under ``pytest -s`` or ``-rA``).

The end-to-end criteria share one five-seed pipeline fixture over the
three-attack scenario (burst/periodic/ramp), W=30, SSPE d_model 8.
"""

import json
import time

import numpy as np
import pytest

from tspec import (
    ModelSpec,
    NoiseSpec,
    SweepConfig,
    binarize,
    build_registry,
    compute_threshold,
    contiguous_segments,
    derive_seed,
    encoding_matrix,
    generate_synthetic,
    identification_accuracy,
    inject_noise,
    predict,
    run_noise_sweep,
    sspe_values,
    train,
    zscore_apply,
    zscore_fit,
    assemble_dataset,
)
from tspec.cli import main as cli_main
from tspec.identify import identify_runs
from tests.conftest import dataset_tags, method_artifacts, scenario_to_dict, three_attack_scenario
from tests.oracles import ascending_percentile_oracle, sspe_brute_force
from tests.test_cli import cli_scenario, read_tree

GRID_D_MODELS = (2, 4, 8, 16, 32, 64, 128, 236, 256)
GRID_WINDOWS = (10, 20, 30, 40, 50, 60)
SEEDS = (0, 1, 2, 3, 4)
DETECT_FAMILIES = ("glm_binomial", "random_forest", "gbm")


def report_line(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")


@pytest.fixture(scope="module")
def e2e():
    """Five-seed end-to-end runs: detection sweep plus the held-out-segment
    identification protocol, on the shared three-attack scenario."""
    scenario = three_attack_scenario()
    t0 = time.monotonic()
    detection = []  # per seed: {(method, family, ratio): DetectionMetrics}
    rf_sspe_f1 = []
    ident = {0.0: [], 1.0: []}  # per ratio: per-seed accuracies

    for seed in SEEDS:
        timeline = generate_synthetic(scenario, derive_seed(seed, "synth"))
        methods = {
            m: method_artifacts(timeline, m, seed, DETECT_FAMILIES, window=30, d_model=8)
            for m in ("baseline", "coap", "sspe")
        }
        report = run_noise_sweep(
            SweepConfig(
                methods=methods,
                ratios=(0.0, 1.0),
                base_seed=seed,
            )
        )
        cells = {}
        for row in report.rows:
            cells[(row.method, row.family, row.noise_ratio)] = row.metrics
            if row.method == "sspe" and row.family == "random_forest" and row.noise_ratio == 0.0:
                rf_sspe_f1.append(row.metrics.f1)
        detection.append(cells)

        for ratio, accuracy in _identification_protocol(timeline, seed).items():
            ident[ratio].append(accuracy)

    return {
        "detection": detection,
        "rf_sspe_f1": rf_sspe_f1,
        "identification": ident,
        "elapsed": time.monotonic() - t0,
    }


def _identification_protocol(timeline, seed, ratios=(0.0, 1.0)):
    """Train on each attack's first segment (plus normal windows), build
    signatures from the held-out second segments' true labels, and identify
    each third segment from model predictions on (optionally noised)
    features."""
    ds = assemble_dataset(timeline, 30, "sspe", 8)
    segments = contiguous_segments(ds)
    occurrence: dict[str, int] = {}
    train_rows = [i for i, tag in enumerate(dataset_tags(ds)) if not tag]
    signature_rows: dict[str, list[int]] = {}
    eval_segments = []
    for tag, rows in segments:
        k = occurrence.get(tag, 0)
        occurrence[tag] = k + 1
        if k == 0:
            train_rows.extend(rows.tolist())
        elif k == 1:
            signature_rows.setdefault(tag, []).extend(rows.tolist())
        else:
            eval_segments.append((tag, rows))

    train_rows = np.sort(np.asarray(train_rows))
    params = zscore_fit(ds.features[train_rows])
    features = zscore_apply(ds.features, params)
    model = train(
        ModelSpec("glm_gaussian", "regress", seed=derive_seed(seed, "train", "identify", "glm_gaussian")),
        features[train_rows],
        ds.spectrum_labels[train_rows],
    )
    registry = build_registry(
        {tag: ds.spectrum_labels[np.asarray(rows)] for tag, rows in signature_rows.items()},
        bins=12,
        method="sspe",
        d_model=8,
    )

    eval_rows = np.concatenate([rows for _, rows in eval_segments])
    accuracies = {}
    for ratio in ratios:
        spec = NoiseSpec(ratio, derive_seed(seed, "noise", "identify", int(ratio * 100)))
        predictions = predict(model, inject_noise(features[eval_rows], spec))
        results = identify_runs(predictions, [rows.size for _, rows in eval_segments], registry)
        accuracies[ratio] = identification_accuracy(results, [tag for tag, _ in eval_segments])
    return accuracies


def test_c01_sspe_matches_brute_force_oracle():
    rng = np.random.default_rng(20240817)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        window = int(rng.choice(GRID_WINDOWS))
        d_model = int(rng.choice(GRID_D_MODELS))
        bits = rng.integers(0, 2, size=window)
        expected = sspe_brute_force(bits.tolist(), d_model)
        got = sspe_values(bits[None, :], d_model)[0]
        worst = max(worst, abs(got - expected))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report_line(
        "C1 SSPE oracle equivalence (1000 sequences)",
        ok,
        f"max |diff| = {worst:.2e} <= 1e-9, runtime {elapsed:.1f}s < 30s",
    )
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_c02_encoding_pairs_are_unit_norm():
    worst = 0.0
    for d_model in GRID_D_MODELS:
        matrix = encoding_matrix(60, d_model)
        for pos in range(60):
            vec = matrix[pos]
            pair_norms = vec[0::2] ** 2 + vec[1::2] ** 2
            worst = max(worst, float(np.abs(pair_norms - 1.0).max()))
    ok = worst <= 1e-12
    report_line("C2 encoding pair identity", ok, f"max |sin^2+cos^2 - 1| = {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_c03_threshold_proportion_both_modes():
    rng = np.random.default_rng(99)
    values = rng.normal(size=10000)
    assert np.unique(values).size == 10000
    n1 = 2000

    default_count = int(binarize(values, compute_threshold(values, n1)).sum())
    # The paper's literal percentile marks the complement of n1, plus one.
    literal_count = int(binarize(values, ascending_percentile_oracle(values, n1)).sum())
    expected_literal = 10000 - n1 + 1

    ok = default_count == n1 and literal_count == expected_literal
    report_line(
        "C3 threshold proportion",
        ok,
        f"rank threshold marks {default_count} == {n1}; literal percentile marks {literal_count} == {expected_literal}",
    )
    assert default_count == n1
    assert literal_count == expected_literal


def test_c04_zscore_moments():
    rng = np.random.default_rng(7)
    matrix = rng.normal(3.0, 11.0, size=(1000, 20))
    out = zscore_apply(matrix, zscore_fit(matrix))
    worst_mean = float(np.abs(out.mean(axis=0)).max())
    worst_std = float(np.abs(out.std(axis=0) - 1.0).max())
    ok = worst_mean <= 1e-9 and worst_std <= 1e-9
    report_line(
        "C4 z-score moments",
        ok,
        f"max |mean| = {worst_mean:.2e}, max |std-1| = {worst_std:.2e}, both <= 1e-9",
    )
    assert worst_mean <= 1e-9
    assert worst_std <= 1e-9


def test_c05_noise_contract():
    from tests.test_dataprep import make_dataset

    ds = make_dataset(m=203, d=12, seed=31)
    counts_ok = True
    for i in range(11):
        ratio = i / 10
        noised = inject_noise(ds.features, NoiseSpec(ratio, seed=derive_seed(5, "noise", i)))
        changed = int((noised != ds.features).any(axis=1).sum())
        counts_ok = counts_ok and changed == round(ratio * 203)
    clean = inject_noise(ds.features, NoiseSpec(0.0, seed=1))
    identity_ok = np.array_equal(clean, ds.features) and clean is not ds.features
    ok = counts_ok and identity_ok
    report_line(
        "C5 noise contract",
        ok,
        f"every ratio modifies exactly round(r*203) rows; ratio 0 bit-exact = {identity_ok}",
    )
    assert counts_ok
    assert identity_ok


def test_c06_detection_f1(e2e):
    mean_f1 = float(np.mean(e2e["rf_sspe_f1"]))
    elapsed = e2e["elapsed"]
    ok = mean_f1 >= 0.95 and elapsed < 300.0
    report_line(
        "C6 end-to-end detection",
        ok,
        f"random forest on binarized SSPE labels: mean F1 @ 0% noise = {mean_f1:.3f} >= 0.95 "
        f"over seeds {list(SEEDS)} (per-seed {[round(v, 3) for v in e2e['rf_sspe_f1']]}), "
        f"pipeline runtime {elapsed:.0f}s < 300s",
    )
    assert mean_f1 >= 0.95
    assert elapsed < 300.0


def test_c07_identification(e2e):
    clean = e2e["identification"][0.0]
    noisy = e2e["identification"][1.0]
    clean_ok = all(acc == 1.0 for acc in clean)
    # Chance is 1/3 over three attack types; require one identification
    # above chance (>= 2/3) in at least four of five seeds at full noise.
    noisy_hits = sum(1 for acc in noisy if acc >= 2 / 3)
    noisy_ok = noisy_hits >= 4
    ok = clean_ok and noisy_ok
    report_line(
        "C7 end-to-end identification",
        ok,
        f"clean accuracies {clean} all 1.0; at 100% noise {noisy} -> >= 2/3 in {noisy_hits}/5 seeds",
    )
    assert clean_ok
    assert noisy_ok


def test_c08_robustness_ordering(e2e):
    def mean_accuracy(method):
        per_seed = []
        for cells in e2e["detection"]:
            per_seed.append(
                np.mean([cells[(method, fam, 1.0)].accuracy for fam in DETECT_FAMILIES])
            )
        return float(np.mean(per_seed))

    base = mean_accuracy("baseline")
    coap_gap = mean_accuracy("coap") - base
    sspe_gap = mean_accuracy("sspe") - base
    ok = coap_gap >= 0.05 and sspe_gap >= 0.05
    report_line(
        "C8 robustness ordering @ 100% noise",
        ok,
        f"COAP +{coap_gap * 100:.1f}pp, SSPE +{sspe_gap * 100:.1f}pp over baseline "
        f"({base:.3f}), both >= 5pp, 5 paired seeds",
    )
    assert coap_gap >= 0.05
    assert sspe_gap >= 0.05


def test_c09_full_pipeline_byte_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(cli_scenario())))
    config = {
        "window": 10,
        "d_model": 8,
        "seed": 13,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run(root):
        assert cli_main(["synth", "--config", str(config_path),
                         "--scenario", str(scenario_path), "--out", str(root / "raw")]) == 0
        assert cli_main([
            "build-dataset", "--config", str(config_path),
            "--input", str(root / "raw" / "synthetic.csv"),
            "--schema", str(root / "raw" / "schema.json"),
            "--method", "sspe", "--out", str(root / "sspe"),
        ]) == 0
        assert cli_main(["train", "--config", str(config_path), "--dataset", str(root / "sspe"),
                         "--task", "detect", "--families", "glm_binomial,random_forest"]) == 0
        sweep_cfg = dict(config)
        sweep_cfg.update(
            datasets={"sspe": str(root / "sspe")},
            families=["glm_binomial", "random_forest"],
            ratios=[0.0, 0.5, 1.0],
        )
        (root / "sweep.json").write_text(json.dumps(sweep_cfg))
        assert cli_main(["sweep", "--config", str(root / "sweep.json"),
                         "--out", str(root / "report")]) == 0
        tree = read_tree(root)
        # Compare produced artifacts only: the synth inputs are shared and the
        # sweep config is an input that necessarily carries this run's paths.
        return {
            name: blob
            for name, blob in tree.items()
            if not name.startswith("raw/") and name != "sweep.json"
        }

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    same_names = sorted(first) == sorted(second)
    same_bytes = same_names and all(first[k] == second[k] for k in first)
    report_line(
        "C9 byte-identical reruns",
        same_bytes,
        f"{len(first)} artifact files (dataset, models, report) compared equal",
    )
    assert same_names
    assert same_bytes
    assert any(k.startswith("sspe/dataset") for k in first)
    assert any(k.startswith("sspe/models/") for k in first)
    assert any(k.startswith("report/") for k in first)


def test_c10_identification_accuracy_arithmetic():
    from tspec.identify import Registry

    edges = np.linspace(0.0, 1.0, 5)

    def result_for(name):
        registry = Registry((name,), edges, np.array([[0.25, 0.25, 0.25, 0.25]]), "coap", None)
        return identify_runs(np.array([0.5]), [1], registry)[0]

    names = [f"attack_{i}" for i in range(14)]
    results = [result_for(n) for n in names]
    truth = list(names)
    truth[7] = "something_else"
    accuracy = identification_accuracy(results, truth)
    ok = abs(accuracy - 13 / 14) <= 1e-12
    report_line("C10 identification accuracy arithmetic", ok, f"|{accuracy!r} - 13/14| <= 1e-12")
    assert abs(accuracy - 13 / 14) <= 1e-12
