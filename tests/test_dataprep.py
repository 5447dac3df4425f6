"""Dataset preparation tests: z-score, split, noise, synthesis, IO."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tspec import (
    AttackSegment,
    ConfigError,
    DataError,
    Dataset,
    NoiseSpec,
    SyntheticScenario,
    assemble_dataset,
    generate_synthetic,
    inject_noise,
    load_dataset,
    save_dataset,
    split_dataset,
    zscore_apply,
    zscore_fit,
)
from tspec.dataprep import downsample_majority
from tests.conftest import same_bits, same_timeline, timeline_rows
from tests.oracles import generate_synthetic_oracle, population_moments


def make_dataset(m=20, d=4, seed=0, positive_fraction=0.5, tags=False):
    rng = np.random.default_rng(seed)
    binary = (rng.random(m) < positive_fraction).astype(np.int64)
    return Dataset(
        features=rng.normal(size=(m, d)),
        spectrum_labels=rng.random(m) * 5,
        binary_labels=binary,
        window_tags=tuple("atk" if b else "" for b in binary) if tags else None,
    )


class TestZScore:
    def test_hand_computed_column(self):
        params = zscore_fit(np.array([[1.0], [2.0], [3.0]]))
        mean, std = population_moments([1.0, 2.0, 3.0])
        assert params.means[0] == pytest.approx(mean) == 2.0
        assert params.stds[0] == pytest.approx(std) == pytest.approx(math.sqrt(2 / 3))
        assert params.stds[0] == pytest.approx(0.816496580927726, abs=1e-12)

    def test_apply_standardizes(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = zscore_apply(x, zscore_fit(x))
        assert out[:, 0] == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589])

    def test_constant_column(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        params = zscore_fit(x)
        assert params.constant_mask.tolist() == [True, False]
        assert params.means[0] == 5.0 and params.stds[0] == 0.0
        assert zscore_apply(x, params)[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_single_row(self):
        params = zscore_fit(np.array([[2.0, 3.0]]))
        assert params.stds.tolist() == [0.0, 0.0]

    def test_moments_after_standardization(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 7.0, size=(500, 6))
        out = zscore_apply(x, zscore_fit(x))
        assert np.abs(out.mean(axis=0)).max() <= 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() <= 1e-9

    def test_width_mismatch(self):
        with pytest.raises(DataError):
            zscore_apply(np.ones((3, 2)), zscore_fit(np.ones((3, 3))))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            zscore_fit(np.empty((0, 3)))


class TestSplit:
    def test_sizes(self):
        train, test = split_dataset(make_dataset(10), 0.3, seed=1, stratify=False)
        assert len(test) == 3 and len(train) == 7

    def test_disjoint_exhaustive(self):
        ds = make_dataset(50)
        train, test = split_dataset(ds, 0.4, seed=2)
        ti = set(train.provenance["row_indices"])
        si = set(test.provenance["row_indices"])
        assert ti.isdisjoint(si)
        assert ti | si == set(range(50))

    def test_stratified_positive_count(self):
        ds = make_dataset(100, positive_fraction=0.2, seed=5)
        n_pos = int(ds.binary_labels.sum())
        train, test = split_dataset(ds, 0.5, seed=3, stratify=True)
        expected = round(n_pos * 0.5)
        assert abs(int(test.binary_labels.sum()) - expected) <= 1

    def test_same_seed_identical(self):
        ds = make_dataset(40)
        a_train, a_test = split_dataset(ds, 0.25, seed=9)
        b_train, b_test = split_dataset(ds, 0.25, seed=9)
        assert a_test.provenance["row_indices"] == b_test.provenance["row_indices"]
        assert np.array_equal(a_train.features, b_train.features)

    def test_fraction_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                split_dataset(make_dataset(10), bad, seed=0)

    def test_tags_follow_rows(self):
        ds = make_dataset(30, tags=True)
        train, test = split_dataset(ds, 0.3, seed=4)
        for part in (train, test):
            for i, original in enumerate(part.provenance["row_indices"]):
                assert part.window_tags[i] == ds.window_tags[original]


class TestNoise:
    def test_zero_ratio_bit_exact(self):
        ds = make_dataset(15)
        out = inject_noise(ds, NoiseSpec(0.0, 1.0, seed=3))
        assert np.array_equal(out.features, ds.features)
        assert out.features is not ds.features

    def test_full_ratio_touches_every_row(self):
        ds = make_dataset(12)
        out = inject_noise(ds, NoiseSpec(1.0, 1.0, seed=3))
        changed = (out.features != ds.features).any(axis=1)
        assert changed.all()

    def test_half_ratio_exact_row_count(self):
        ds = make_dataset(10)
        out = inject_noise(ds, NoiseSpec(0.5, 1.0, seed=7))
        changed = (out.features != ds.features).any(axis=1)
        assert int(changed.sum()) == 5

    @pytest.mark.parametrize("ratio", [i / 10 for i in range(11)])
    def test_grid_row_counts(self, ratio):
        ds = make_dataset(37)
        out = inject_noise(ds, NoiseSpec(ratio, 0.5, seed=11))
        changed = (out.features != ds.features).any(axis=1)
        assert int(changed.sum()) == round(ratio * 37)

    def test_labels_and_tags_untouched(self):
        ds = make_dataset(9, tags=True)
        out = inject_noise(ds, NoiseSpec(1.0, 2.0, seed=1))
        assert np.array_equal(out.binary_labels, ds.binary_labels)
        assert np.array_equal(out.spectrum_labels, ds.spectrum_labels)
        assert out.window_tags == ds.window_tags

    def test_deterministic(self):
        ds = make_dataset(20)
        a = inject_noise(ds, NoiseSpec(0.6, 1.0, seed=5))
        b = inject_noise(ds, NoiseSpec(0.6, 1.0, seed=5))
        assert np.array_equal(a.features, b.features)

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            NoiseSpec(1.2, 1.0, 0)
        with pytest.raises(ConfigError):
            NoiseSpec(0.5, 0.0, 0)


class TestSynthetic:
    def test_no_segments_all_normal(self):
        scenario = SyntheticScenario(duration=50, feature_count=3, segments=())
        timeline = generate_synthetic(scenario, seed=0)
        assert len(timeline) == 50
        assert timeline.labels.sum() == 0

    def test_burst_count(self):
        scenario = SyntheticScenario(
            duration=300,
            feature_count=2,
            segments=(AttackSegment("b", 100, 30, "burst", offset=2.0),),
        )
        timeline = generate_synthetic(scenario, seed=1)
        assert int(timeline.labels.sum()) == 30

    def test_periodic_count(self):
        scenario = SyntheticScenario(
            duration=40,
            feature_count=2,
            segments=(AttackSegment("p", 5, 30, "periodic", period=3),),
        )
        timeline = generate_synthetic(scenario, seed=1)
        assert int(timeline.labels.sum()) == 10

    @pytest.mark.parametrize("length", [2, 7, 30, 61])
    def test_ramp_closed_form(self, length):
        seg = AttackSegment("r", 0, length, "ramp")
        offsets = seg.attack_offsets()
        assert len(offsets) == length // 2
        # density rises: the second half holds strictly more attacks
        first = sum(1 for o in offsets if o < length // 2)
        assert len(offsets) - first >= first

    def test_attack_records_are_shifted_and_tagged(self):
        scenario = SyntheticScenario(
            duration=60,
            feature_count=2,
            normal_mean=0.0,
            segments=(AttackSegment("dos", 10, 20, "burst", offset=50.0),),
        )
        timeline = generate_synthetic(scenario, seed=3)
        for label, attack, values in zip(timeline.labels, timeline.attacks, timeline.features):
            if label:
                assert attack == "dos"
                assert all(v > 25 for v in values)
            else:
                assert attack == ""

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            SyntheticScenario(
                duration=100,
                feature_count=1,
                segments=(
                    AttackSegment("a", 10, 20, "burst"),
                    AttackSegment("b", 25, 20, "burst"),
                ),
            )

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticScenario(duration=0, feature_count=1, segments=())

    def test_segment_past_end_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticScenario(
                duration=20,
                feature_count=1,
                segments=(AttackSegment("a", 10, 20, "burst"),),
            )

    def test_deterministic(self):
        scenario = SyntheticScenario(
            duration=80,
            feature_count=3,
            segments=(AttackSegment("a", 10, 20, "ramp"),),
        )
        first, second = generate_synthetic(scenario, seed=5), generate_synthetic(scenario, seed=5)
        assert same_timeline(first, second)

    @pytest.mark.parametrize(
        "mean,std",
        [(0.0, 1.0), (2.5, 0.5), ((0.0, -1.0, 3.0), (1.0, 0.25, 2.0))],
    )
    def test_matches_per_second_oracle(self, mean, std):
        # One (duration, F) draw gives the numbers of one draw per second.
        scenario = SyntheticScenario(
            duration=300,
            feature_count=3,
            normal_mean=mean,
            normal_std=std,
            segments=(
                AttackSegment("b", 10, 30, "burst", offset=2.0),
                AttackSegment("p", 50, 40, "periodic", period=4, offset=(1.0, -2.0, 0.5)),
                AttackSegment("r", 120, 61, "ramp", offset=-1.5),
                AttackSegment("one", 200, 1, "ramp"),  # a ramp of 1 has no attack second
            ),
        )
        for seed in (0, 9, 2024):
            timeline = generate_synthetic(scenario, seed)
            assert timeline_rows(timeline) == generate_synthetic_oracle(scenario, seed)
            assert timeline.seconds.tolist() == list(range(300))

    def test_wrong_type_values_rejected(self):
        base = {"duration": 50, "feature_count": 2, "segments": []}
        for bad in ({"duration": "abc"}, {"segments": 5}, {"segments": [5]},
                    {"normal_std": "wide"}):
            with pytest.raises(ConfigError, match="wrong type"):
                SyntheticScenario.from_dict({**base, **bad})
        scenario = SyntheticScenario.from_dict({**base, "normal_mean": ["a", "b"]})
        with pytest.raises(ConfigError, match="normal_mean must be numeric"):
            generate_synthetic(scenario, 0)


class TestAssemble:
    def test_dimensions_and_provenance(self):
        scenario = SyntheticScenario(
            duration=40,
            feature_count=3,
            segments=(AttackSegment("a", 10, 10, "burst", offset=2.0),),
        )
        timeline = generate_synthetic(scenario, seed=2)
        ds = assemble_dataset(timeline, 5, 1, "sspe", 8)
        assert ds.features.shape == (36, 15)
        assert ds.provenance["method"] == "sspe"
        assert ds.provenance["d_model"] == 8
        assert ds.provenance["window"] == 5
        expected_fraction = timeline.labels[
            np.arange(36)[:, None] + np.arange(5)
        ].mean()
        assert ds.provenance["attack_bit_fraction"] == pytest.approx(expected_fraction)

    def test_baseline_spectrum_equals_window_label(self):
        timeline = generate_synthetic(
            SyntheticScenario(
                duration=30,
                feature_count=2,
                segments=(AttackSegment("a", 5, 6, "burst"),),
            ),
            seed=0,
        )
        ds = assemble_dataset(timeline, 4, 1, "baseline")
        assert np.array_equal(ds.spectrum_labels, ds.binary_labels.astype(float))

    def test_coap_values_are_window_sums(self):
        timeline = generate_synthetic(
            SyntheticScenario(
                duration=30,
                feature_count=2,
                segments=(AttackSegment("a", 5, 9, "periodic", period=2),),
            ),
            seed=0,
        )
        ds = assemble_dataset(timeline, 6, 2, "coap")
        bits = timeline.labels
        for i, start in enumerate(range(0, 25, 2)):
            assert ds.spectrum_labels[i] == bits[start : start + 6].sum()

    def test_sspe_requires_d_model(self):
        timeline = generate_synthetic(
            SyntheticScenario(duration=10, feature_count=1, segments=()), seed=0
        )
        with pytest.raises(ConfigError):
            assemble_dataset(timeline, 2, 1, "sspe")

    def test_unknown_method(self):
        timeline = generate_synthetic(
            SyntheticScenario(duration=10, feature_count=1, segments=()), seed=0
        )
        with pytest.raises(ConfigError):
            assemble_dataset(timeline, 2, 1, "fourier")


class TestDownsample:
    def test_caps_majority(self):
        ds = make_dataset(100, positive_fraction=0.1, seed=8)
        out = downsample_majority(ds, 1.0, seed=1)
        ones = int(out.binary_labels.sum())
        zeros = len(out) - ones
        assert ones == int(ds.binary_labels.sum())
        assert zeros == ones

    def test_noop_when_balanced(self):
        ds = make_dataset(20, positive_fraction=0.5, seed=2)
        out = downsample_majority(ds, 10.0, seed=1)
        assert len(out) == len(ds)


def standardized_dataset(method="coap", stride=1, seed=4):
    """An assembled dataset z-scored on its first half, and its parameters."""
    scenario = SyntheticScenario(
        duration=90,
        feature_count=3,
        segments=(
            AttackSegment("dos", 10, 20, "burst", offset=2.0),
            AttackSegment("scan", 45, 30, "periodic", period=4),
        ),
    )
    ds = assemble_dataset(generate_synthetic(scenario, seed), 5, stride, method, d_model=8)
    params = zscore_fit(ds.features[: len(ds) // 2])
    return replace(ds, features=zscore_apply(ds.features, params)), params


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds, params = standardized_dataset(stride=2)
        save_dataset(ds, tmp_path, params, sidecar_extra={"seeds": {"base": 3}})
        loaded, sidecar = load_dataset(tmp_path)
        assert same_bits(loaded.features, ds.features)
        assert same_bits(loaded.spectrum_labels, ds.spectrum_labels)
        assert same_bits(loaded.binary_labels, ds.binary_labels)
        assert same_bits(loaded.second_features, ds.second_features)
        assert same_bits(loaded.window_starts, ds.window_starts)
        assert loaded.window_tags == ds.window_tags
        assert loaded.provenance == ds.provenance
        assert sidecar["schema_version"] == 2
        assert sidecar["zscore"] == params.to_dict()
        assert sidecar["seeds"] == {"base": 3}
        assert "attack_name" not in sidecar
        # A loaded dataset saves back to the same bytes.
        save_dataset(loaded, tmp_path / "again", params, sidecar_extra={"seeds": {"base": 3}})
        for name in ("dataset.npz", "dataset.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_row_subset_keeps_its_window_starts(self, tmp_path):
        ds, params = standardized_dataset()
        rows = np.array([1, 4, 5, 17, 30])
        subset = ds.take(rows)
        save_dataset(subset, tmp_path, params)
        loaded, _ = load_dataset(tmp_path)
        assert loaded.window_starts.tolist() == ds.window_starts[rows].tolist()
        assert same_bits(loaded.features, ds.features[rows])

    def test_refuses_noise_injected_dataset(self, tmp_path):
        ds, params = standardized_dataset()
        noised = inject_noise(ds, NoiseSpec(0.3, 1.0, seed=2))
        with pytest.raises(DataError, match="differ"):
            save_dataset(noised, tmp_path, params)
        assert list(tmp_path.iterdir()) == []

    def test_refuses_other_zscore_parameters(self, tmp_path):
        ds, _ = standardized_dataset()
        with pytest.raises(DataError, match="differ"):
            save_dataset(ds, tmp_path, zscore_fit(ds.features))

    def test_refuses_hand_built_dataset(self, tmp_path):
        ds = make_dataset(8, d=3)
        with pytest.raises(DataError, match="per-second"):
            save_dataset(ds, tmp_path, zscore_fit(ds.features))

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")
