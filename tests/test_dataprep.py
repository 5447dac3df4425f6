"""Dataset preparation tests: z-score, split, noise, synthesis, IO."""

import json
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
from tests.conftest import dataset_tags, same_bits, same_timeline, timeline_attacks, timeline_rows
from tests.oracles import generate_synthetic_oracle, population_moments


def make_dataset(m=20, d=4, seed=0, positive_fraction=0.5, tags=False):
    rng = np.random.default_rng(seed)
    binary = (rng.random(m) < positive_fraction).astype(np.int64)
    return Dataset(
        features=rng.normal(size=(m, d)),
        spectrum_labels=rng.random(m) * 5,
        binary_labels=binary,
        tag_codes=binary if tags else None,
        attack_names=("", "atk") if tags else ("",),
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
        assert (params.stds == 0.0).tolist() == [True, False]
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

    def test_overflow_names_the_first_column(self):
        # Finite features whose moments or z-scores overflow float64.
        big = np.array([[0.0, 1.7e308, 1.7e308], [1.0, 1.6e308, 1.6e308]])
        with pytest.raises(DataError, match="z-score mean of feature column 1 is not finite"):
            zscore_fit(big)
        with pytest.raises(DataError, match="standard deviation of feature column 2"):
            zscore_fit(np.array([[0.0, 0.0, 1e200], [1.0, 1.0, -1e200]]))
        params = zscore_fit(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1e-150]]))
        with pytest.raises(DataError, match="z-score value of feature column 2 is not finite"):
            zscore_apply(np.array([[0.5, 0.5, 1e300]]), params)


class TestSplit:
    def test_sizes(self):
        test = split_dataset(make_dataset(10), 0.3, seed=1, stratify=False)
        assert int(test.sum()) == 3 and int((~test).sum()) == 7

    def test_disjoint_exhaustive(self):
        # One bool per row: every row is on exactly one side.
        test = split_dataset(make_dataset(50), 0.4, seed=2)
        assert test.dtype == bool and test.shape == (50,)
        assert int(test.sum()) == 20

    def test_stratified_positive_count(self):
        ds = make_dataset(100, positive_fraction=0.2, seed=5)
        n_pos = int(ds.binary_labels.sum())
        test = split_dataset(ds, 0.5, seed=3, stratify=True)
        expected = round(n_pos * 0.5)
        assert abs(int(ds.binary_labels[test].sum()) - expected) <= 1

    def test_same_seed_identical(self):
        ds = make_dataset(40)
        assert np.array_equal(split_dataset(ds, 0.25, seed=9), split_dataset(ds, 0.25, seed=9))

    def test_matches_sorted_permutation_prefixes(self):
        # The test rows of each class are a prefix of one seeded permutation.
        ds = make_dataset(60, positive_fraction=0.3, seed=6)
        rng = np.random.default_rng(11)
        want = np.zeros(60, dtype=bool)
        for cls in (0, 1):
            idx = np.flatnonzero(ds.binary_labels == cls)
            want[rng.permutation(idx)[: int(round(idx.size * 0.3))]] = True
        assert np.array_equal(split_dataset(ds, 0.3, seed=11), want)

    def test_fraction_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                split_dataset(make_dataset(10), bad, seed=0)


class TestNoise:
    def test_zero_ratio_bit_exact(self):
        ds = make_dataset(15)
        out = inject_noise(ds.features, NoiseSpec(0.0, 1.0, seed=3))
        assert np.array_equal(out, ds.features)
        assert out is not ds.features

    def test_full_ratio_touches_every_row(self):
        ds = make_dataset(12)
        out = inject_noise(ds.features, NoiseSpec(1.0, 1.0, seed=3))
        changed = (out != ds.features).any(axis=1)
        assert changed.all()

    def test_half_ratio_exact_row_count(self):
        ds = make_dataset(10)
        out = inject_noise(ds.features, NoiseSpec(0.5, 1.0, seed=7))
        changed = (out != ds.features).any(axis=1)
        assert int(changed.sum()) == 5

    @pytest.mark.parametrize("ratio", [i / 10 for i in range(11)])
    def test_grid_row_counts(self, ratio):
        ds = make_dataset(37)
        out = inject_noise(ds.features, NoiseSpec(ratio, 0.5, seed=11))
        changed = (out != ds.features).any(axis=1)
        assert int(changed.sum()) == round(ratio * 37)

    def test_labels_and_tags_untouched(self):
        # Noising a dataset's features leaves the dataset as it was.
        ds = make_dataset(9, tags=True)
        before = make_dataset(9, tags=True)
        inject_noise(ds.features, NoiseSpec(1.0, 2.0, seed=1))
        assert same_bits(ds.features, before.features)
        assert np.array_equal(ds.binary_labels, before.binary_labels)
        assert np.array_equal(ds.spectrum_labels, before.spectrum_labels)
        assert dataset_tags(ds) == dataset_tags(before)

    def test_deterministic(self):
        ds = make_dataset(20)
        a = inject_noise(ds.features, NoiseSpec(0.6, 1.0, seed=5))
        b = inject_noise(ds.features, NoiseSpec(0.6, 1.0, seed=5))
        assert np.array_equal(a, b)

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
        assert timeline.attack_names == ("", "dos")
        attacks = timeline_attacks(timeline)
        for label, attack, values in zip(timeline.labels, attacks, timeline.features):
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

    def test_negative_normal_std_rejected(self):
        scenario = SyntheticScenario(duration=20, feature_count=2, segments=(),
                                     normal_std=(1.0, -0.5))
        with pytest.raises(ConfigError, match="normal_std must not be negative"):
            generate_synthetic(scenario, 0)

    def test_wrong_type_values_rejected(self):
        base = {"duration": 50, "feature_count": 2, "segments": []}
        for bad in ({"duration": "abc"}, {"segments": 5}, {"segments": [5]},
                    {"normal_std": "wide"}):
            with pytest.raises(ConfigError, match="wrong type"):
                SyntheticScenario.from_dict({**base, **bad})
        segment = {"name": "a", "start": 5, "length": 5, "pattern": "burst"}
        for entries in (["a", "b"], ["1", "2"], [True, 0.0], [0.0, float("nan")]):
            for bad, key in (
                ({"normal_mean": entries}, "key 'normal_mean'"),
                ({"normal_std": entries}, "key 'normal_std'"),
                ({"segments": [{**segment, "offset": entries}]}, "segment 0: key 'offset'"),
            ):
                with pytest.raises(ConfigError, match=f"wrong type: {key}"):
                    SyntheticScenario.from_dict({**base, **bad})

    def test_from_json_names_the_file_for_bad_per_feature_lists(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"duration": 50, "feature_count": 2, "segments": [], "normal_mean": ["1", "2"]}
        ))
        with pytest.raises(ConfigError) as caught:
            SyntheticScenario.from_json(path)
        assert str(caught.value).startswith(f"{path}: scenario holds a value of the wrong type")
        assert "normal_mean" in str(caught.value)

    def test_built_scenarios_still_check_per_feature_values(self):
        scenario = SyntheticScenario(duration=20, feature_count=2, segments=(),
                                     normal_mean=("1", "2"))
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


def windowed_dataset(method="coap", stride=1, seed=4):
    """An assembled dataset and z-score parameters fitted on its first half."""
    scenario = SyntheticScenario(
        duration=90,
        feature_count=3,
        segments=(
            AttackSegment("dos", 10, 20, "burst", offset=2.0),
            AttackSegment("scan", 45, 30, "periodic", period=4),
        ),
    )
    ds = assemble_dataset(generate_synthetic(scenario, seed), 5, stride, method, d_model=8)
    return ds, zscore_fit(ds.features[: len(ds) // 2])


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds, params = windowed_dataset(stride=2)
        test = np.arange(len(ds)) % 3 == 0
        save_dataset(ds, tmp_path, params, test, sidecar_extra={"seeds": {"base": 3}})
        splits = load_dataset(tmp_path)
        sidecar = json.loads((tmp_path / "dataset.json").read_text())
        with np.load(tmp_path / "dataset.npz") as npz:
            assert np.array_equal(npz["test"], test)
        # Each split holds its rows in row order: the z-scored windows at
        # their starts, with their labels and tags.
        for split, mask in zip(splits, (~test, test)):
            rows = np.flatnonzero(mask)
            assert same_bits(split.features, zscore_apply(ds.features[rows], params))
            assert same_bits(split.spectrum_labels, ds.spectrum_labels[rows])
            assert same_bits(split.binary_labels, ds.binary_labels[rows])
            assert same_bits(split.second_features, ds.second_features)
            assert same_bits(split.window_starts, ds.window_starts[rows])
            assert dataset_tags(split) == tuple(dataset_tags(ds)[i] for i in rows)
            assert split.provenance == ds.provenance
        assert sidecar["schema_version"] == 3
        assert sidecar["rows"] == len(ds)
        assert sidecar["feature_width"] == ds.features.shape[1]
        assert sidecar["attack_names"] == sorted(set(dataset_tags(ds)))
        assert sidecar["seeds"] == {"base": 3}
        assert "attack_name" not in sidecar

    def test_never_reads_the_rows(self, tmp_path):
        # The rows are windows of the per-second features: saving a dataset
        # whose rows were replaced writes the same bytes.
        ds, params = windowed_dataset()
        test = np.arange(len(ds)) % 4 == 0
        save_dataset(ds, tmp_path / "a", params, test)
        save_dataset(replace(ds, features=np.empty((len(ds), 0))), tmp_path / "b", params, test)
        for name in ("dataset.npz", "dataset.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_refuses_hand_built_dataset(self, tmp_path):
        ds = make_dataset(8, d=3)
        with pytest.raises(DataError, match="per-second"):
            save_dataset(ds, tmp_path, zscore_fit(ds.features), np.zeros(len(ds), dtype=bool))

    def test_refuses_a_test_mask_of_another_length(self, tmp_path):
        ds, params = windowed_dataset()
        with pytest.raises(DataError, match="test mask"):
            save_dataset(ds, tmp_path, params, np.zeros(len(ds) - 1, dtype=bool))
        assert list(tmp_path.iterdir()) == []

    def test_refuses_zscore_parameters_of_another_width(self, tmp_path):
        ds, params = windowed_dataset()
        narrow = zscore_fit(ds.features[:, :-1])
        with pytest.raises(DataError, match="one value per feature column"):
            save_dataset(ds, tmp_path, narrow, np.zeros(len(ds), dtype=bool))
        assert list(tmp_path.iterdir()) == []

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")
