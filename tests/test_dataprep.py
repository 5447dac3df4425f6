"""Dataset preparation tests: z-score, split, noise, synthesis, IO."""

import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tspec import (
    AttackSegment,
    ConfigError,
    DataError,
    Dataset,
    NoiseSpec,
    SyntheticScenario,
    assemble_dataset,
    dataprep,
    generate_synthetic,
    inject_noise,
    load_dataset,
    save_dataset,
    split_dataset,
    zscore_apply,
    zscore_fit,
)
from tspec.dataprep import noise_rows
from tests.conftest import dataset_tags, same_bits, same_timeline, timeline_attacks, timeline_rows
from tests.oracles import generate_synthetic_oracle, inject_noise_oracle, population_moments


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

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 300), st.integers(1, 4)),
        chunk=st.integers(1, 40),
        data=st.data(),
    )
    def test_fit_over_masked_rows_has_the_bits_of_their_copy(self, shape, chunk, data):
        # Rows summed a chunk at a time, as numpy sums them; a single column,
        # which numpy sums pairwise, whole.
        features = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e12, 1e12)))
        rows = data.draw(hnp.arrays(np.bool_, shape[0]))
        rows[data.draw(st.integers(0, shape[0] - 1))] = True
        with patch.object(dataprep, "_ZSCORE_CHUNK", chunk):
            params = zscore_fit(features, rows)
        assert params.means.tobytes() == features[rows].mean(axis=0).tobytes()
        assert params.stds.tobytes() == features[rows].std(axis=0).tobytes()

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
        test = split_dataset(make_dataset(10, positive_fraction=0.0), seed=1)
        assert int(test.sum()) == 3 and int((~test).sum()) == 7

    def test_disjoint_exhaustive(self):
        # One bool per row: every row is on exactly one side.
        ds = make_dataset(50)
        test = split_dataset(ds, seed=2)
        assert test.dtype == bool and test.shape == (50,)
        n_pos = int(ds.binary_labels.sum())
        assert int(test.sum()) == round(n_pos * 0.3) + round((50 - n_pos) * 0.3)

    def test_stratified_positive_count(self):
        ds = make_dataset(100, positive_fraction=0.2, seed=5)
        n_pos = int(ds.binary_labels.sum())
        test = split_dataset(ds, seed=3)
        assert int(ds.binary_labels[test].sum()) == round(n_pos * dataprep.TEST_FRACTION)

    def test_same_seed_identical(self):
        ds = make_dataset(40)
        assert np.array_equal(split_dataset(ds, seed=9), split_dataset(ds, seed=9))

    def test_matches_sorted_permutation_prefixes(self):
        # The test rows of each class are a prefix of one seeded permutation.
        ds = make_dataset(60, positive_fraction=0.3, seed=6)
        rng = np.random.default_rng(11)
        want = np.zeros(60, dtype=bool)
        for cls in (0, 1):
            idx = np.flatnonzero(ds.binary_labels == cls)
            want[rng.permutation(idx)[: int(round(idx.size * 0.3))]] = True
        assert np.array_equal(split_dataset(ds, seed=11), want)


class TestNoise:
    def test_zero_ratio_bit_exact(self):
        ds = make_dataset(15)
        out = inject_noise(ds.features, NoiseSpec(0.0, seed=3))
        assert np.array_equal(out, ds.features)
        assert out is not ds.features

    def test_full_ratio_touches_every_row(self):
        ds = make_dataset(12)
        out = inject_noise(ds.features, NoiseSpec(1.0, seed=3))
        changed = (out != ds.features).any(axis=1)
        assert changed.all()

    def test_half_ratio_exact_row_count(self):
        ds = make_dataset(10)
        out = inject_noise(ds.features, NoiseSpec(0.5, seed=7))
        changed = (out != ds.features).any(axis=1)
        assert int(changed.sum()) == 5

    @pytest.mark.parametrize("ratio", [i / 10 for i in range(11)])
    def test_grid_row_counts(self, ratio):
        ds = make_dataset(37)
        out = inject_noise(ds.features, NoiseSpec(ratio, seed=11))
        changed = (out != ds.features).any(axis=1)
        assert int(changed.sum()) == round(ratio * 37)

    def test_labels_and_tags_untouched(self):
        # Noising a dataset's features leaves the dataset as it was.
        ds = make_dataset(9, tags=True)
        before = make_dataset(9, tags=True)
        inject_noise(ds.features, NoiseSpec(1.0, seed=1))
        assert same_bits(ds.features, before.features)
        assert np.array_equal(ds.binary_labels, before.binary_labels)
        assert np.array_equal(ds.spectrum_labels, before.spectrum_labels)
        assert dataset_tags(ds) == dataset_tags(before)

    def test_deterministic(self):
        ds = make_dataset(20)
        a = inject_noise(ds.features, NoiseSpec(0.6, seed=5))
        b = inject_noise(ds.features, NoiseSpec(0.6, seed=5))
        assert np.array_equal(a, b)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 40), d=st.integers(1, 5), seed=st.integers(0, 2**63 - 1),
           ratio=st.sampled_from(["zero", "one row", 0.5, 1.0]))
    def test_noise_rows_scattered_on_a_copy_are_inject_noise(self, m, d, seed, ratio):
        # The same draws, in the same order, as noising the chosen rows of a
        # copy in place.
        ratio = {"zero": 0.0, "one row": 1 / m}.get(ratio, ratio)
        features = np.random.default_rng(seed).normal(size=(m, d))
        spec = NoiseSpec(ratio, seed)
        rows, values = noise_rows(features, spec)
        assert rows.size == len(set(rows.tolist())) == round(ratio * m)
        scattered = features.copy()
        scattered[rows] = values
        want = inject_noise_oracle(features, ratio, seed)
        assert same_bits(scattered, want)
        assert same_bits(inject_noise(features, spec), want)

    def test_bad_spec(self):
        for ratio in (1.2, -0.1):
            with pytest.raises(ConfigError):
                NoiseSpec(ratio, 0)


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
        ds = assemble_dataset(timeline, 5, "sspe", 8)
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
        ds = assemble_dataset(timeline, 4, "baseline")
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
        ds = assemble_dataset(timeline, 6, "coap")
        bits = timeline.labels
        assert len(ds) == 25
        for start in range(25):
            assert ds.spectrum_labels[start] == bits[start : start + 6].sum()

    def test_sspe_requires_d_model(self):
        timeline = generate_synthetic(
            SyntheticScenario(duration=10, feature_count=1, segments=()), seed=0
        )
        with pytest.raises(ConfigError):
            assemble_dataset(timeline, 2, "sspe")

    def test_unknown_method(self):
        timeline = generate_synthetic(
            SyntheticScenario(duration=10, feature_count=1, segments=()), seed=0
        )
        with pytest.raises(ConfigError):
            assemble_dataset(timeline, 2, "fourier")


def windowed_dataset(method="coap", seed=4):
    """A timeline, its dataset of windows of 5, and z-score parameters fitted
    on the dataset's first half."""
    scenario = SyntheticScenario(
        duration=90,
        feature_count=3,
        segments=(
            AttackSegment("dos", 10, 20, "burst", offset=2.0),
            AttackSegment("scan", 45, 30, "periodic", period=4),
        ),
    )
    timeline = generate_synthetic(scenario, seed)
    ds = assemble_dataset(timeline, 5, method, d_model=8)
    return timeline, ds, zscore_fit(ds.features[: len(ds) // 2])


def save(timeline, out, params, test, method="coap", **extra):
    """``save_dataset`` of ``windowed_dataset``'s label settings."""
    save_dataset(timeline, out, params, test, window=5, method=method, d_model=8, **extra)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        timeline, ds, params = windowed_dataset()
        test = np.arange(len(ds)) % 3 == 0
        save(timeline, tmp_path, params, test, sidecar_extra={"seeds": {"base": 3}})
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
            assert dataset_tags(split) == tuple(dataset_tags(ds)[i] for i in rows)
            assert split.provenance == ds.provenance
        assert sidecar["schema_version"] == 6
        assert sidecar["rows"] == len(ds) == len(timeline) - 4
        assert sidecar["feature_width"] == ds.features.shape[1]
        assert sidecar["provenance"] == {"window": 5, "method": "coap", "d_model": None,
                                         "feature_names": ["f0", "f1", "f2"]}
        assert sidecar["attack_names"] == ["", "dos", "scan"]
        assert sidecar["seeds"] == {"base": 3}
        assert "attack_name" not in sidecar

    def test_refuses_a_window_longer_than_the_timeline(self, tmp_path):
        timeline, ds, params = windowed_dataset()
        with pytest.raises(DataError, match="90 seconds holds no window of 91"):
            save_dataset(timeline, tmp_path, params, np.zeros(0, dtype=bool), window=91,
                         method="coap")
        assert list(tmp_path.iterdir()) == []

    def test_refuses_label_settings_that_cannot_load(self, tmp_path):
        timeline, ds, params = windowed_dataset()
        test = np.zeros(len(ds), dtype=bool)
        with pytest.raises(ConfigError, match="label method"):
            save(timeline, tmp_path, params, test, method="fourier")
        with pytest.raises(ConfigError, match="d_model"):
            save_dataset(timeline, tmp_path, params, test, window=5, method="sspe", d_model=3)
        assert list(tmp_path.iterdir()) == []

    def test_stores_no_starts_and_labels_as_bools(self, tmp_path):
        # The store keeps nothing per window but the test mask: the labels
        # and attack codes are per second, the codes as uint8 for 3 names.
        timeline, ds, params = windowed_dataset()
        save(timeline, tmp_path, params, np.zeros(len(ds), dtype=bool))
        with np.load(tmp_path / "dataset.npz") as npz:
            assert sorted(npz.files) == ["attack_codes", "labels", "second_features", "test",
                                         "zscore_means", "zscore_stds"]
            assert npz["labels"].dtype == np.bool_
            assert npz["attack_codes"].dtype == np.uint8
            assert same_bits(npz["labels"], timeline.labels.astype(bool))
            assert same_bits(npz["attack_codes"], timeline.attack_codes.astype(np.uint8))
        train, _ = load_dataset(tmp_path)
        assert train.binary_labels.dtype == np.int64
        assert np.array_equal(train.binary_labels, ds.binary_labels)

    def test_refuses_a_test_mask_of_another_length(self, tmp_path):
        timeline, ds, params = windowed_dataset()
        with pytest.raises(DataError, match="test mask"):
            save(timeline, tmp_path, params, np.zeros(len(ds) - 1, dtype=bool))
        assert list(tmp_path.iterdir()) == []

    def test_refuses_zscore_parameters_of_another_width(self, tmp_path):
        timeline, ds, params = windowed_dataset()
        narrow = zscore_fit(ds.features[:, :-1])
        with pytest.raises(DataError, match="one value per feature column"):
            save(timeline, tmp_path, narrow, np.zeros(len(ds), dtype=bool))
        assert list(tmp_path.iterdir()) == []

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")
