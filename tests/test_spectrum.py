"""Spectrum-label tests: encodings, COAP/SSPE, thresholds, distribution score."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec import (
    ConfigError,
    DataError,
    EncodingConfig,
    PacketTimeline,
    binarize,
    coap_values,
    compute_threshold,
    default_parameter_grid,
    encoding_matrix,
    parameter_grid_scores,
    proportional_positive_count,
    score_label_distribution,
    sspe_values,
    window_matrices,
)
from tspec.spectrum import LABEL_METHODS, is_spectrum_method, position_weights
from tests.conftest import same_bits
from tests.oracles import (
    ascending_percentile_oracle,
    encoding_oracle,
    rank_threshold_oracle,
    sspe_brute_force,
    window_matrices_oracle,
)

GRID_D_MODELS = (2, 4, 8, 16, 32, 64, 128, 236, 256)


def encode(pos, d_model):
    """Row ``pos`` of the encoding matrix."""
    return encoding_matrix(pos + 1, EncodingConfig(d_model))[pos]


def coap_of(bits):
    return coap_values(np.asarray(bits)[None, :])[0]


def sspe_of(bits, cfg):
    return sspe_values(np.asarray(bits)[None, :], cfg)[0]


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        for d in (2, 8, 236):
            vec = encode(0, d)
            assert np.array_equal(vec, np.tile([0.0, 1.0], d // 2))

    def test_position_one_two_dims(self):
        vec = encode(1, 2)
        assert vec == pytest.approx([math.sin(1), math.cos(1)], abs=1e-12)
        assert vec == pytest.approx([0.8414709848078965, 0.5403023058681398], abs=1e-12)

    @pytest.mark.parametrize("d_model", GRID_D_MODELS)
    def test_pair_norms(self, d_model):
        matrix = encoding_matrix(60, EncodingConfig(d_model))
        for pos in range(0, 60, 7):
            vec = matrix[pos]
            pair_norms = vec[0::2] ** 2 + vec[1::2] ** 2
            assert np.abs(pair_norms - 1.0).max() <= 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            EncodingConfig(3)
        with pytest.raises(ConfigError):
            EncodingConfig(0)

    def test_matrix_matches_single_positions(self):
        matrix = encoding_matrix(10, EncodingConfig(8))
        for pos in range(10):
            assert matrix[pos] == pytest.approx(encoding_oracle(pos, 8), abs=1e-12)

    def test_negative_position_rejected(self):
        # Positions are 0..length-1, so a negative length is the only way to
        # ask for a negative position.
        with pytest.raises(ValueError):
            encoding_matrix(-1, EncodingConfig(2))


class TestCoap:
    def test_examples(self):
        bits = np.array([[1, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]])
        assert coap_values(bits).tolist() == [3, 0, 4]
        assert coap_of([1] * 8) == 8

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, bits):
        assert coap_of(bits) == coap_of(list(reversed(bits)))
        assert coap_of(bits) == sum(bits)

    def test_empty_rejected(self):
        # Label rows come from windows, and a window is never empty.
        timeline = PacketTimeline(
            seconds=[], features=np.empty((0, 1)), labels=[], feature_names=("f0",)
        )
        with pytest.raises(DataError):
            window_matrices(timeline, 1)
        with pytest.raises(ConfigError):
            window_matrices(timeline, 0)

    def test_non_bit_rejected(self):
        # Label rows come from a timeline, which only holds 0 and 1.
        with pytest.raises(DataError, match="0 or 1"):
            PacketTimeline(
                seconds=[0, 1, 2], features=np.zeros((3, 1)), labels=[0, 2, 1],
                feature_names=("f0",),
            )


class TestSspe:
    def test_all_zero_labels(self):
        assert sspe_of([0, 0, 0], EncodingConfig(8)) == 0.0

    def test_single_attack_at_origin(self):
        assert sspe_of([1, 0], EncodingConfig(2)) == pytest.approx(1.0, abs=1e-12)

    def test_two_positions_two_dims(self):
        expected = sspe_brute_force([0, 1], 2)
        value = sspe_of([0, 1], EncodingConfig(2))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.3817732906760363, abs=1e-9)

    @pytest.mark.parametrize("d_model", [2, 16, 236])
    def test_matches_brute_force(self, d_model):
        rng = np.random.default_rng(d_model)
        for _ in range(25):
            n = int(rng.integers(1, 61))
            bits = rng.integers(0, 2, size=n)
            expected = sspe_brute_force(bits.tolist(), d_model)
            assert sspe_of(bits, EncodingConfig(d_model)) == pytest.approx(expected, abs=1e-9)

    def test_linearity_on_disjoint_supports(self):
        rng = np.random.default_rng(11)
        cfg = EncodingConfig(16)
        for _ in range(40):
            n = int(rng.integers(2, 50))
            support = rng.permutation(n)
            half = n // 2
            a = np.zeros(n, dtype=int)
            b = np.zeros(n, dtype=int)
            a[support[:half]] = rng.integers(0, 2, half)
            b[support[half:]] = rng.integers(0, 2, n - half)
            combined = a | b
            assert sspe_of(combined, cfg) == pytest.approx(
                sspe_of(a, cfg) + sspe_of(b, cfg), abs=1e-9
            )
            assert coap_of(combined) == coap_of(a) + coap_of(b)

    def test_position_sensitivity_exists(self):
        cfg = EncodingConfig(2)
        assert sspe_of([1, 0], cfg) != sspe_of([0, 1], cfg)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(20, 30))
        values = sspe_values(bits, EncodingConfig(8))
        for row, value in zip(bits, values):
            assert value == pytest.approx(sspe_brute_force(row.tolist(), 8), abs=1e-9)
        assert np.array_equal(coap_values(bits), bits.sum(axis=1))


class TestPositionWeights:
    """COAP and SSPE are both ``bits @ position_weights(...)``."""

    def test_coap_weights_are_ones(self):
        assert position_weights("coap", 5).tolist() == [1.0] * 5
        bits = np.random.default_rng(3).integers(0, 2, size=(30, 12))
        assert same_bits(coap_values(bits), bits.sum(axis=1).astype(np.float64))

    @pytest.mark.parametrize("d_model", [2, 8, 236])
    def test_sspe_weights_are_encoding_row_sums(self, d_model):
        weights = position_weights("sspe", 9, d_model)
        assert same_bits(weights, encoding_matrix(9, EncodingConfig(d_model)).sum(axis=1))
        for pos in range(9):
            one_hot = [0] * 9
            one_hot[pos] = 1
            assert weights[pos] == pytest.approx(sspe_brute_force(one_hot, d_model), abs=1e-9)
        bits = np.random.default_rng(d_model).integers(0, 2, size=(25, 9))
        assert same_bits(sspe_values(bits, EncodingConfig(d_model)), bits @ weights)

    def test_sspe_needs_an_even_d_model(self):
        with pytest.raises(ConfigError, match="d_model"):
            position_weights("sspe", 4, 3)

    def test_only_the_baseline_is_not_a_spectrum_method(self):
        assert [is_spectrum_method(m) for m in LABEL_METHODS] == [False, True, True]


class TestThreshold:
    def test_rank_default_example(self):
        values = np.array([0.0, 0.0, 0.0, 5.0, 7.0])
        spec = compute_threshold(values, 2)
        assert spec.tau == rank_threshold_oracle(values, 2) == 5.0
        assert binarize(values, spec).tolist() == [0, 0, 0, 1, 1]

    def test_zero_n1_marks_nothing(self):
        values = np.array([1.0, 2.0, 3.0])
        spec = compute_threshold(values, 0)
        assert binarize(values, spec).sum() == 0

    def test_full_n1_marks_everything(self):
        values = np.array([1.0, 2.0, 3.0])
        spec = compute_threshold(values, 3)
        assert spec.tau == values.min()
        assert binarize(values, spec).sum() == 3

    @given(
        n=st.integers(2, 200),
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_values_mark_exactly_n1(self, n, frac, seed):
        rng = np.random.default_rng(seed)
        values = rng.permutation(np.arange(n, dtype=np.float64) + rng.normal())
        n1 = int(round(frac * n))
        spec = compute_threshold(values, n1)
        assert int(binarize(values, spec).sum()) == n1

    def test_ties_mark_at_least_n1(self):
        values = np.array([1.0, 1.0, 1.0, 0.0])
        spec = compute_threshold(values, 2)
        assert int(binarize(values, spec).sum()) >= 2

    def test_as_paper_is_ascending_percentile(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=101)
        for n1 in (0, 1, 13, 50, 101):
            spec = compute_threshold(values, n1, "as-paper")
            assert spec.tau == ascending_percentile_oracle(values, n1)

    def test_as_paper_complementary_count(self):
        # With distinct values, the literal ascending percentile marks
        # n - max(1, n1) + 1 rows positive (the default mode marks n1).
        rng = np.random.default_rng(8)
        values = rng.permutation(np.arange(500, dtype=np.float64))
        n1 = 120
        spec = compute_threshold(values, n1, "as-paper")
        assert int(binarize(values, spec).sum()) == 500 - n1 + 1

    def test_binarize_examples(self):
        spec = compute_threshold(np.array([0.0, 5.0, 7.0]), 2)
        assert binarize([0.0, 5.0, 7.0], spec).tolist() == [0, 1, 1]
        high = compute_threshold(np.array([1.0, 2.0]), 0)
        assert binarize([1.0, 2.0], high).tolist() == [0, 0]
        low = compute_threshold(np.array([1.0, 2.0]), 2)
        assert binarize([1.0, 2.0], low).tolist() == [1, 1]

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            compute_threshold(np.array([]), 0)
        with pytest.raises(ConfigError):
            compute_threshold(np.array([1.0]), 2)
        with pytest.raises(ConfigError):
            compute_threshold(np.array([1.0]), 0, "bogus")

    def test_proportional_count(self):
        assert proportional_positive_count(1000, 0.211) == 211
        assert proportional_positive_count(10, 0.0) == 0
        with pytest.raises(ConfigError):
            proportional_positive_count(10, 1.5)


class TestDistributionScore:
    def test_zero_moment_construction(self):
        # Symmetric four-point sample whose fourth moment is tuned so both
        # skewness and excess kurtosis vanish: 4k copies of +-1 plus k
        # copies of +-c with c^2 = 6 + 5*sqrt(2).
        c = math.sqrt(6 + 5 * math.sqrt(2))
        sample = np.array([1.0] * 40 + [-1.0] * 40 + [c] * 10 + [-c] * 10) + 10.0
        assert score_label_distribution(sample, bins=20) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_sample_scores_low(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(5.0, 1.0, size=20000)
        assert score_label_distribution(sample) < 0.1

    def test_skewed_sample_scores_higher(self):
        rng = np.random.default_rng(0)
        symmetric = rng.normal(5.0, 1.0, size=5000)
        skewed = np.exp(rng.normal(0.0, 1.0, size=5000)) + 1.0
        assert score_label_distribution(skewed) > score_label_distribution(symmetric)

    def test_constant_nonzero_degenerate(self):
        with pytest.raises(DataError, match="zero variance"):
            score_label_distribution(np.array([3.0] * 50))

    def test_two_point_mass_with_zeros_degenerate(self):
        values = np.array([0.0] * 50 + [1.0] * 50)
        with pytest.raises(DataError, match="zero variance"):
            score_label_distribution(values)

    def test_too_few_nonzero(self):
        with pytest.raises(DataError, match="at least 10"):
            score_label_distribution(np.array([0.0] * 20 + [1.0, 2.0]))

    def test_zeros_excluded_from_moments(self):
        rng = np.random.default_rng(1)
        core = rng.normal(5.0, 1.0, size=5000)
        with_zeros = np.concatenate([core, np.zeros(5000)])
        assert score_label_distribution(with_zeros) == pytest.approx(
            score_label_distribution(core)
        )


class TestParameterGrid:
    def test_default_grid_contents(self):
        grid = default_parameter_grid()
        assert grid["d_model"] == list(GRID_D_MODELS)
        assert grid["window"] == [10, 20, 30, 40, 50, 60]

    def test_grid_scores_shape_and_short_stream(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=55)  # shorter than the largest window
        rows = parameter_grid_scores(bits, stride=1, bins=10)
        assert len(rows) == len(GRID_D_MODELS) * 6
        short = [r for r in rows if r["window"] == 60]
        assert all(r["score"] is None for r in short)
        scored = [r for r in rows if r["window"] == 10]
        assert any(r["score"] is not None for r in scored)

    def test_grid_scores_follow_strided_windows(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=200)
        rows = parameter_grid_scores(bits, {"window": [10, 20], "d_model": [8]}, stride=3, bins=10)
        for row in rows:
            _, labels, _ = window_matrices_oracle(np.zeros((200, 1)), bits, row["window"], 3)
            values = sspe_values(labels, EncodingConfig(8))
            assert row["score"] == score_label_distribution(values, bins=10)

    def test_spectrum_ignores_features(self):
        # Same label stream, different feature values: identical spectra.
        from tests.conftest import make_timeline
        from tspec import assemble_dataset

        labels = [0, 1, 1, 0, 1, 0, 0, 1]
        t1 = make_timeline(range(8), labels=labels, rng=np.random.default_rng(1))
        t2 = make_timeline(range(8), labels=labels, rng=np.random.default_rng(99))
        d1 = assemble_dataset(t1, 4, 1, "sspe", 8)
        d2 = assemble_dataset(t2, 4, 1, "sspe", 8)
        assert np.array_equal(d1.spectrum_labels, d2.spectrum_labels)
        assert not np.array_equal(d1.features, d2.features)
