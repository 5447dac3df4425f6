"""Spectrum-label tests: encodings, COAP/SSPE, thresholds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec import (
    ConfigError,
    DataError,
    PacketTimeline,
    assemble_dataset,
    binarize,
    coap_values,
    compute_threshold,
    encoding_matrix,
    proportional_positive_count,
    sspe_values,
    window_matrices,
)
from tspec import spectrum
from tspec.spectrum import MAX_D_MODEL, LABEL_METHODS, is_spectrum_method, position_weights
from tests.conftest import make_timeline, same_bits
from tests.oracles import (
    encoding_oracle,
    rank_threshold_oracle,
    sspe_brute_force,
    sspe_weights_whole_matrix,
)

D_MODELS = (2, 4, 8, 16, 32, 64, 128, 236, 256)


def encode(pos, d_model):
    """Row ``pos`` of the encoding matrix."""
    return encoding_matrix(pos + 1, d_model)[pos]


def coap_of(bits):
    return coap_values(np.asarray(bits)[None, :])[0]


def sspe_of(bits, d_model):
    return sspe_values(np.asarray(bits)[None, :], d_model)[0]


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        for d in (2, 8, 236):
            vec = encode(0, d)
            assert np.array_equal(vec, np.tile([0.0, 1.0], d // 2))

    def test_position_one_two_dims(self):
        vec = encode(1, 2)
        assert vec == pytest.approx([math.sin(1), math.cos(1)], abs=1e-12)
        assert vec == pytest.approx([0.8414709848078965, 0.5403023058681398], abs=1e-12)

    @pytest.mark.parametrize("d_model", D_MODELS)
    def test_pair_norms(self, d_model):
        matrix = encoding_matrix(60, d_model)
        for pos in range(0, 60, 7):
            vec = matrix[pos]
            pair_norms = vec[0::2] ** 2 + vec[1::2] ** 2
            assert np.abs(pair_norms - 1.0).max() <= 1e-12

    def test_odd_dimension_rejected(self):
        for d_model in (3, 0):
            with pytest.raises(ConfigError, match="d_model"):
                sspe_values(np.ones((1, 2)), d_model)

    def test_matrix_matches_single_positions(self):
        matrix = encoding_matrix(10, 8)
        for pos in range(10):
            assert matrix[pos] == pytest.approx(encoding_oracle(pos, 8), abs=1e-12)

    def test_negative_position_rejected(self):
        # Positions are 0..length-1, so a negative length is the only way to
        # ask for a negative position.
        with pytest.raises(ValueError):
            encoding_matrix(-1, 2)


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
        assert sspe_of([0, 0, 0], 8) == 0.0

    def test_single_attack_at_origin(self):
        assert sspe_of([1, 0], 2) == pytest.approx(1.0, abs=1e-12)

    def test_two_positions_two_dims(self):
        expected = sspe_brute_force([0, 1], 2)
        value = sspe_of([0, 1], 2)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.3817732906760363, abs=1e-9)

    @pytest.mark.parametrize("d_model", [2, 16, 236])
    def test_matches_brute_force(self, d_model):
        rng = np.random.default_rng(d_model)
        for _ in range(25):
            n = int(rng.integers(1, 61))
            bits = rng.integers(0, 2, size=n)
            expected = sspe_brute_force(bits.tolist(), d_model)
            assert sspe_of(bits, d_model) == pytest.approx(expected, abs=1e-9)

    def test_linearity_on_disjoint_supports(self):
        rng = np.random.default_rng(11)
        d_model = 16
        for _ in range(40):
            n = int(rng.integers(2, 50))
            support = rng.permutation(n)
            half = n // 2
            a = np.zeros(n, dtype=int)
            b = np.zeros(n, dtype=int)
            a[support[:half]] = rng.integers(0, 2, half)
            b[support[half:]] = rng.integers(0, 2, n - half)
            combined = a | b
            assert sspe_of(combined, d_model) == pytest.approx(
                sspe_of(a, d_model) + sspe_of(b, d_model), abs=1e-9
            )
            assert coap_of(combined) == coap_of(a) + coap_of(b)

    def test_position_sensitivity_exists(self):
        d_model = 2
        assert sspe_of([1, 0], d_model) != sspe_of([0, 1], d_model)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(20, 30))
        values = sspe_values(bits, 8)
        for row, value in zip(bits, values):
            assert value == pytest.approx(sspe_brute_force(row.tolist(), 8), abs=1e-9)
        assert np.array_equal(coap_values(bits), bits.sum(axis=1))

    def test_spectrum_ignores_features(self):
        # Same label stream, different feature values: identical spectra.
        labels = [0, 1, 1, 0, 1, 0, 0, 1]
        t1 = make_timeline(range(8), labels=labels, rng=np.random.default_rng(1))
        t2 = make_timeline(range(8), labels=labels, rng=np.random.default_rng(99))
        d1 = assemble_dataset(t1, 4, "sspe", 8)
        d2 = assemble_dataset(t2, 4, "sspe", 8)
        assert np.array_equal(d1.spectrum_labels, d2.spectrum_labels)
        assert not np.array_equal(d1.features, d2.features)


class TestPositionWeights:
    """COAP and SSPE are both ``bits @ position_weights(...)``."""

    def test_coap_weights_are_ones(self):
        assert position_weights("coap", 5).tolist() == [1.0] * 5
        bits = np.random.default_rng(3).integers(0, 2, size=(30, 12))
        assert same_bits(coap_values(bits), bits.sum(axis=1).astype(np.float64))

    @pytest.mark.parametrize("d_model", [2, 8, 236])
    def test_sspe_weights_are_encoding_row_sums(self, d_model):
        weights = position_weights("sspe", 9, d_model)
        assert same_bits(weights, encoding_matrix(9, d_model).sum(axis=1))
        for pos in range(9):
            one_hot = [0] * 9
            one_hot[pos] = 1
            assert weights[pos] == pytest.approx(sspe_brute_force(one_hot, d_model), abs=1e-9)
        bits = np.random.default_rng(d_model).integers(0, 2, size=(25, 9))
        assert same_bits(sspe_values(bits, d_model), bits @ weights)

    @given(
        window=st.integers(1, 300),
        d_model=st.integers(1, 2048).map(lambda half: 2 * half),
        block=st.integers(1, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_weights_equal_the_whole_matrix(self, window, d_model, block):
        # Rows are built a block at a time; each row sums the same cells in
        # the same order as in the whole matrix, so the bits are equal.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectrum, "_ENCODING_BLOCK", block)
            got = position_weights("sspe", window, d_model)
        assert same_bits(got, sspe_weights_whole_matrix(window, d_model))

    def test_long_window_at_the_bound_in_bounded_memory(self):
        # The whole (3600, MAX_D_MODEL) matrix would take 1.9 GB.
        tracemalloc.start()
        try:
            weights = position_weights("sspe", 3600, MAX_D_MODEL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert same_bits(weights[:40], sspe_weights_whole_matrix(40, MAX_D_MODEL))

    def test_sspe_needs_an_even_d_model(self):
        with pytest.raises(ConfigError, match="d_model"):
            position_weights("sspe", 4, 3)

    def test_only_the_baseline_is_not_a_spectrum_method(self):
        assert [is_spectrum_method(m) for m in LABEL_METHODS] == [False, True, True]


class TestThreshold:
    def test_rank_default_example(self):
        values = np.array([0.0, 0.0, 0.0, 5.0, 7.0])
        tau = compute_threshold(values, 2)
        assert tau == rank_threshold_oracle(values, 2) == 5.0
        assert binarize(values, tau).tolist() == [0, 0, 0, 1, 1]

    def test_zero_n1_marks_nothing(self):
        values = np.array([1.0, 2.0, 3.0])
        tau = compute_threshold(values, 0)
        assert binarize(values, tau).sum() == 0

    def test_full_n1_marks_everything(self):
        values = np.array([1.0, 2.0, 3.0])
        tau = compute_threshold(values, 3)
        assert tau == values.min()
        assert binarize(values, tau).sum() == 3

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
        tau = compute_threshold(values, n1)
        assert int(binarize(values, tau).sum()) == n1

    def test_ties_mark_at_least_n1(self):
        values = np.array([1.0, 1.0, 1.0, 0.0])
        tau = compute_threshold(values, 2)
        assert int(binarize(values, tau).sum()) >= 2

    def test_binarize_examples(self):
        tau = compute_threshold(np.array([0.0, 5.0, 7.0]), 2)
        assert binarize([0.0, 5.0, 7.0], tau).tolist() == [0, 1, 1]
        high = compute_threshold(np.array([1.0, 2.0]), 0)
        assert binarize([1.0, 2.0], high).tolist() == [0, 0]
        low = compute_threshold(np.array([1.0, 2.0]), 2)
        assert binarize([1.0, 2.0], low).tolist() == [1, 1]

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            compute_threshold(np.array([]), 0)
        with pytest.raises(ConfigError):
            compute_threshold(np.array([1.0]), 2)

    def test_proportional_count(self):
        assert proportional_positive_count(1000, 0.211) == 211
        assert proportional_positive_count(10, 0.0) == 0
        with pytest.raises(ConfigError):
            proportional_positive_count(10, 1.5)
