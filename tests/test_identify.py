"""Identification tests: signatures, cosine similarity, argmax attribution."""

import math

import numpy as np
import pytest

from tspec import (
    ConfigError,
    DataError,
    build_registry,
    build_signature,
    cosine_similarity,
    identify_attack,
    load_registry,
    save_registry,
)


class TestBuildSignature:
    def test_single_bin_mass_is_one_hot(self):
        sig = build_signature(np.full(20, 3.0), "a", bins=4, value_range=(0.0, 8.0))
        assert sig.counts.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_even_split(self):
        sig = build_signature(np.array([0.0, 0.0, 1.0, 1.0]), "a", bins=2, value_range=(0.0, 1.0))
        assert sig.counts.tolist() == [0.5, 0.5]

    def test_normalization(self):
        rng = np.random.default_rng(0)
        sig = build_signature(rng.normal(10, 2, size=1000), "a", bins=50)
        assert sig.counts.sum() == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_clamps_to_edges(self):
        # -5 clamps into the low bin, 9 into the high bin, 0.5 sits on the
        # interior edge and goes right.
        sig = build_signature(
            np.array([-5.0, 0.5, 9.0]), "a", bins=2, value_range=(0.0, 1.0)
        )
        assert sig.counts.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3)]

    def test_degenerate_range_widens(self):
        sig = build_signature(np.array([2.0, 2.0]), "a", bins=4)
        assert sig.counts.sum() == pytest.approx(1.0)
        assert (np.diff(sig.bin_edges) > 0).all()

    def test_empty_labels(self):
        with pytest.raises(DataError):
            build_signature(np.array([]), "a")

    def test_too_few_bins(self):
        with pytest.raises(ConfigError):
            build_signature(np.array([1.0]), "a", bins=1)


class TestRegistry:
    def test_shared_range_and_zero_exclusion(self):
        sigs = build_registry(
            {"a": np.array([0.0, 1.0, 2.0]), "b": np.array([0.0, 8.0, 10.0])},
            bins=5,
        )
        assert np.array_equal(sigs[0].bin_edges, sigs[1].bin_edges)
        assert sigs[0].bin_edges[0] == 1.0  # zeros excluded before ranging
        assert sigs[0].bin_edges[-1] == 10.0

    def test_all_zero_attack_rejected(self):
        with pytest.raises(DataError, match="usable"):
            build_registry({"a": np.zeros(5)})

    def test_round_trip(self, tmp_path):
        sigs = build_registry(
            {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, bins=8, method="coap"
        )
        path = tmp_path / "registry.json"
        save_registry(sigs, path)
        loaded = load_registry(path)
        assert [s.attack_name for s in loaded] == ["a", "b"]
        for original, restored in zip(sigs, loaded):
            assert np.array_equal(original.bin_edges, restored.bin_edges)
            assert np.array_equal(original.counts, restored.counts)

    def test_missing_and_empty_registry(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_registry(tmp_path / "none.json")
        empty = tmp_path / "empty.json"
        empty.write_text('{"version": 1, "signatures": []}')
        with pytest.raises(DataError, match="no signatures"):
            load_registry(empty)


class TestCosine:
    def test_identical_vectors(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_orthogonal_one_hots(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_known_value(self):
        value = cosine_similarity([1.0, 1.0], [1.0, 0.0])
        assert value == pytest.approx(1 / math.sqrt(2))
        assert value == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            s = cosine_similarity(u, v)
            assert s == pytest.approx(cosine_similarity(v, u))
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12

    def test_one_iff_positive_scalar_multiple(self):
        u = np.array([1.0, 2.0, 0.5])
        assert cosine_similarity(u, 3.7 * u) == pytest.approx(1.0, abs=1e-12)
        assert cosine_similarity(u, u + [0.0, 0.0, 1.0]) < 1.0 - 1e-9

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            cosine_similarity([1.0], [1.0, 2.0])


class TestIdentifyAttack:
    @pytest.fixture
    def registry(self):
        rng = np.random.default_rng(3)
        return build_registry(
            {
                "low": rng.normal(2.0, 0.3, size=400),
                "mid": rng.normal(5.0, 0.3, size=400),
                "high": rng.normal(8.0, 0.3, size=400),
            },
            bins=20,
        )

    def test_self_identification(self, registry):
        rng = np.random.default_rng(4)
        for name, center in (("low", 2.0), ("mid", 5.0), ("high", 8.0)):
            result = identify_attack(rng.normal(center, 0.3, size=100), registry)
            assert result.predicted_attack == name
            assert result.margin > 0

    def test_scale_invariance_of_histogram(self, registry):
        rng = np.random.default_rng(5)
        values = rng.normal(5.0, 0.3, size=60)
        once = identify_attack(values, registry)
        tripled = identify_attack(np.repeat(values, 3), registry)
        assert once.predicted_attack == tripled.predicted_attack == "mid"

    def test_tie_breaks_to_lowest_index(self):
        base = build_signature(np.array([1.0, 2.0]), "first", bins=4, value_range=(0.0, 4.0))
        clone = build_signature(np.array([1.0, 2.0]), "second", bins=4, value_range=(0.0, 4.0))
        result = identify_attack(np.array([1.0, 2.0]), [base, clone])
        assert result.predicted_attack == "first"
        assert result.margin == 0.0

    def test_signatures_identify_as_themselves(self, registry):
        rng = np.random.default_rng(6)
        samples = {"low": 2.0, "mid": 5.0, "high": 8.0}
        for name, center in samples.items():
            result = identify_attack(rng.normal(center, 0.3, size=300), registry)
            assert result.predicted_attack == name

    def test_similarities_cover_every_signature(self, registry):
        result = identify_attack(np.array([2.0, 2.1]), registry)
        assert set(result.similarities) == {"low", "mid", "high"}

    def test_inconsistent_binning_rejected(self):
        a = build_signature(np.array([1.0]), "a", bins=4, value_range=(0.0, 4.0))
        b = build_signature(np.array([1.0]), "b", bins=4, value_range=(0.0, 8.0))
        with pytest.raises(DataError, match="share bin edges"):
            identify_attack(np.array([1.0]), [a, b])

    def test_empty_predictions_rejected(self, registry):
        with pytest.raises(DataError):
            identify_attack(np.array([]), registry)

    def test_empty_registry_rejected(self):
        with pytest.raises(DataError):
            identify_attack(np.array([1.0]), [])

    def test_duplicate_names_rejected(self):
        a = build_signature(np.array([1.0]), "same", bins=4, value_range=(0.0, 4.0))
        b = build_signature(np.array([2.0]), "same", bins=4, value_range=(0.0, 4.0))
        with pytest.raises(DataError, match="unique"):
            identify_attack(np.array([1.0]), [a, b])
