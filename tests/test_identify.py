"""Identification tests: the signature registry, cosine similarity, argmax
attribution."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec import (
    ConfigError,
    DataError,
    Registry,
    build_registry,
    load_registry,
    save_registry,
)
from tspec.identify import _histograms, identify_runs
from tests.oracles import cosine_similarity


def identify_one(values, registry):
    """``identify_runs`` of one run: all of ``values``."""
    return identify_runs(values, [values.size], registry)[0]


def registry_of(names, counts, edges=(0.0, 1.0, 2.0, 3.0, 4.0)):
    return Registry(tuple(names), np.array(edges), np.array(counts, dtype=float), "sspe", None)


class TestBuildSignature:
    """Each attack's signature: one row of the registry's counts."""

    def test_single_bin_mass_is_one_hot(self):
        # "b" spans the range: edges -1, 1, 3, 5, 7.
        registry = build_registry(
            {"a": np.full(20, 3.0), "b": np.array([-1.0, 7.0])}, bins=4, method="sspe"
        )
        assert registry.counts.tolist() == [[0.0, 0.0, 1.0, 0.0], [0.5, 0.0, 0.0, 0.5]]

    def test_even_split(self):
        registry = build_registry({"a": np.array([1.0, 1.0, 2.0, 2.0])}, bins=2, method="sspe")
        assert registry.counts.tolist() == [[0.5, 0.5]]

    def test_normalization(self):
        rng = np.random.default_rng(0)
        registry = build_registry({"a": rng.normal(10, 2, size=1000)}, bins=50, method="sspe")
        assert registry.counts[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_clamps_to_edges(self):
        # Edges 1, 2.5, 4.  Predicted -5 clamps into the low bin, 9 into the
        # high bin, 2.5 sits on the interior edge and goes right.
        registry = build_registry(
            {"low": np.array([1.0]), "high": np.array([4.0])}, bins=2, method="sspe"
        )
        result = identify_one(np.array([-5.0, 2.5, 9.0]), registry)
        assert result.similarities == {
            "low": pytest.approx(1 / math.sqrt(5)), "high": pytest.approx(2 / math.sqrt(5)),
        }

    def test_degenerate_range_widens(self):
        registry = build_registry({"a": np.array([2.0, 2.0])}, bins=4, method="sspe")
        assert registry.counts.sum() == pytest.approx(1.0)
        assert (np.diff(registry.bin_edges) > 0).all()
        assert registry.bin_edges[[0, -1]].tolist() == [1.5, 2.5]

    def test_empty_labels(self):
        with pytest.raises(DataError):
            build_registry({"a": np.array([])}, bins=4, method="sspe")
        with pytest.raises(DataError):
            build_registry({}, bins=4, method="sspe")

    def test_too_few_bins(self):
        with pytest.raises(ConfigError):
            build_registry({"a": np.array([1.0])}, bins=1, method="sspe")


class TestRegistry:
    def test_shared_range_and_zero_exclusion(self):
        registry = build_registry(
            {"a": np.array([0.0, 1.0, 2.0]), "b": np.array([0.0, 8.0, 10.0])},
            bins=5,
            method="sspe",
        )
        assert registry.attack_names == ("a", "b")
        assert registry.counts.shape == (2, 5)
        assert registry.bin_edges[0] == 1.0  # zeros excluded before ranging
        assert registry.bin_edges[-1] == 10.0

    def test_all_zero_attack_rejected(self):
        with pytest.raises(DataError, match="usable"):
            build_registry({"a": np.zeros(5)}, bins=4, method="sspe")

    @pytest.mark.parametrize("counts", [[[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
                                        [[0.5, 0.5, 0.0, 0.0], [0.0, -0.5, -0.5, 0.0]]])
    def test_zero_or_negative_counts_rejected(self, counts):
        with pytest.raises(DataError, match=r"\['b'\] need nonnegative counts"):
            registry_of(["a", "b"], counts)

    def test_round_trip(self, tmp_path):
        registry = build_registry(
            {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, bins=8, method="coap"
        )
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        stored = json.loads(path.read_text())
        assert stored["version"] == 2
        assert [sorted(s) for s in stored["signatures"]] == [["attack_name", "counts"]] * 2
        loaded = load_registry(path)
        assert loaded.attack_names == ("a", "b")
        assert (loaded.method, loaded.d_model) == ("coap", None)
        assert np.array_equal(registry.bin_edges, loaded.bin_edges)
        assert np.array_equal(registry.counts, loaded.counts)

    def test_missing_and_empty_registry(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_registry(tmp_path / "none.json")
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"version": 2, "method": "sspe", "d_model": 8,
                                     "bin_edges": [0.0, 1.0], "signatures": []}))
        with pytest.raises(DataError, match="no signatures"):
            load_registry(empty)


class TestHistograms:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), lo=st.floats(-5.0, 5.0), bins=st.integers(1, 9),
           sizes=st.lists(st.integers(0, 12), min_size=1, max_size=6))
    def test_one_pass_counts_every_run_as_np_histogram(self, data, lo, bins, sizes):
        # Labels on the edges, outside them, infinite and NaN: each run's
        # row is np.histogram of its clamped values.
        widths = data.draw(st.lists(st.floats(0.25, 3.0), min_size=bins, max_size=bins))
        edges = lo + np.cumsum([0.0, *widths])
        label = st.one_of(
            st.sampled_from([*edges.tolist(), -np.inf, np.inf, np.nan]),
            st.floats(lo - 2.0, edges[-1] + 2.0),
        )
        values = np.array(data.draw(st.lists(label, min_size=sum(sizes), max_size=sum(sizes))),
                          dtype=np.float64)
        counts = _histograms(values, sizes, edges)
        assert counts.shape == (len(sizes), bins)
        for row, run in zip(counts, np.split(values, np.cumsum(sizes)[:-1])):
            want = np.histogram(np.clip(run, edges[0], edges[-1]), bins=edges)[0]
            assert row.tolist() == want.tolist()


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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
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
            method="sspe",
        )

    def test_self_identification(self, registry):
        rng = np.random.default_rng(4)
        for name, center in (("low", 2.0), ("mid", 5.0), ("high", 8.0)):
            result = identify_one(rng.normal(center, 0.3, size=100), registry)
            assert result.predicted_attack == name
            assert result.margin > 0

    def test_scale_invariance_of_histogram(self, registry):
        rng = np.random.default_rng(5)
        values = rng.normal(5.0, 0.3, size=60)
        once = identify_one(values, registry)
        tripled = identify_one(np.repeat(values, 3), registry)
        assert once.predicted_attack == tripled.predicted_attack == "mid"

    def test_tie_breaks_to_lowest_index(self):
        registry = registry_of(["first", "second"], [[0.0, 0.5, 0.5, 0.0]] * 2)
        result = identify_one(np.array([1.0, 2.0]), registry)
        assert result.predicted_attack == "first"
        assert result.margin == 0.0

    def test_signatures_identify_as_themselves(self, registry):
        rng = np.random.default_rng(6)
        samples = {"low": 2.0, "mid": 5.0, "high": 8.0}
        for name, center in samples.items():
            result = identify_one(rng.normal(center, 0.3, size=300), registry)
            assert result.predicted_attack == name

    def test_similarities_cover_every_signature(self, registry):
        result = identify_one(np.array([2.0, 2.1]), registry)
        assert set(result.similarities) == {"low", "mid", "high"}

    def test_inconsistent_binning_rejected(self):
        with pytest.raises(DataError, match="one finite count per bin"):
            registry_of(["a", "b"], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_empty_predictions_rejected(self, registry):
        with pytest.raises(DataError):
            identify_one(np.array([]), registry)

    def test_empty_registry_rejected(self):
        with pytest.raises(DataError, match="no signatures"):
            registry_of([], np.zeros((0, 4)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="unique"):
            registry_of(["same", "same"], [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
