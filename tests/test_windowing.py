"""Windowing tests: count formula, flattening, label aggregation, tags.

Windows come from ``window_matrices``; the per-window stacking loop and the
per-record tag counter it replaced are kept in ``tests/oracles.py``.
"""

import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec import (
    DataError,
    PacketTimeline,
    assemble_dataset,
    contiguous_segments,
    fill_missing_points,
    load_dataset,
    save_dataset,
    window_attack_tags,
    window_binary_labels,
    window_matrices,
    zscore_apply,
    zscore_fit,
)
from tspec import windowing
from tspec.evalharness import labels_by_attack
from tests.conftest import dataset_tags, make_timeline, timeline_attacks
from tests.oracles import (
    contiguous_segments_oracle,
    labels_by_attack_oracle,
    window_attack_tags_oracle,
    window_matrices_oracle,
)


def tag_names(timeline, w, stride):
    """``window_attack_tags`` decoded into attack names."""
    codes = window_attack_tags(timeline, w, stride)
    return tuple(timeline.attack_names[c] for c in codes.tolist())


def brute_force_starts(n, w, stride):
    return [s for s in range(0, n + 1) if s % stride == 0 and s + w <= n]


def window_blocks(timeline, w, stride=1):
    """window_matrices rows unflattened back to (n_windows, W, F) blocks."""
    features, _, _ = window_matrices(timeline, w, stride)
    return features.reshape(features.shape[0], w, len(timeline.feature_names))


class TestMakeWindows:
    def test_count_small(self):
        _, _, starts = window_matrices(make_timeline(range(5)), 3, 1)
        assert starts.tolist() == [0, 1, 2]

    def test_count_disjoint(self):
        features, _, starts = window_matrices(make_timeline(range(60)), 30, 30)
        assert features.shape[0] == 2
        assert starts.tolist() == [0, 30]

    def test_insufficient_data(self):
        with pytest.raises(DataError, match="insufficient"):
            window_matrices(make_timeline(range(10)), 30)

    @given(
        n=st.integers(1, 80),
        w=st.integers(1, 80),
        stride=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_formula_matches_enumeration(self, n, w, stride):
        timeline = make_timeline(range(n), width=1)
        if n < w:
            with pytest.raises(DataError):
                window_matrices(timeline, w, stride)
            return
        features, labels, starts = window_matrices(timeline, w, stride)
        assert features.shape[0] == labels.shape[0] == (n - w) // stride + 1
        assert starts.tolist() == brute_force_starts(n, w, stride)

    def test_windows_carry_labels_in_order(self):
        timeline = make_timeline(range(6), labels=[0, 1, 0, 1, 1, 0])
        _, labels, _ = window_matrices(timeline, 3, 1)
        assert labels[1].tolist() == [1, 0, 1]

    def test_stride_one_overlap(self):
        timeline = make_timeline(range(12), width=3)
        blocks = window_blocks(timeline, 5)
        for a, b in zip(blocks, blocks[1:]):
            assert np.array_equal(a[1:], b[:-1])


class TestFlatten:
    @pytest.mark.parametrize("w,f,expected", [(30, 37, 1110), (60, 23, 1380), (1, 4, 4)])
    def test_lengths(self, w, f, expected):
        features, _, _ = window_matrices(make_timeline(range(w), width=f), w)
        assert features.shape == (1, expected)

    def test_row_major_order(self):
        timeline = make_timeline(range(4), width=3)
        vec = window_matrices(timeline, 4)[0][0]
        for p in range(4):
            for j in range(3):
                assert vec[p * 3 + j] == timeline.features[p, j]

    def test_single_row_identity(self):
        timeline = make_timeline(range(1), width=5)
        assert np.array_equal(window_matrices(timeline, 1)[0][0], timeline.features[0])

    @given(w=st.integers(1, 12), f=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, w, f):
        rng = np.random.default_rng(w * 100 + f)
        timeline = make_timeline(range(w), width=f, rng=rng)
        assert np.array_equal(window_blocks(timeline, w)[0], timeline.features)

    def test_unflatten_rejects_misaligned(self):
        # A feature block whose width disagrees with the feature names never
        # reaches the windowing.
        with pytest.raises(DataError, match="features"):
            PacketTimeline(
                seconds=[0, 1], features=np.zeros((2, 3)),
                labels=[0, 0], feature_names=("f0", "f1"),
            )

    def test_window_matrices_match_flatten(self):
        timeline = make_timeline(range(8), labels=[0, 1] * 4, width=2)
        got = window_matrices(timeline, 3, 2)
        want = window_matrices_oracle(timeline.features, timeline.labels, 3, 2)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_rows_take_one_matrix_sized_allocation_per_step(self):
        # Parsed CSVs give column-ordered (n, F) matrices.  Flattening one,
        # then z-scoring the rows, each allocates its result and no second
        # row-sized temporary; the z-scored bits are those of (x - mean) / std.
        seconds = np.asfortranarray(np.random.default_rng(0).normal(size=(2000, 6)))
        starts = np.arange(2000 - 30 + 1)
        params = zscore_fit(windowing.flatten_windows(seconds, starts, 30))
        params = replace(params, stds=np.where(np.arange(180) % 7 == 0, 0.0, params.stds))

        def traced(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows, flatten_peak = traced(lambda: windowing.flatten_windows(seconds, starts, 30))
        standardized, zscore_peak = traced(lambda: zscore_apply(rows, params))
        assert rows.shape == (1971, 180) and rows.flags.c_contiguous
        assert flatten_peak < 1.5 * rows.nbytes and zscore_peak < 1.5 * rows.nbytes
        safe_stds = np.where(params.stds == 0.0, 1.0, params.stds)
        want = np.where(params.stds == 0.0, 0.0, (rows - params.means) / safe_stds)
        assert np.array_equal(standardized.view(np.uint64), want.view(np.uint64))


class TestWindowLabels:
    def test_any_aggregate(self):
        bits = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 1]])
        assert window_binary_labels(bits).tolist() == [0, 1, 1]

    def test_tags_majority_and_empty(self):
        timeline = make_timeline(
            range(6),
            labels=[0, 1, 1, 1, 0, 0],
            attacks=["", "scan", "scan", "dos", "", ""],
        )
        assert tag_names(timeline, 3, 1) == ("scan", "scan", "scan", "dos")

    def test_tags_tie_prefers_earliest(self):
        timeline = make_timeline(
            range(4), labels=[1, 1, 0, 0], attacks=["a", "b", "", ""]
        )
        assert tag_names(timeline, 2, 1)[0] == "a"


class TestAgainstOracles:
    """``window_matrices`` and ``window_attack_tags`` against the per-window
    loops they replaced, on gap-filled timelines, strides above one, tied
    attack counts and attack seconds without a name."""

    @staticmethod
    def check(timeline, w, stride):
        got = window_matrices(timeline, w, stride)
        want = window_matrices_oracle(timeline.features, timeline.labels, w, stride)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert tag_names(timeline, w, stride) == window_attack_tags_oracle(
            timeline_attacks(timeline), timeline.labels.tolist(), w, stride
        )

    def test_gap_filled_with_stride(self):
        seconds = [0, 1, 2, 5, 6, 7, 8, 12, 13, 14, 20, 21, 22, 23]
        labels = [0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0]
        attacks = ["", "a", "b", "", "b", "a", "", "", "c", "", "", "a", "", ""]
        timeline = fill_missing_points(
            make_timeline(seconds, labels=labels, width=3, attacks=attacks), seed=4
        )
        assert len(timeline) == len(seconds) + 10
        for w in (1, 2, 4, 7):
            for stride in (1, 2, 3):
                self.check(timeline, w, stride)

    def test_no_feature_columns(self):
        # Every feature can be dropped as constant; windows then have width 0.
        self.check(make_timeline(range(5), width=0), 2, 2)

    def test_tied_counts_and_unnamed_attacks(self):
        # Several windows of 4 hold as many "x" as "y" seconds, so the
        # earliest name decides; seconds 4, 7 and 9 are attacks without a name.
        labels = [1, 1, 1, 1, 1, 1, 1, 1, 0, 1]
        attacks = ["x", "y", "y", "x", "", "x", "y", "", "", ""]
        timeline = make_timeline(range(10), labels=labels, attacks=attacks)
        for stride in (1, 2, 3):
            self.check(timeline, 4, stride)
        assert tag_names(timeline, 2, 1)[3] == "x"  # seconds 3-4: "x", unnamed
        assert tag_names(timeline, 1, 1)[7:] == ("", "", "")

    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from(["", "a", "b", "c"])),
            min_size=1,
            max_size=40,
        ),
        w=st.integers(1, 12),
        stride=st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_label_streams(self, cells, w, stride):
        if w > len(cells):
            return
        # make_timeline drops the names drawn for label-0 seconds.
        timeline = make_timeline(
            range(len(cells)), labels=[bit for bit, _ in cells], attacks=[n for _, n in cells]
        )
        self.check(timeline, w, stride)

    def test_only_windows_with_two_names_are_sorted(self, monkeypatch):
        # Windows of 3 from seconds 2 and 3 hold "a" and "b"; every other
        # window holds one name, or none, and is tagged without a sort.
        attacks = ["a", "a", "", "a", "b", "b", "", "", "c", "c"]
        timeline = make_timeline(range(10), labels=[1] * 10, attacks=attacks)
        sorted_rows = []
        real = windowing._most_frequent_codes

        def spy(windows):
            sorted_rows.extend(windows.tolist())
            return real(windows)

        monkeypatch.setattr(windowing, "_most_frequent_codes", spy)
        self.check(timeline, 3, 1)
        codes = timeline.attack_codes.tolist()
        assert sorted_rows == [codes[2:5], codes[3:6]]

    def test_memory_grows_with_windows_not_names(self):
        # 4,000 seconds, each with its own name: the tags of 3,971 windows
        # of 30 fit in a few MB, however many names there are.
        n = 4000
        timeline = make_timeline(range(n), labels=[1] * n, attacks=[f"a{i}" for i in range(n)])
        tracemalloc.start()
        try:
            codes = window_attack_tags(timeline, 30, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        names = tuple(timeline.attack_names[c] for c in codes.tolist())
        assert names == window_attack_tags_oracle(timeline_attacks(timeline), [1] * n, 30, 1)

    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from(["", "a", "b", "ab", "c"])),
            min_size=1,
            max_size=40,
        ),
        w=st.integers(1, 12),
        stride=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_match_the_string_oracles(self, cells, w, stride):
        # Unnamed attack seconds are drawn as (1, ""); the codes path must
        # give the tags, segments and signature groups of the string loops,
        # and the store must keep exactly the names some window carries.
        if w > len(cells):
            return
        timeline = make_timeline(
            range(len(cells)), labels=[bit for bit, _ in cells], attacks=[n for _, n in cells]
        )
        ds = assemble_dataset(timeline, w, stride, "coap")
        tags = window_attack_tags_oracle(
            timeline_attacks(timeline), timeline.labels.tolist(), w, stride
        )
        assert dataset_tags(ds) == tags
        got = [(name, rows.tolist()) for name, rows in contiguous_segments(ds)]
        assert got == [(name, rows.tolist()) for name, rows in contiguous_segments_oracle(tags)]
        want = labels_by_attack_oracle(ds.spectrum_labels, tags)
        if want:
            grouped = labels_by_attack(ds)
            assert list(grouped) == list(want)
            assert all(grouped[name].tobytes() == want[name].tobytes() for name in want)
        else:
            with pytest.raises(DataError, match="no tagged attack windows"):
                labels_by_attack(ds)

        params = zscore_fit(ds.features)
        with tempfile.TemporaryDirectory() as out:
            save_dataset(ds, out, params, np.zeros(len(ds), dtype=bool))
            sidecar = json.loads((Path(out) / "dataset.json").read_text())
            loaded, _ = load_dataset(out)
        assert sidecar["attack_names"] == sorted(set(tags))
        assert dataset_tags(loaded) == tags
