"""Ingestion tests: CSV parsing, gap filling, feature projection."""

import csv

import numpy as np
import pytest

from tspec import (
    DataError,
    FlowSchema,
    PacketTimeline,
    fill_missing_points,
    nonconstant_features,
    parse_flow_csv,
    select_features,
)
from tests.conftest import make_timeline, same_timeline, timeline_attacks, timeline_rows
from tests.oracles import fill_missing_points_oracle


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


@pytest.fixture
def basic_schema():
    return FlowSchema(
        timestamp_column="time",
        label_column="label",
        feature_columns=("size", "rate"),
        timestamp_format="epoch",
    )


class TestParse:
    def test_three_rows_preserved(self, tmp_path, basic_schema):
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [[100, 74, 1.5, 1], [101, 208, 2.0, 0], [102, 66, 0.5, 0]],
        )
        timeline = parse_flow_csv(path, basic_schema)
        assert len(timeline) == 3
        assert timeline.feature_names == ("size", "rate")
        assert timeline.seconds.tolist() == [0, 1, 2]
        assert timeline.labels.tolist() == [1, 0, 0]
        assert timeline.features[0].tolist() == [74.0, 1.5]
        assert timeline.attack_names == ("",)
        assert timeline.attack_codes.tolist() == [0, 0, 0]

    def test_non_binary_label_names_row(self, tmp_path, basic_schema):
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [[100, 74, 1.5, 1], [101, 208, 2.0, 2]],
        )
        with pytest.raises(DataError, match="row 3"):
            parse_flow_csv(path, basic_schema)

    def test_clock_times_with_gaps(self, tmp_path, basic_schema):
        # Per-second rows 16:48:47..16:49:00 with 16:48:53/54/56/57/58 absent:
        # nine records spanning fourteen seconds before filling.
        times = [
            "16:48:47", "16:48:48", "16:48:49", "16:48:50", "16:48:51",
            "16:48:52", "16:48:55", "16:48:59", "16:49:00",
        ]
        labels = [1, 0, 0, 0, 0, 0, 0, 0, 1]
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [[t, 100, 1.0, l] for t, l in zip(times, labels)],
        )
        schema = FlowSchema(
            timestamp_column="time",
            label_column="label",
            feature_columns=("size", "rate"),
            timestamp_format="clock",
        )
        timeline = parse_flow_csv(path, schema)
        assert len(timeline) == 9
        seconds = timeline.seconds.tolist()
        assert seconds == [0, 1, 2, 3, 4, 5, 8, 12, 13]
        assert max(seconds) - min(seconds) + 1 == 14

    def test_missing_file(self, tmp_path, basic_schema):
        with pytest.raises(DataError, match="not found"):
            parse_flow_csv(tmp_path / "absent.csv", basic_schema)

    def test_missing_column(self, tmp_path, basic_schema):
        path = write_csv(tmp_path / "flows.csv", ["time", "size", "label"], [[1, 2, 0]])
        with pytest.raises(DataError, match="rate"):
            parse_flow_csv(path, basic_schema)

    def test_non_numeric_feature_names_row_and_column(self, tmp_path, basic_schema):
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [[100, 74, 1.5, 0], [101, "tcp", 2.0, 0]],
        )
        with pytest.raises(DataError, match="row 3.*'size'"):
            parse_flow_csv(path, basic_schema)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, basic_schema, cell):
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [[100, 74, 1.5, 0], [101, 208, 2.0, 0], [102, 66, cell, 0]],
        )
        with pytest.raises(DataError, match="row 4: non-finite .* in column 'rate'"):
            parse_flow_csv(path, basic_schema)

    def test_unparsable_timestamp_names_row(self, tmp_path, basic_schema):
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [["not-a-time", 74, 1.5, 0]],
        )
        with pytest.raises(DataError, match="row 2"):
            parse_flow_csv(path, basic_schema)

    def test_decreasing_timestamp_rejected(self, tmp_path, basic_schema):
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [[100, 74, 1.5, 0], [99, 74, 1.5, 0]],
        )
        with pytest.raises(DataError, match="row 3"):
            parse_flow_csv(path, basic_schema)

    @pytest.mark.parametrize("repeat", [100, 100.5])
    def test_repeated_second_names_row_and_second(self, tmp_path, basic_schema, repeat):
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "rate", "label"],
            [[99, 74, 1.5, 0], [100, 74, 1.5, 0], [repeat, 60, 1.0, 1]],
        )
        with pytest.raises(DataError, match="row 4: second 1 repeats"):
            parse_flow_csv(path, basic_schema)

    def test_attack_name_column(self, tmp_path):
        schema = FlowSchema(
            timestamp_column="time",
            label_column="label",
            feature_columns=("size",),
            attack_name_column="attack",
        )
        path = write_csv(
            tmp_path / "flows.csv",
            ["time", "size", "label", "attack"],
            [[0, 1, 0, "scan"], [1, 2, 1, "scan"]],
        )
        timeline = parse_flow_csv(path, schema)
        assert timeline_attacks(timeline) == ("", "scan")  # normals carry no attack tag
        assert timeline.attack_names == ("", "scan")


class TestFill:
    def test_no_gaps_is_identity(self):
        timeline = make_timeline(range(5))
        assert fill_missing_points(timeline, seed=1) is timeline

    def test_figure_shaped_gaps(self):
        timeline = make_timeline(
            [0, 1, 2, 3, 4, 5, 8, 12, 13], labels=[1, 0, 0, 0, 0, 0, 0, 0, 1]
        )
        filled = fill_missing_points(timeline, seed=9)
        assert len(filled) == 14
        assert filled.seconds.tolist() == list(range(14))
        inserted = ~np.isin(filled.seconds, timeline.seconds)
        assert filled.seconds[inserted].tolist() == [6, 7, 9, 10, 11]
        assert filled.labels[inserted].tolist() == [0] * 5

    def test_gap_count_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seconds = np.sort(rng.choice(60, size=rng.integers(2, 30), replace=False))
            timeline = make_timeline(seconds)
            filled = fill_missing_points(timeline, seed=11)
            missing = (seconds.max() - seconds.min() + 1) - len(seconds)
            assert len(filled) == len(timeline) + missing

    def test_idempotent(self):
        timeline = make_timeline([0, 4, 9], labels=[0, 1, 0])
        once = fill_missing_points(timeline, seed=5)
        twice = fill_missing_points(once, seed=5)
        assert twice is once

    def test_deterministic(self):
        timeline = make_timeline([0, 5, 11], labels=[0, 0, 1])
        assert same_timeline(
            fill_missing_points(timeline, seed=2), fill_missing_points(timeline, seed=2)
        )

    def test_fill_features_come_from_normal_pool(self):
        timeline = make_timeline([0, 3], labels=[0, 1])
        filled = fill_missing_points(timeline, seed=0)
        normal_features = {tuple(timeline.features[0])}
        inserted = ~np.isin(filled.seconds, timeline.seconds)
        assert inserted.sum() == 2
        for row in filled.features[inserted]:
            assert tuple(row) in normal_features

    def test_empty_normal_pool_rejected(self):
        timeline = make_timeline([0, 3], labels=[1, 1])
        with pytest.raises(DataError, match="no normal records"):
            fill_missing_points(timeline, seed=0)

    def test_originals_untouched(self):
        timeline = make_timeline([0, 4], labels=[0, 1])
        filled = fill_missing_points(timeline, seed=8)
        originals = [r for r in timeline_rows(filled) if r[0] in timeline.seconds]
        assert originals == timeline_rows(timeline)

    def test_fill_rows_must_carry_label_zero(self):
        # Inserted seconds are normal and unnamed, even between attack seconds.
        timeline = make_timeline([0, 1, 4, 5], labels=[0, 1, 1, 1], attacks=["a"] * 4)
        filled = fill_missing_points(timeline, seed=3)
        assert filled.labels.tolist() == [0, 1, 0, 0, 1, 1]
        assert timeline_attacks(filled) == ("", "a", "", "", "a", "a")

    def test_unsorted_seconds_rejected(self):
        with pytest.raises(DataError, match="sorted"):
            make_timeline([0, 2, 1])


class TestFillAgainstOracle:
    """The columnar fill against the per-record loop it replaced: the same
    donors, drawn in the same gap order."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_random_gap_timelines(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(15):
            seconds = np.sort(rng.choice(80, size=rng.integers(2, 40), replace=False))
            labels = (rng.random(seconds.size) < 0.3).astype(int).tolist()
            labels[0] = 0  # at least one donor
            timeline = make_timeline(
                seconds, labels=labels, width=3, attacks=["a"] * seconds.size, rng=rng
            )
            filled = fill_missing_points(timeline, seed=seed)
            assert timeline_rows(filled) == fill_missing_points_oracle(
                timeline_rows(timeline), seed
            )

    def test_repeated_seconds_keep_their_order(self):
        # A timeline holds one row per second, so a window of W rows spans
        # W seconds: repeated seconds never reach the fill.
        with pytest.raises(DataError, match="one row per second"):
            make_timeline([0, 0, 3, 3, 3, 6], labels=[0, 1, 0, 0, 1, 0])


class TestSelect:
    @pytest.mark.parametrize("count", [37, 9, 23])  # per-attack subset sizes
    def test_projection_width(self, count):
        timeline = make_timeline(range(4), width=60)
        subset = timeline.feature_names[:count]
        projected = select_features(timeline, subset)
        assert projected.feature_names == subset
        assert projected.features.shape == (4, count)

    def test_identity_projection(self):
        timeline = make_timeline(range(3), width=4)
        assert same_timeline(select_features(timeline, timeline.feature_names), timeline)

    def test_unknown_name(self):
        timeline = make_timeline(range(3), width=2)
        with pytest.raises(DataError, match="nope"):
            select_features(timeline, ("f0", "nope"))

    def test_order_follows_request(self):
        timeline = make_timeline(range(3), width=3)
        projected = select_features(timeline, ("f2", "f0"))
        assert np.array_equal(projected.features, timeline.features[:, [2, 0]])

    def test_parse_then_select_commutes(self, tmp_path):
        rows = [[i, 1.0 * i, 2.0 * i, 3.0 * i, i % 2] for i in range(6)]
        path = write_csv(tmp_path / "flows.csv", ["time", "a", "b", "c", "label"], rows)
        full_schema = FlowSchema("time", "label", ("a", "b", "c"))
        narrow_schema = FlowSchema("time", "label", ("c", "a"))
        via_select = select_features(parse_flow_csv(path, full_schema), ("c", "a"))
        direct = parse_flow_csv(path, narrow_schema)
        assert same_timeline(via_select, direct)

    def test_nonconstant_filter(self):
        timeline = make_timeline(range(5), width=3)
        timeline.features[:, 1] = 5.0
        assert nonconstant_features(timeline) == ("f0", "f2")


# Timelines the constructor refuses: (columns beside seconds 0 and 1, message).
BAD_TIMELINES = {
    "labels of another length": ({"labels": [0, 1, 1]}, "one entry per second"),
    "codes of another length": ({"attack_codes": [0]}, "one entry per second"),
    "code outside the names": (
        {"labels": [1, 1], "attack_codes": [1, 2], "attack_names": ("", "a")},
        r"attack codes must lie in \[0, 2\)",
    ),
    "negative code": (
        {"labels": [1, 1], "attack_codes": [-1, 1], "attack_names": ("", "a")},
        "attack codes must lie",
    ),
    "names not sorted": (
        {"labels": [1, 1], "attack_codes": [1, 2], "attack_names": ("", "b", "a")},
        "sorted and unique",
    ),
    "names repeated": (
        {"labels": [1, 1], "attack_codes": [1, 2], "attack_names": ("", "a", "a")},
        "sorted and unique",
    ),
    "no empty name first": (
        {"labels": [1, 1], "attack_codes": [0, 1], "attack_names": ("a", "b")},
        "sorted and unique",
    ),
    "named label-0 second": (
        {"labels": [0, 1], "attack_codes": [1, 1], "attack_names": ("", "a")},
        "label-0 second must have attack code 0",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TIMELINES))
def test_timeline_constructor_refuses(case):
    columns, message = BAD_TIMELINES[case]
    columns = {"labels": [0, 0], **columns}
    with pytest.raises(DataError, match=message):
        PacketTimeline(seconds=[0, 1], features=np.zeros((2, 1)), feature_names=("f0",), **columns)
