"""The window-free dataset store: CLI-built datasets load back with the same
bits as the schema-1 CSV round trip, malformed stores are data errors that
name their file, and artifacts are replaced atomically."""

import csv
import json
import shutil

import numpy as np
import pytest

import tspec.cli as cli
from tspec import AttackSegment, DataError, SyntheticScenario, load_dataset
from tspec.errors import write_json
from tests.conftest import same_bits, scenario_to_dict
from tests.oracles import load_dataset_v1, save_dataset_v1

WINDOW = 6


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    """A synthetic capture, plus a copy with every third second removed."""
    work = tmp_path_factory.mktemp("store")
    scenario = SyntheticScenario(
        duration=240,
        feature_count=3,
        segments=(
            AttackSegment("dos", 20, 40, "burst", offset=3.0),
            AttackSegment("scan", 90, 60, "periodic", period=4, offset=3.0),
            AttackSegment("creep", 170, 50, "ramp", offset=3.0),
        ),
    )
    (work / "scenario.json").write_text(json.dumps(scenario_to_dict(scenario)))
    assert cli.main(["synth", "--seed", "5", "--scenario", str(work / "scenario.json"),
                     "--out", str(work)]) == 0
    with (work / "synthetic.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    kept = [rows[0]] + [row for i, row in enumerate(rows[1:]) if i % 3 != 1]
    with (work / "gappy.csv").open("w", newline="") as handle:
        csv.writer(handle).writerows(kept)
    return work


def build(raw, out, method="coap", stride=1, csv_name="synthetic.csv", config=None):
    args = ["build-dataset", "--seed", "9", "--input", str(raw / csv_name),
            "--schema", str(raw / "schema.json"), "--method", method,
            "--window", str(WINDOW), "--stride", str(stride), "--out", str(out)]
    if config is not None:
        (out.parent / "config.json").write_text(json.dumps(config))
        args += ["--config", str(out.parent / "config.json")]
    return cli.main(args)


class TestAgainstCsvStore:
    @pytest.mark.parametrize(
        "method, stride, csv_name, config",
        [
            ("baseline", 1, "synthetic.csv", None),
            ("coap", 2, "synthetic.csv", None),
            ("sspe", 3, "synthetic.csv", None),
            ("sspe", 1, "gappy.csv", None),
            ("coap", 2, "gappy.csv", None),
            ("sspe", 1, "synthetic.csv", {"majority_ratio": 1.0}),
        ],
    )
    def test_loads_the_v1_round_trip_bits(
        self, raw, tmp_path, monkeypatch, method, stride, csv_name, config
    ):
        real_save = cli.save_dataset

        def save_both(ds, out_dir, *args, **kwargs):
            save_dataset_v1(ds, tmp_path / "v1")
            return real_save(ds, out_dir, *args, **kwargs)

        monkeypatch.setattr(cli, "save_dataset", save_both)
        assert build(raw, tmp_path / "ds", method, stride, csv_name, config) == 0
        loaded, sidecar = load_dataset(tmp_path / "ds")
        features, spectrum, binary, tags = load_dataset_v1(tmp_path / "v1")
        assert same_bits(loaded.features, features)
        assert same_bits(loaded.spectrum_labels, spectrum)
        assert same_bits(loaded.binary_labels, binary)
        assert loaded.window_tags == tags
        assert sidecar["rows"] == len(features)
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
            "dataset.json", "dataset.npz",
        ]

        steps = np.diff(loaded.window_starts)
        if config:  # the thinned majority leaves holes between starts
            assert steps.min() == stride and steps.max() > stride
        else:
            assert np.all(steps == stride)
        if csv_name == "gappy.csv":  # the fill closed the gaps
            assert loaded.second_features.shape[0] == 240


@pytest.fixture(scope="module")
def built(raw, tmp_path_factory):
    out = tmp_path_factory.mktemp("built") / "ds"
    assert build(raw, out, "sspe") == 0
    return out


def rewrite_npz(path, drop=(), **changes):
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files if name not in drop}
    arrays.update(changes)
    np.savez(path, **arrays)


def edit_sidecar(path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def _v1(d):
    for name in ("dataset.npz", "dataset.json"):
        (d / name).unlink()
    ds, _ = load_dataset(d.parent / "orig")
    save_dataset_v1(ds, d)


def _npy(path):
    with path.open("wb") as handle:
        np.save(handle, np.zeros(3))


def _starts(d, shift):
    with np.load(d / "dataset.npz") as npz:
        starts = npz["window_starts"].copy()
    starts[-1] += shift
    rewrite_npz(d / "dataset.npz", window_starts=starts)


CORRUPTIONS = {
    "v1 directory": ("dataset.json", _v1),
    "missing npz": ("dataset.npz", lambda d: (d / "dataset.npz").unlink()),
    "not a zip": ("dataset.npz", lambda d: (d / "dataset.npz").write_bytes(b"not a zip")),
    "empty npz": ("dataset.npz", lambda d: (d / "dataset.npz").write_bytes(b"")),
    "truncated npz": (
        "dataset.npz",
        lambda d: (d / "dataset.npz").write_bytes((d / "dataset.npz").read_bytes()[:2000]),
    ),
    "plain npy": ("dataset.npz", lambda d: _npy(d / "dataset.npz")),
    "missing member": ("dataset.npz", lambda d: rewrite_npz(d / "dataset.npz", drop=("binary_labels",))),
    "pickled member": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", binary_labels=np.array([None, 1], dtype=object)),
    ),
    "float32 features": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", second_features=np.zeros((240, 3), np.float32)),
    ),
    "start past the end": ("dataset.npz", lambda d: _starts(d, 1000)),
    "negative start": ("dataset.npz", lambda d: _starts(d, -1000)),
    "width disagrees": ("dataset.npz", lambda d: edit_sidecar(d / "dataset.json", feature_width=17)),
    "fewer feature columns": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", second_features=np.zeros((240, 2))),
    ),
    "short labels": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", spectrum_labels=np.zeros(3)),
    ),
    "sidecar without zscore": ("dataset.json", lambda d: edit_sidecar(d / "dataset.json", zscore=None)),
}


class TestMalformedStore:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_data_error_names_the_file(self, built, tmp_path, capsys, case):
        named, corrupt = CORRUPTIONS[case]
        shutil.copytree(built, tmp_path / "orig")
        shutil.copytree(built, tmp_path / "ds")
        corrupt(tmp_path / "ds")
        path = str(tmp_path / "ds" / named)
        with pytest.raises(DataError) as caught:
            load_dataset(tmp_path / "ds")
        assert path in str(caught.value)
        rc = cli.main(["train", "--dataset", str(tmp_path / "ds"), "--task", "detect",
                       "--families", "glm_binomial"])
        assert rc == 2
        assert path in capsys.readouterr().err


class TestAtomicWrites:
    def test_failed_json_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "threshold.json"
        write_json(path, {"tau": 1.5})
        before = path.read_bytes()
        with pytest.raises(TypeError):  # fails after "tau" is written
            write_json(path, {"tau": 2.5, "z": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["threshold.json"]

    def test_failed_array_write_keeps_the_previous_store(self, raw, tmp_path, monkeypatch, capsys):
        assert build(raw, tmp_path / "ds") == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "ds").iterdir()}

        def half_write(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", half_write)
        assert build(raw, tmp_path / "ds", method="sspe") == 3
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (tmp_path / "ds").iterdir()} == before
