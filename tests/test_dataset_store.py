"""The window-free dataset store: CLI-built datasets load back with the same
bits as the schema-1 CSV round trip, the sidecar holds no per-row or
per-column list, malformed stores are data errors that name their file, and
artifacts are replaced atomically."""

import csv
import hashlib
import json
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tspec.cli as cli
from tspec import (AttackSegment, DataError, SyntheticScenario, assemble_dataset,
                   fill_missing_points, load_dataset, save_dataset, zscore_apply, zscore_fit)
from tspec.errors import write_json
from tspec.spectrum import LABEL_METHODS
from tests.conftest import dataset_tags, make_timeline, same_bits, scenario_to_dict
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


def build(raw, out, method="coap", window=WINDOW, csv_name="synthetic.csv", config=None):
    args = ["build-dataset", "--seed", "9", "--input", str(raw / csv_name),
            "--schema", str(raw / "schema.json"), "--method", method,
            "--window", str(window), "--out", str(out)]
    if config is not None:
        (out.parent / "config.json").write_text(json.dumps(config))
        args += ["--config", str(out.parent / "config.json")]
    return cli.main(args)


class TestAgainstCsvStore:
    @pytest.mark.parametrize(
        "method, window, csv_name, config",
        [
            ("baseline", 1, "synthetic.csv", None),
            ("coap", 2, "synthetic.csv", None),
            ("sspe", 3, "synthetic.csv", None),
            ("sspe", 1, "gappy.csv", None),
            ("coap", 2, "gappy.csv", None),
            ("sspe", 1, "synthetic.csv", {"features": ["f0", "f2"]}),
        ],
    )
    def test_loads_the_v1_round_trip_bits(
        self, raw, tmp_path, monkeypatch, method, window, csv_name, config
    ):
        real_save = cli.save_dataset

        def save_both(timeline, out_dir, zscore, test, **settings):
            # The schema-1 store held every row z-scored, in row order.
            ds = assemble_dataset(timeline, settings["window"], settings["method"],
                                  settings["d_model"])
            save_dataset_v1(replace(ds, features=zscore_apply(ds.features, zscore)),
                            tmp_path / "v1")
            return real_save(timeline, out_dir, zscore, test, **settings)

        monkeypatch.setattr(cli, "save_dataset", save_both)
        assert build(raw, tmp_path / "ds", method, window, csv_name, config) == 0
        splits = load_dataset(tmp_path / "ds")
        sidecar = json.loads((tmp_path / "ds" / "dataset.json").read_text())
        with np.load(tmp_path / "ds" / "dataset.npz") as npz:
            test = npz["test"]
        features, spectrum, binary, tags = load_dataset_v1(tmp_path / "v1")
        for split, rows in zip(splits, (~test, test)):
            assert same_bits(split.features, features[rows])
            assert same_bits(split.spectrum_labels, spectrum[rows])
            assert same_bits(split.binary_labels, binary[rows])
            assert dataset_tags(split) == tuple(t for t, keep in zip(tags, rows) if keep)
        # A window a second, over 240 seconds: the fill closed the gaps.
        assert sidecar["rows"] == len(features) == 240 - window + 1
        assert sidecar["feature_width"] == window * (2 if config else 3)
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
            "dataset.json", "dataset.npz",
        ]


class TestDerivedAtLoad:
    """``load_dataset`` derives every window's spectrum label, binary label
    and tag, and the attack-bit fraction, from the stored per-second labels
    and codes: bit for bit those ``assemble_dataset`` gave the rows."""

    @given(
        # (seconds after the previous row, label, attack name) per row: a
        # step above 1 leaves a gap for the fill.
        cells=st.lists(st.tuples(st.integers(1, 3), st.booleans(), st.sampled_from("abc")),
                       min_size=2, max_size=60),
        window=st.integers(1, 9),
        method=st.sampled_from(LABEL_METHODS),
        d_model=st.sampled_from([2, 4, 8, 30, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_load_gives_the_assembled_labels(self, tmp_path_factory, cells, window, method,
                                             d_model, seed):
        labels = [0] + [int(bit) for _, bit, _ in cells[1:]]  # a normal row to fill from
        seconds = np.cumsum([0] + [step for step, _, _ in cells[1:]])
        timeline = fill_missing_points(
            make_timeline(seconds, labels=labels, width=2, attacks=[name for *_, name in cells],
                          rng=np.random.default_rng(seed)),
            seed,
        )
        assume(window <= len(timeline))
        ds = assemble_dataset(timeline, window, method, d_model)
        test = np.random.default_rng(seed).random(len(ds)) < 0.3
        out = tmp_path_factory.mktemp("derived")
        save_dataset(timeline, out, zscore_fit(ds.features), test, window=window, method=method,
                     d_model=d_model)
        splits = load_dataset(out)
        tags = dataset_tags(ds)
        for split, rows in zip(splits, (~test, test)):
            assert list(map(float.hex, split.spectrum_labels.tolist())) == list(
                map(float.hex, ds.spectrum_labels[rows].tolist()))
            assert same_bits(split.binary_labels, ds.binary_labels[rows])
            assert dataset_tags(split) == tuple(t for t, keep in zip(tags, rows) if keep)
            assert (split.provenance["attack_bit_fraction"].hex()
                    == ds.provenance["attack_bit_fraction"].hex())


@pytest.fixture(scope="module")
def built(raw, tmp_path_factory):
    out = tmp_path_factory.mktemp("built") / "ds"
    assert build(raw, out, "sspe") == 0
    return out


def test_sidecar_holds_only_scalars_and_names(built):
    sidecar = json.loads((built / "dataset.json").read_text())
    assert sidecar["schema_version"] == 6
    assert sorted(sidecar) == [
        "attack_names", "feature_width", "npz_sha256", "provenance", "rows", "schema_version",
        "seeds", "split",
    ]
    assert sorted(sidecar["provenance"]) == ["d_model", "feature_names", "method", "window"]
    assert list(sidecar["split"]) == ["seed"]
    lists = [v for part in (sidecar, *sidecar.values()) if isinstance(part, dict)
             for v in part.values() if isinstance(v, list)]
    assert lists == [sidecar["attack_names"], sidecar["provenance"]["feature_names"]]
    assert all(isinstance(name, str) for names in lists for name in names)


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
    train, _ = load_dataset(d.parent / "orig")
    save_dataset_v1(train, d)


def _npy(path):
    with path.open("wb") as handle:
        np.save(handle, np.zeros(3))


def _edit(d, name, change):
    """Replace the ``dataset.npz`` member ``name`` by ``change`` of a copy."""
    with np.load(d / "dataset.npz") as npz:
        array = npz[name].copy()
    rewrite_npz(d / "dataset.npz", **{name: change(array)})


def _edit_seconds(d, change):
    """Apply ``change`` to every per-second member of ``dataset.npz``."""
    for name in ("second_features", "labels", "attack_codes"):
        _edit(d, name, change)


def _edit_provenance(d, **changes):
    data = json.loads((d / "dataset.json").read_text())
    data["provenance"].update(changes)
    edit_sidecar(d / "dataset.json", provenance=data["provenance"])


def _setting(index, value):
    def change(array):
        array[index] = value
        return array

    return change


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
    "missing member": ("dataset.npz", lambda d: rewrite_npz(d / "dataset.npz", drop=("labels",))),
    "pickled member": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", labels=np.array([None, 1], dtype=object)),
    ),
    "float32 features": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", second_features=np.zeros((240, 3), np.float32)),
    ),
    # Row i starts at second i: one second fewer puts the last start past the end.
    "start past the end": ("dataset.npz", lambda d: _edit_seconds(d, lambda s: s[:-1])),
    "a second more than the rows": (
        "dataset.npz",
        lambda d: _edit_seconds(d, lambda s: np.concatenate([s, s[-1:]])),
    ),
    # The per-second labels are binary, stored as bools.
    "binary labels of ints": ("dataset.npz", lambda d: _edit(d, "labels", lambda b: b.astype(np.int64))),
    "width disagrees": ("dataset.npz", lambda d: edit_sidecar(d / "dataset.json", feature_width=17)),
    "fewer feature columns": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", second_features=np.zeros((240, 2))),
    ),
    "short labels": ("dataset.npz", lambda d: rewrite_npz(d / "dataset.npz", labels=np.zeros(3, bool))),
    "schema-2 sidecar": (
        "dataset.json",
        lambda d: edit_sidecar(d / "dataset.json", schema_version=2),
    ),
    # Schema 3 stored each row's window start.
    "schema-3 store": (
        "dataset.json",
        lambda d: (edit_sidecar(d / "dataset.json", schema_version=3),
                   rewrite_npz(d / "dataset.npz", window_starts=np.arange(235))),
    ),
    # Schema 5 recorded the windows' stride and the split's settings.
    "schema-5 store": (
        "dataset.json",
        lambda d: (edit_sidecar(d / "dataset.json", schema_version=5,
                                split={"test_fraction": 0.3, "stratify": True, "seed": 1}),
                   _edit_provenance(d, stride=1)),
    ),
    # Schema 4 stored every window's spectrum label, binary label and tag.
    "schema-4 store": (
        "dataset.json",
        lambda d: (edit_sidecar(d / "dataset.json", schema_version=4),
                   rewrite_npz(d / "dataset.npz", drop=("labels", "attack_codes"),
                               spectrum_labels=np.zeros(235), binary_labels=np.zeros(235, bool),
                               tag_codes=np.zeros(235, np.int32))),
    ),
    "missing test mask": ("dataset.npz", lambda d: rewrite_npz(d / "dataset.npz", drop=("test",))),
    "test mask too long": ("dataset.npz", lambda d: _edit(d, "test", lambda t: np.append(t, True))),
    "test mask too short": ("dataset.npz", lambda d: _edit(d, "test", lambda t: t[:-1])),
    "test mask of ints": ("dataset.npz", lambda d: _edit(d, "test", lambda t: t.astype(np.int64))),
    "test mask of floats": ("dataset.npz", lambda d: _edit(d, "test", lambda t: t.astype(float))),
    # The per-second attack codes give the window tags.
    "tag code out of range": ("dataset.npz", lambda d: _edit(d, "attack_codes", lambda c: c + 1)),
    # Codes are unsigned, so a negative one comes in a signed dtype.
    "negative tag code": (
        "dataset.npz",
        lambda d: _edit(d, "attack_codes", lambda c: _setting(0, -1)(c.astype(np.int8))),
    ),
    "tag codes of int64": (
        "dataset.npz",
        lambda d: _edit(d, "attack_codes", lambda c: c.astype(np.int64)),
    ),
    "a normal second named": ("dataset.npz", lambda d: _edit(d, "attack_codes", _setting(0, 1))),
    "no unnamed attack name": (
        "dataset.json",
        lambda d: edit_sidecar(d / "dataset.json",
                               attack_names=json.loads((d / "dataset.json").read_text())["attack_names"][1:]),
    ),
    "z-score means of another width": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", zscore_means=np.zeros(17)),
    ),
    "npz without z-score stds": (
        "dataset.npz",
        lambda d: rewrite_npz(d / "dataset.npz", drop=("zscore_stds",)),
    ),
    "negative z-score std": ("dataset.npz", lambda d: _edit(d, "zscore_stds", _setting(0, -1.0))),
    "infinite z-score std": ("dataset.npz", lambda d: _edit(d, "zscore_stds", _setting(1, np.inf))),
    "z-score mean NaN": ("dataset.npz", lambda d: _edit(d, "zscore_means", _setting(2, np.nan))),
    # Rows z-scored by these overflow float64.
    "z-score stds tiny": (
        "dataset.npz",
        lambda d: _edit(d, "zscore_stds", _setting(slice(None), 1e-320)),
    ),
}


def record_digest(d):
    """Record the SHA-256 of ``d``'s ``dataset.npz`` in its sidecar, as if
    the two were written together."""
    edit_sidecar(d / "dataset.json", npz_sha256=hashlib.sha256((d / "dataset.npz").read_bytes()).hexdigest())


class TestMalformedStore:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_data_error_names_the_file(self, built, tmp_path, capsys, case):
        named, corrupt = CORRUPTIONS[case]
        shutil.copytree(built, tmp_path / "orig")
        shutil.copytree(built, tmp_path / "ds")
        corrupt(tmp_path / "ds")
        if all((tmp_path / "ds" / name).exists() for name in ("dataset.npz", "dataset.json")):
            record_digest(tmp_path / "ds")  # so each case meets its own check, not the pair check
        path = str(tmp_path / "ds" / named)
        with pytest.raises(DataError) as caught:
            load_dataset(tmp_path / "ds")
        assert path in str(caught.value)
        rc = cli.main(["train", "--dataset", str(tmp_path / "ds"), "--task", "detect",
                       "--families", "glm_binomial"])
        assert rc == 2
        assert path in capsys.readouterr().err


    def test_a_schema_4_store_asks_for_a_rebuild(self, built, tmp_path, capsys):
        shutil.copytree(built, tmp_path / "ds")
        CORRUPTIONS["schema-4 store"][1](tmp_path / "ds")
        assert cli.main(["train", "--dataset", str(tmp_path / "ds"), "--families", "glm_binomial"]) == 2
        assert "schema version 4 (expected 6); rebuild the dataset" in capsys.readouterr().err


class TestPairCheck:
    """``dataset.json`` records the SHA-256 of the ``dataset.npz`` written
    with it, so a store whose two files come from different builds (as
    when a run stops between the two writes) is refused, naming both."""

    def test_arrays_of_another_build_exit_2(self, raw, tmp_path, capsys):
        for seed in ("0", "1"):
            assert cli.main(["build-dataset", "--seed", seed, "--input", str(raw / "synthetic.csv"),
                             "--schema", str(raw / "schema.json"), "--window", str(WINDOW),
                             "--out", str(tmp_path / seed)]) == 0
        shutil.copy(tmp_path / "1" / "dataset.npz", tmp_path / "0" / "dataset.npz")
        capsys.readouterr()
        assert cli.main(["train", "--dataset", str(tmp_path / "0"), "--families", "glm_binomial"]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "0" / "dataset.npz") in err and str(tmp_path / "0" / "dataset.json") in err
        assert not (tmp_path / "0" / "models").exists()

    def test_the_sidecar_is_written_last_with_the_digest(self, built):
        sidecar = json.loads((built / "dataset.json").read_text())
        assert sidecar["npz_sha256"] == hashlib.sha256((built / "dataset.npz").read_bytes()).hexdigest()
        assert (built / "dataset.json").stat().st_mtime_ns >= (built / "dataset.npz").stat().st_mtime_ns


class TestAtomicWrites:
    def test_failed_json_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "values.json"
        write_json(path, {"tau": 1.5})
        before = path.read_bytes()
        with pytest.raises(TypeError):  # fails after "tau" is written
            write_json(path, {"tau": 2.5, "z": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["values.json"]

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


def traced_peak(call):
    """The result of ``call()`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peaks as multiples of the full (3,971 x 180) z-scored row matrix,
    5.5 MiB; the per-second features are 0.03 of it.  Each row matrix is
    made once: ``load_dataset`` once built every row, then copied each split
    out of them (2.18 rows), and ``build-dataset`` z-scored every row to
    compare them with the rows the store rebuilt (3.20 rows)."""

    SECONDS, FEATURES, WINDOW = 4000, 6, 30
    ROW_BYTES = (SECONDS - WINDOW + 1) * WINDOW * FEATURES * 8

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        """The scenario and a dataset built from it.  The first build in a
        process also imports modules (numpy.ma, 1.8 MB), so the traced build
        is a later one."""
        work = tmp_path_factory.mktemp("memory")
        scenario = SyntheticScenario(
            duration=self.SECONDS,
            feature_count=self.FEATURES,
            segments=(
                AttackSegment("dos", 100, 300, "burst"),
                AttackSegment("scan", 1000, 400, "periodic", period=3),
                AttackSegment("creep", 2000, 500, "ramp"),
            ),
        )
        (work / "scenario.json").write_text(json.dumps(scenario_to_dict(scenario)))
        assert self.build(work, work / "ds") == 0
        return work

    def build(self, work, out):
        return cli.main(["build-dataset", "--scenario", str(work / "scenario.json"),
                         "--method", "baseline", "--window", str(self.WINDOW), "--out", str(out)])

    def test_build_makes_the_rows_once(self, store, tmp_path):
        # 1.28 rows, reached in assemble_dataset; the z-score fit, which
        # sums the training rows a chunk at a time, reaches 1.22.  The fit
        # once copied the training rows and std made a temporary of that
        # size: 2.50 rows.
        rc, peak = traced_peak(lambda: self.build(store, tmp_path / "ds"))
        assert rc == 0
        assert peak < 1.5 * self.ROW_BYTES

    def test_load_makes_each_split_once(self, store):
        # The training split's windows and their z-scored copy, then the
        # test split's beside it: 1.55 rows.
        (train, test), peak = traced_peak(lambda: load_dataset(store / "ds"))
        assert peak < 1.85 * self.ROW_BYTES
        assert train.features.nbytes + test.features.nbytes == self.ROW_BYTES
