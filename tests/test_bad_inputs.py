"""Bad inputs through ``tspec.cli.main``: config files, dataset sidecars,
registries and model files that are well-formed JSON but hold wrong keys,
types or values end in exit 1 (config) or 2 (data), with the file named,
and never in exit 3."""

import io
import json
import os
import shutil
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tspec import AttackSegment, FlowSchema, SyntheticScenario
from tspec import cli, ingest
from tspec.cli import KEYS, main
from tspec.spectrum import MAX_D_MODEL
from tests.conftest import held_lock, identical_timelines, scenario_to_dict
from tests.test_cli import read_tree


def run(argv) -> tuple[int, str]:
    """Exit code and stderr of one CLI call."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A small synth -> build (baseline, sspe) -> train workspace, with a
    gbm detect model besides the GLMs on sspe."""
    work = tmp_path_factory.mktemp("bad_inputs")
    scenario = SyntheticScenario(
        duration=260,
        feature_count=2,
        segments=(
            AttackSegment("dos", 20, 40, "burst", offset=3.0),
            AttackSegment("scan", 90, 50, "periodic", period=3, offset=3.0),
            AttackSegment("dos", 170, 40, "burst", offset=3.0),
        ),
    )
    (work / "scenario.json").write_text(json.dumps(scenario_to_dict(scenario)))
    config = {"window": 5, "d_model": 4, "identify_bins": 10, "min_segment_windows": 2}
    (work / "config.json").write_text(json.dumps(config))
    cfg = work / "config.json"
    assert run(["synth", "--config", cfg, "--scenario", work / "scenario.json",
                "--out", work / "raw"])[0] == 0
    for method in ("baseline", "sspe"):
        assert run(["build-dataset", "--config", cfg, "--input", work / "raw" / "synthetic.csv",
                    "--schema", work / "raw" / "schema.json", "--method", method,
                    "--out", work / method])[0] == 0
        assert run(["train", "--config", cfg, "--dataset", work / method, "--task", "detect",
                    "--families", "glm_binomial"])[0] == 0
    assert run(["train", "--config", cfg, "--dataset", work / "sspe", "--task", "detect",
                "--families", "gbm"])[0] == 0
    assert run(["train", "--config", cfg, "--dataset", work / "sspe", "--task", "identify",
                "--families", "glm_gaussian"])[0] == 0
    assert run(["identify", "--config", cfg, "--dataset", work / "sspe",
                "--registry", work / "registry.json", "--make-registry", "train",
                "--out", work / "ident"])[0] == 0
    return work


def copy_dataset(ws, dest: Path, method="sspe") -> Path:
    shutil.copytree(ws / method, dest / method)
    return dest / method


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def sweep_args(tmp, dataset, **extra):
    cfg = {"datasets": {"sspe": str(dataset)}, "families": ["glm_binomial"],
           "identify_families": ["glm_gaussian"], "ratios": [0.0], **extra}
    (tmp / "sweep.json").write_text(json.dumps(cfg))
    return ["sweep", "--config", tmp / "sweep.json", "--out", tmp / "rep"]


def identify_args(ws, dataset, tmp, registry=None, model=None):
    args = ["identify", "--config", ws / "config.json", "--dataset", dataset,
            "--registry", registry or ws / "registry.json", "--out", tmp / "ident"]
    return args + (["--model", model] if model else [])


def base_configs(ws, tmp: Path) -> dict[str, dict]:
    """A config per command that runs to exit 0 as given."""
    return {
        "build-dataset": {"input": str(ws / "raw" / "synthetic.csv"),
                          "schema": str(ws / "raw" / "schema.json"), "window": 5,
                          "d_model": 4, "method": "sspe", "out": str(tmp / "ds")},
        "train": {"dataset": str(tmp / "sspe"), "task": "detect",
                  "families": ["glm_binomial"], "out": str(tmp / "m")},
        "sweep": {"datasets": {"sspe": str(tmp / "sspe"), "baseline": str(tmp / "baseline")},
                  "families": ["glm_binomial"], "identify_families": ["glm_gaussian"],
                  "ratios": [0.0, 0.5], "identify_bins": 10, "min_segment_windows": 2,
                  "out": str(tmp / "rep")},
        "identify": {"dataset": str(tmp / "sspe"), "registry": str(tmp / "reg.json"),
                     "make_registry": "train", "identify_bins": 10,
                     "min_segment_windows": 2, "out": str(tmp / "id")},
    }


class TestRegressions:
    def test_registry_entry_missing_keys(self, ws, tmp_path):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"version": 2, "signatures": [{}]}))
        rc, err = run(identify_args(ws, ws / "sspe", tmp_path, registry=registry))
        assert rc == 2
        assert str(registry) in err and "'attack_name'" in err

    def test_version_1_registry_names_the_file(self, ws, tmp_path):
        # Version 1 repeated the bin edges, method and d_model in every signature.
        registry = tmp_path / "registry.json"
        shutil.copy(ws / "registry.json", registry)

        def to_version_1(d):
            header = {key: d.pop(key) for key in ("bin_edges", "method", "d_model")}
            d["version"] = 1
            for signature in d["signatures"]:
                signature.update(header)

        edit_json(registry, to_version_1)
        rc, err = run(identify_args(ws, ws / "sspe", tmp_path, registry=registry))
        assert rc == 2
        assert f"{registry}: unsupported registry version 1" in err

    def test_provenance_without_method(self, ws, tmp_path):
        dataset = copy_dataset(ws, tmp_path)
        edit_json(dataset / "dataset.json", lambda d: d["provenance"].pop("method"))
        rc, err = run(["train", "--dataset", dataset, "--task", "detect",
                       "--families", "glm_binomial"])
        assert rc == 2
        assert str(dataset / "dataset.json") in err and "'method'" in err

    def test_sweep_dataset_path_not_a_string(self, ws, tmp_path):
        args = sweep_args(tmp_path, ws / "sspe")
        edit_json(tmp_path / "sweep.json", lambda d: d.update(datasets={"sspe": 5}))
        rc, err = run(args)
        assert rc == 1
        assert str(tmp_path / "sweep.json") in err and "'datasets'" in err

    def test_sweep_families_not_a_list(self, ws, tmp_path):
        rc, err = run(sweep_args(tmp_path, ws / "sspe", families=5))
        assert rc == 1
        assert str(tmp_path / "sweep.json") in err and "'families'" in err

    def test_model_weights_do_not_match_features(self, ws, tmp_path):
        dataset = copy_dataset(ws, tmp_path)
        model = dataset / "models" / "identify" / "glm_gaussian.json"
        edit_json(model, lambda d: d["parameters"].update(weights=[0.5]))
        rc, err = run(identify_args(ws, dataset, tmp_path, model=model))
        assert rc == 2
        assert str(model) in err and "1 weights for 10 features" in err

    def test_tree_model_child_in_the_next_tree(self, ws, tmp_path):
        # In range and after its parent, so each tree alone looks whole: a
        # walk would end in the next tree and predict one of its leaves.
        dataset = copy_dataset(ws, tmp_path)
        model = dataset / "models" / "detect" / "gbm.json"

        def edit(d):
            table = d["parameters"]
            node = next(i for i, f in enumerate(table["feature"]) if f >= 0)
            assert node < table["roots"][1]
            table["right"][node] = table["roots"][1]

        edit_json(model, edit)
        rc, err = run(sweep_args(tmp_path, dataset, families=["gbm"]))
        assert rc == 2, err
        assert str(model) in err and "out of range of its tree" in err

    @pytest.mark.parametrize("case", ["detect model to identify", "regression model to sweep",
                                      "narrower model to identify"])
    def test_model_for_another_task_or_width(self, ws, tmp_path, case):
        # Each once ran to exit 0, or failed naming no file.
        dataset = copy_dataset(ws, tmp_path)
        models = dataset / "models"
        registry = tmp_path / "registry.json"
        if case == "detect model to identify":
            model = models / "detect" / "glm_binomial.json"
            args = identify_args(ws, dataset, tmp_path, registry, model)
            args += ["--make-registry", "train"]
            want = "a classify model"
        elif case == "regression model to sweep":
            model = models / "detect" / "glm_gaussian.json"
            shutil.copy(models / "identify" / "glm_gaussian.json", model)
            args, want = sweep_args(tmp_path, dataset, families=["glm_gaussian"]), "a regress model"
        else:
            model = models / "identify" / "glm_gaussian.json"
            edit_json(model, lambda d: (d.update(feature_count=4),
                                        d["parameters"].update(weights=[0.5] * 4)))
            args, want = identify_args(ws, dataset, tmp_path, model=model), "of 4 features"
        rc, err = run(args)
        assert rc == 2, err
        assert str(model) in err and want in err and "10 features" in err
        assert not registry.exists()

    def test_detect_model_from_gradient_descent_fit(self, ws, tmp_path):
        # A glm_binomial file written before the Newton solver carries the
        # gradient-descent hyperparameter learning_rate; a version-4 spec
        # holds no hyperparameters at all.
        dataset = copy_dataset(ws, tmp_path)
        model = dataset / "models" / "detect" / "glm_binomial.json"
        edit_json(model, lambda d: d["spec"].update(hyperparameters={"learning_rate": 0.1}))
        rc, err = run(sweep_args(tmp_path, dataset))
        assert rc == 2
        assert str(model) in err and "unknown spec keys ['hyperparameters']" in err

    def test_detect_model_with_out_of_range_hyperparameter(self, ws, tmp_path):
        # A negative l2 once fit all-zero weights when the sweep refit it.
        dataset = copy_dataset(ws, tmp_path)
        model = dataset / "models" / "detect" / "glm_binomial.json"
        edit_json(model, lambda d: d["spec"].update(hyperparameters={"l2": -1.0}))
        rc, err = run(sweep_args(tmp_path, dataset))
        assert rc == 2
        assert str(model) in err and "unknown spec keys ['hyperparameters']" in err

    @pytest.mark.parametrize("d_model", [MAX_D_MODEL + 2, 10**7])
    def test_d_model_over_the_bound(self, ws, tmp_path, monkeypatch, d_model):
        # Refused before the input is read, so before any encoding is built:
        # 10**7 once asked for about 5 GB.
        def read_input(cfg):
            raise AssertionError("input read before d_model was checked")

        monkeypatch.setattr(cli, "_load_timeline", read_input)
        rc, err = run(["build-dataset", "--scenario", ws / "scenario.json", "--method", "sspe",
                       "--window", 5, "--d-model", d_model, "--out", tmp_path / "ds"])
        assert rc == 1
        assert f"d_model must be an even integer in [2, {MAX_D_MODEL}], got {d_model}" in err
        assert not (tmp_path / "ds").exists()

    def test_d_model_at_the_bound(self, ws, tmp_path):
        rc, _ = run(["build-dataset", "--scenario", ws / "scenario.json", "--method", "sspe",
                     "--window", 5, "--d-model", MAX_D_MODEL, "--out", tmp_path / "ds"])
        assert rc == 0
        sidecar = json.loads((tmp_path / "ds" / "dataset.json").read_text())
        assert sidecar["provenance"]["d_model"] == MAX_D_MODEL

    def test_unknown_config_key(self, ws, tmp_path):
        rc, err = run(sweep_args(tmp_path, ws / "sspe", ratio=[0.5]))
        assert rc == 1
        assert str(tmp_path / "sweep.json") in err and "'ratio'" in err
        assert not (tmp_path / "rep").exists()

    def test_train_elsewhere_leaves_the_dataset_unchanged(self, ws, tmp_path):
        # A freshly built dataset directory: train --out writes only there.
        dataset = tmp_path / "sspe"
        dataset.mkdir()
        for name in ("dataset.json", "dataset.npz"):
            shutil.copy(ws / "sspe" / name, dataset)
        before = read_tree(dataset)
        rc, err = run(["train", "--dataset", dataset, "--task", "detect", "--families",
                       "glm_binomial", "--out", tmp_path / "elsewhere"])
        assert rc == 0, err
        assert sorted(os.listdir(dataset)) == ["dataset.json", "dataset.npz"]
        assert read_tree(dataset) == before
        assert (tmp_path / "elsewhere" / "models" / "detect" / "glm_binomial.json").exists()

    def test_identify_refused_on_a_locked_output_writes_no_registry(self, ws, tmp_path):
        out, registry = tmp_path / "ident", tmp_path / "reg.json"
        out.mkdir()
        with held_lock(out / ".lock"):
            rc, err = run(identify_args(ws, ws / "sspe", tmp_path, registry=registry)
                          + ["--make-registry", "train"])
        assert rc == 3
        assert str(out / ".lock") in err
        assert not registry.exists()
        assert os.listdir(out) == [".lock"]

    @pytest.mark.parametrize("command", ["train", "identify"])
    def test_identification_refuses_a_baseline_dataset(self, ws, tmp_path, command):
        dataset = ws / "baseline"
        model = ws / "sspe" / "models" / "identify" / "glm_gaussian.json"
        args = {
            "train": ["train", "--config", ws / "config.json", "--dataset", dataset, "--task",
                      "identify", "--families", "glm_gaussian", "--out", tmp_path / "m"],
            "identify": identify_args(ws, dataset, tmp_path, tmp_path / "reg.json", model)
            + ["--make-registry", "train"],
        }[command]
        rc, err = run(args)
        assert rc == 1, err
        assert f"the dataset under {dataset} has method 'baseline'" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["synth", "build-dataset", "train"])
    def test_output_path_is_a_file(self, ws, tmp_path, command, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        args = {
            "synth": ["synth", "--scenario", ws / "scenario.json"],
            "build-dataset": ["build-dataset", "--config", ws / "config.json",
                              "--scenario", ws / "scenario.json"],
            "train": ["train", "--dataset", copy_dataset(ws, tmp_path), "--task", "detect",
                      "--families", "glm_binomial"],
        }[command]
        rc, err = run(args + ["--out", out])
        assert rc == 1, err
        assert f"cannot make output directory {out}" in err

    def test_output_path_too_long_exits_1(self, ws, tmp_path):
        out = tmp_path / ("a" * 300)
        rc, err = run(["synth", "--scenario", ws / "scenario.json", "--out", out])
        assert rc == 1, err
        assert f"cannot make output directory {out}: File name too long" in err

    def test_registry_path_is_a_directory(self, ws, tmp_path):
        registry = tmp_path / "registry"
        registry.mkdir()
        args = identify_args(ws, ws / "sspe", tmp_path, registry=registry)
        rc, err = run(args + ["--make-registry", "train"])
        assert rc == 1, err
        assert f"cannot write {registry}: it is a directory" in err

    @staticmethod
    def build_from(ws, tmp_path, csv_path):
        return run(["build-dataset", "--config", ws / "config.json", "--input", csv_path,
                    "--schema", ws / "raw" / "schema.json", "--method", "sspe",
                    "--out", tmp_path / "ds"])

    def test_input_csv_is_a_directory(self, ws, tmp_path):
        rc, err = self.build_from(ws, tmp_path, tmp_path)
        assert rc == 2
        assert f"input file cannot be read: {tmp_path}" in err

    def test_input_csv_not_utf8(self, ws, tmp_path):
        csv_path = tmp_path / "flows.csv"
        data = (ws / "raw" / "synthetic.csv").read_bytes()
        csv_path.write_bytes(data[:200] + b"\xff\xfe" + data[200:])
        rc, err = self.build_from(ws, tmp_path, csv_path)
        assert rc == 2
        assert err.strip() == f"tspec: data error: {csv_path}: byte 200 is not valid UTF-8"

    def test_input_csv_row_with_extra_cells(self, ws, tmp_path):
        # The csv reader once dropped cells beyond the header without a word.
        csv_path = tmp_path / "flows.csv"
        lines = (ws / "raw" / "synthetic.csv").read_text().splitlines(keepends=True)
        width = len(lines[0].split(","))
        lines[3] = lines[3].rstrip("\r\n") + ",999,888\n"
        csv_path.write_text("".join(lines))
        rc, err = self.build_from(ws, tmp_path, csv_path)
        assert rc == 2
        assert f"row 4: {width + 2} cells, but the header has {width}" in err

    def test_input_csv_open_fails(self, ws, tmp_path, monkeypatch):
        csv_path = tmp_path / "flows.csv"
        shutil.copy(ws / "raw" / "synthetic.csv", csv_path)
        real_open = Path.open

        def refuse(self, *args, **kwargs):
            if self == csv_path:
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", refuse)
        rc, err = self.build_from(ws, tmp_path, csv_path)
        assert rc == 2
        assert f"input file cannot be read: {csv_path}" in err and "Permission denied" in err

    @pytest.mark.parametrize("fmt,first,last", [
        ("epoch", "-1e308", "1e308"),
        ("epoch", "1e308", "-1e308"),
        ("epoch", "0", "1e19"),
        ("clock", "00:00:00", "99999999999999999999:00:00"),
    ])
    def test_input_csv_timestamp_span_outside_int64(self, tmp_path, fmt, first, last):
        # Each once ended in an OverflowError, exit 3.
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"timestamp_column": "time", "label_column": "label",
                                      "feature_columns": ["x"], "timestamp_format": fmt}))
        csv_path = tmp_path / "flows.csv"
        csv_path.write_text(f"time,label,x\n{first},0,1.0\n{last},0,2.0\n")
        rc, err = run(["build-dataset", "--input", csv_path, "--schema", schema, "--window", 1,
                       "--out", tmp_path / "ds"])
        assert rc == 2, err
        assert "row 3: timestamp" in err and "outside the int64 range" in err
        assert not (tmp_path / "ds").exists()

    def test_input_csv_cells_overflow_the_zscore(self, ws, tmp_path):
        # Cells near the float64 maximum once gave NaN features and exit 0.
        csv_path = tmp_path / "flows.csv"
        lines = (ws / "raw" / "synthetic.csv").read_text().splitlines(keepends=True)
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[1] = ("1.7e308", "1.6e308")[i % 2]
            lines[i] = ",".join(cells)
        csv_path.write_text("".join(lines))
        rc, err = self.build_from(ws, tmp_path, csv_path)
        assert rc == 2, err
        assert f"{csv_path}: the z-score mean of feature column 0 is not finite" in err
        assert not (tmp_path / "ds").exists()

    def test_input_csv_with_every_feature_constant(self, ws, tmp_path):
        # Once built a dataset of 0 features, on which gbm training divided
        # by zero (exit 3).
        csv_path = tmp_path / "flows.csv"
        lines = (ws / "raw" / "synthetic.csv").read_text().splitlines(keepends=True)
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[1:3] = ["1.0", "1.0"]  # the features f0 and f1
            lines[i] = ",".join(cells)
        csv_path.write_text("".join(lines))
        rc, err = self.build_from(ws, tmp_path, csv_path)
        assert rc == 2, err
        assert f"{csv_path}: every feature column is constant" in err
        assert not (tmp_path / "ds").exists()

    def test_scenario_offset_overflows_the_zscore(self, ws, tmp_path):
        scenario = json.loads((ws / "scenario.json").read_text())
        scenario["segments"][0]["offset"] = 1e308
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        rc, err = run(["build-dataset", "--config", ws / "config.json", "--scenario", path,
                       "--method", "sspe", "--out", tmp_path / "ds"])
        assert rc == 2, err
        assert f"{path}: the z-score mean of feature column 0 is not finite" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("given", [["input", "schema"], ["input"], ["schema"]],
                             ids=["input and schema", "input", "schema"])
    def test_scenario_with_input_or_schema(self, ws, tmp_path, given):
        # The scenario once won without a word, even over files that do not exist.
        paths = {"input": tmp_path / "absent.csv", "schema": tmp_path / "absent.json"}
        flags = [arg for name in given for arg in (f"--{name}", paths[name])]
        rc, err = run(["build-dataset", "--scenario", ws / "scenario.json", *flags,
                       "--out", tmp_path / "ds"])
        assert rc == 1, err
        assert ", ".join(map(repr, ["scenario", *given])) in err
        assert not (tmp_path / "ds").exists()

    # Each data error below once left out the input it was about.
    def test_window_longer_than_the_input_names_it(self, ws, tmp_path):
        csv_path = ws / "raw" / "synthetic.csv"
        rc, err = run(["build-dataset", "--input", csv_path, "--schema", ws / "raw" / "schema.json",
                       "--window", 261, "--out", tmp_path / "ds"])
        assert rc == 2, err
        assert f"{csv_path}: insufficient data: 260 records for window size 261" in err
        assert not (tmp_path / "ds").exists()

    def test_one_window_names_the_scenario(self, ws, tmp_path):
        scenario = ws / "scenario.json"
        rc, err = run(["build-dataset", "--scenario", scenario, "--window", 260,
                       "--out", tmp_path / "ds"])
        assert rc == 2, err
        assert f"{scenario}: need at least 2 rows to split" in err
        assert not (tmp_path / "ds").exists()

    def test_one_class_training_labels_name_the_dataset_and_family(self, tmp_path):
        scenario = tmp_path / "quiet.json"
        scenario.write_text(json.dumps({"duration": 60, "feature_count": 2, "segments": []}))
        assert run(["build-dataset", "--scenario", scenario, "--method", "baseline",
                    "--window", 5, "--out", tmp_path / "ds"])[0] == 0
        rc, err = run(["train", "--dataset", tmp_path / "ds", "--families", "glm_binomial"])
        assert rc == 2, err
        want = f"{tmp_path / 'ds'}: glm_binomial: logistic fit needs both classes present"
        assert want in err
        assert not (tmp_path / "ds" / "models" / "detect" / "glm_binomial.json").exists()

    def test_no_segment_long_enough_names_the_dataset_and_the_bound(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"identify_bins": 10, "min_segment_windows": 1000}))
        rc, err = run(["identify", "--config", config, "--dataset", ws / "sspe",
                       "--registry", ws / "registry.json", "--out", tmp_path / "ident"])
        assert rc == 2, err
        assert (f"{ws / 'sspe'}: no attack segments large enough to identify with "
                "min_segment_windows 1000") in err
        assert not (tmp_path / "ident" / "identification.json").exists()

    @pytest.mark.parametrize("command,flags", [
        ("train", ["--families", "glm_binomial,glm_binomial"]),
        ("sweep", ["--ratios", "0,0.5,0.5"]),
        ("sweep", ["--identify-families", "glm_gaussian,glm_gaussian"]),
    ])
    def test_repeated_flag_entry_exits_1(self, ws, tmp_path, command, flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_configs(ws, ws)[command]))
        rc, err = run([command, "--config", config, *flags, "--out", tmp_path / "out"])
        assert rc == 1, err
        assert f"config key {flags[0][2:].replace('-', '_')!r} repeats" in err
        assert not (tmp_path / "out").exists()


BAD_CONFIG_VALUES = [
    ("build-dataset", "window", float("inf")),
    ("build-dataset", "out", 5),
    ("build-dataset", "input", ["x.csv"]),
    ("build-dataset", "features", "f0"),
    ("build-dataset", "majority_ratio", 1.0),  # a key since removed
    ("train", "task", ["detect"]),
    ("train", "families", [1]),
    ("train", "families", None),
    ("train", "dataset", {"a": 1}),
    ("sweep", "ratios", "0"),
    ("sweep", "ratios", {"0.5": 1}),
    ("sweep", "noise_scale", float("nan")),
    ("sweep", "noise_scale", float("inf")),
    ("sweep", "identify_families", {"glm_gaussian": 1}),
    ("identify", "make_registry", ["train"]),
    ("identify", "model", 3),
    # Values once coerced without a word: int(10.7), int(True), bool("false")...
    ("build-dataset", "window", 10.7),
    ("build-dataset", "window", True),
    ("build-dataset", "seed", 7.9),
    ("build-dataset", "stratify", "false"),
    ("build-dataset", "d_model", 8.0),
    ("build-dataset", "d_model", 7),
    ("sweep", "noise_train", "false"),
    ("sweep", "ratios", [True, 0.5]),
    ("sweep", "ratios", []),
    ("identify", "identify_bins", 2.9),
    ("identify", "min_segment_windows", -4),
    ("train", "families", []),
    ("train", "families", ["glm_binomial", "bogus"]),
    # A key since removed is unknown, not ignored.
    ("train", "threshold_mode", "rank-default"),
    # Signatures of the test split would identify its segments by their own labels.
    ("identify", "make_registry", "test"),
    ("identify", "make_registry", "all"),
    # Repeated entries once built a feature twice, fitted and wrote a family
    # twice, or wrote a sweep row twice.
    ("build-dataset", "features", ["f0", "f0"]),
    ("train", "families", ["glm_binomial", "glm_binomial"]),
    ("train", "families", "gbm,glm_binomial,gbm"),
    ("sweep", "ratios", [0, 0.5, 0.5]),
    ("sweep", "ratios", [0, 0.0]),
    ("sweep", "identify_families", ["glm_gaussian", "glm_gaussian"]),
]


class TestConfigValues:
    @pytest.mark.parametrize("command,key,value", BAD_CONFIG_VALUES)
    def test_bad_value_exits_1(self, ws, tmp_path, monkeypatch, command, key, value):
        # Refused, naming the key and the file, before any input is read.
        def read_input(*args):
            raise AssertionError("input read before the config was checked")

        monkeypatch.setattr(cli, "_load_timeline", read_input)
        monkeypatch.setattr(cli, "load_dataset", read_input)
        shutil.copytree(ws / "sspe", tmp_path / "sspe")
        shutil.copytree(ws / "baseline", tmp_path / "baseline")
        cfg = {**base_configs(ws, tmp_path)[command], key: value}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        rc, err = run([command, "--config", tmp_path / "config.json"])
        assert rc == 1, err
        assert str(tmp_path / "config.json") in err and key in err
        written = ["ds", "m", "rep", "id", "reg.json"]  # the base configs' outputs
        assert not [name for name in written if (tmp_path / name).exists()]

    @pytest.mark.parametrize("command", ["build-dataset", "train", "sweep", "identify"])
    def test_base_configs_run(self, ws, tmp_path, command):
        # The fuzz below starts from these; each must run as given.
        shutil.copytree(ws / "sspe", tmp_path / "sspe")
        shutil.copytree(ws / "baseline", tmp_path / "baseline")
        (tmp_path / "config.json").write_text(json.dumps(base_configs(ws, tmp_path)[command]))
        rc, err = run([command, "--config", tmp_path / "config.json"])
        assert rc == 0, err

    def test_config_path_is_a_directory(self, tmp_path):
        rc, err = run(["synth", "--config", tmp_path, "--out", tmp_path / "x"])
        assert rc == 1
        assert str(tmp_path) in err


SIDECAR_EDITS = {
    "method not a label method": lambda d: d["provenance"].update(method="fft"),
    "fraction a string": lambda d: d["provenance"].update(attack_bit_fraction="0.2"),
    "fraction above 1": lambda d: d["provenance"].update(attack_bit_fraction=1.5),
    "tags not strings": lambda d: d.update(attack_names=[0] * len(d["attack_names"])),
    "tags a string": lambda d: d.update(attack_names="x" * len(d["attack_names"])),
    "tags missing": lambda d: d.pop("attack_names"),
    # Codes index the names, which must stay sorted and unique.
    "tag names not sorted": lambda d: d.update(attack_names=d["attack_names"][::-1]),
    "tag names repeated": lambda d: d.update(attack_names=d["attack_names"][:1] * 2),
    "window infinite": lambda d: d["provenance"].update(window=float("inf")),
    # Each once truncated by int(), accepted as equal to an integer, or not
    # read; a width of 0 once named only dataset.npz.
    "window not integral": lambda d: d["provenance"].update(window=d["provenance"]["window"] + 0.6),
    "rows not integral": lambda d: d.update(rows=d["rows"] + 0.9),
    "schema version a float": lambda d: d.update(schema_version=3.0),
    "d_model a string": lambda d: d["provenance"].update(d_model="4"),
    "feature width 0": lambda d: d.update(feature_width=0),
}


@pytest.mark.parametrize("edit", sorted(SIDECAR_EDITS))
def test_bad_sidecar_exits_2(ws, tmp_path, edit):
    dataset = copy_dataset(ws, tmp_path)
    edit_json(dataset / "dataset.json", SIDECAR_EDITS[edit])
    rc, err = run(["train", "--dataset", dataset, "--task", "detect",
                   "--families", "glm_binomial"])
    assert rc == 2, err
    assert str(dataset / "dataset.json") in err


REGISTRY_EDITS = {
    "signatures not a list": lambda d: d.update(signatures=5),
    "entry not an object": lambda d: d["signatures"].__setitem__(0, "dos"),
    "name not a string": lambda d: d["signatures"][0].update(attack_name=3),
    "one bin edge": lambda d: d.update(bin_edges=[0.0]),
    "nested edges": lambda d: d.update(bin_edges=[[0.0, 1.0]]),
    "edge not finite": lambda d: d["bin_edges"].__setitem__(-1, float("inf")),
    "count not finite": lambda d: d["signatures"][0]["counts"].__setitem__(0, float("nan")),
    "count a string": lambda d: d["signatures"][0]["counts"].__setitem__(0, "a"),
    "counts one short": lambda d: d["signatures"][0]["counts"].pop(),
    # Signatures built for another label method or d_model than the dataset's.
    "method coap": lambda d: d.update(method="coap"),
    "d_model 16": lambda d: d.update(d_model=16),
    # Each once parsed by np.asarray or accepted as equal to an integer.
    "edges numeric strings": lambda d: d.update(bin_edges=[str(v) for v in d["bin_edges"]]),
    "version true": lambda d: d.update(version=True),
    "d_model a float": lambda d: d.update(d_model=4.0),
    # Each once exited 2 naming no file, or (negated counts) scored the
    # segments with negative similarities and exited 0.
    "names repeated": lambda d: d["signatures"][1].update(
        attack_name=d["signatures"][0]["attack_name"]),
    "edges on one signature": lambda d: d["signatures"][0].update(
        bin_edges=[v + 1.0 for v in d["bin_edges"]]),
    "counts all zero": lambda d: d["signatures"][0].update(
        counts=[0.0] * len(d["signatures"][0]["counts"])),
    "counts negated": lambda d: d["signatures"][0].update(
        counts=[-v for v in d["signatures"][0]["counts"]]),
}


@pytest.mark.parametrize("edit", sorted(REGISTRY_EDITS))
def test_bad_registry_exits_2(ws, tmp_path, edit):
    registry = tmp_path / "registry.json"
    shutil.copy(ws / "registry.json", registry)
    edit_json(registry, REGISTRY_EDITS[edit])
    rc, err = run(identify_args(ws, ws / "sspe", tmp_path, registry=registry))
    assert rc == 2, err
    assert str(registry) in err


def test_registry_mismatch_names_both_label_methods(ws, tmp_path):
    registry = tmp_path / "registry.json"
    shutil.copy(ws / "registry.json", registry)
    edit_json(registry, lambda d: d.update(method="coap", d_model=None))
    rc, err = run(identify_args(ws, ws / "sspe", tmp_path, registry=registry))
    assert rc == 2
    assert "method 'coap' with d_model None" in err
    assert "method 'sspe' with d_model 4" in err


# --- fuzzing ---------------------------------------------------------------

# Integers stay small: a window, d_model or bin count in the millions asks
# for memory in proportion, which is a resource limit, not a malformed input.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-100, 100)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    # No "/" or ".": a fuzzed path stays inside the example's directory.
    | st.text(alphabet="abz09 ,_", max_size=4)
    | st.sampled_from(["sspe", "coap", "baseline", "glm_binomial", "gbm", "detect",
                       "identify", "train", "f0"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="abf0_", max_size=4), inner, max_size=3),
    max_leaves=6,
)
FUZZ = settings(
    max_examples=100,
    deadline=None,
    database=None,
    print_blob=True,  # a failure prints a @reproduce_failure line to replay it
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@contextmanager
def scratch_dir():
    """A fresh directory that is also the working directory."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(old)


CONFIG_KEYS = sorted(set(KEYS) | {"bogus"})


@FUZZ
@given(
    command=st.sampled_from(["build-dataset", "train", "sweep", "identify"]),
    changes=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=3),
    dropped=st.lists(st.sampled_from(CONFIG_KEYS), max_size=2),
)
def test_fuzzed_configs_exit_0_1_or_2(ws, command, changes, dropped):
    with scratch_dir() as tmp:
        for method in ("baseline", "sspe"):
            shutil.copytree(ws / method, tmp / method)
        cfg = base_configs(ws, tmp)[command]
        for key in dropped:
            cfg.pop(key, None)
        cfg.update(changes)
        (tmp / "config.json").write_text(json.dumps(cfg))
        rc, err = run([command, "--config", tmp / "config.json"])
        assert rc in (0, 1, 2), err


def retyped(value):
    """Values of another JSON type than the leaf ``value``: a number as a
    string, a bool or a non-integral float in place of an integer, a number
    in place of a string."""
    if isinstance(value, bool):
        return st.sampled_from([int(value), str(value).lower()])
    if isinstance(value, int):
        return st.sampled_from([str(value), True, False, value + 0.5])
    if isinstance(value, float):
        return st.sampled_from([repr(value), True, False])
    if isinstance(value, str):
        return st.integers(-3, 40) | st.floats(-100, 100)
    return st.sampled_from([0, "0"])  # null, or an empty list or object


def corrupt(path: Path, data) -> str:
    """Replace, delete, add or retype one value somewhere in the JSON file,
    and return which: walk down from the root, at each container picking a
    key and stopping or descending, so every key of every level gets drawn.
    A retype walks down to a leaf and swaps its JSON type (``retyped``)."""
    doc = json.loads(path.read_text())
    action = data.draw(st.sampled_from(["replace", "delete", "add", "retype"]))
    parent = doc
    while True:
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                        else range(len(parent))))
        child = parent[key]
        if not (isinstance(child, (dict, list)) and child
                and (action == "retype" or data.draw(st.booleans()))):
            break
        parent = child
    if action == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif action == "retype":
        parent[key] = data.draw(retyped(parent[key]))
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(alphabet="abf0_", max_size=4))] = data.draw(JSON_VALUES)
    else:
        parent.insert(key, data.draw(JSON_VALUES))
    path.write_text(json.dumps(doc))
    return action


# Cells for the flow-CSV fuzz.  Numbers stay below 10**5: each second
# between the first and last timestamp becomes a timeline row, so a far
# timestamp asks for memory in proportion.  Non-finite values must be
# refused, and a cell past the csv module's field limit too.
CSV_CELLS = (
    st.sampled_from(["", " ", "0", "1", "2", "-1", "-0", "+1", "0.5", "1_0", "nan", "inf",
                     "-inf", "1e400", "#x", "time", "label", "attack", "f0", "dos",
                     "9" * 140_000])
    | st.integers(-5, 300).map(str)
    | st.floats(-100, 100).map(repr)
    | st.text(alphabet='0123456789.,:-"x \n', max_size=5)
)


def mutate_rows(rows: list[list[str]], data) -> None:
    """Apply one edit to a CSV's rows (row 0 is the header): replace a cell,
    delete, repeat or insert a row, insert a blank line, or cut or lengthen
    a row."""
    row = data.draw(st.sampled_from([0, 1, len(rows) - 1]) | st.integers(0, len(rows) - 1))
    action = data.draw(st.sampled_from(["cell", "delete", "repeat", "insert", "blank", "cut",
                                        "extend"]))
    if action == "blank":
        rows.insert(row, [])
    elif action == "cell" and rows[row]:
        rows[row][data.draw(st.integers(0, len(rows[row]) - 1))] = data.draw(CSV_CELLS)
    elif action == "delete":
        del rows[row]
    elif action == "repeat":
        rows.insert(row, list(rows[row]))
    elif action == "insert":
        rows.insert(row, data.draw(st.lists(CSV_CELLS, max_size=7)))
    elif action == "cut":
        rows[row] = rows[row][: data.draw(st.integers(0, max(0, len(rows[row]) - 1)))]
    else:
        rows[row].append(data.draw(CSV_CELLS))


@FUZZ
@given(edits=st.integers(1, 4), data=st.data())
def test_fuzzed_flow_csv_exits_0_1_or_2(ws, edits, data):
    with scratch_dir() as tmp:
        lines = (ws / "raw" / "synthetic.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines]
        for _ in range(edits):
            if rows:
                mutate_rows(rows, data)
        # Joined without quoting, so a comma, quote or newline in a cell
        # reshapes the file.
        (tmp / "flows.csv").write_text("".join(",".join(r) + "\n" for r in rows))
        rc, err = run(["build-dataset", "--config", ws / "config.json", "--input", tmp / "flows.csv",
                       "--schema", ws / "raw" / "schema.json", "--out", tmp / "ds"])
        assert rc in (0, 1, 2), err


@settings(FUZZ, max_examples=400)
@given(edits=st.integers(1, 3), ending=st.sampled_from(["\n", "\r\n"]), data=st.data())
def test_plain_csv_reader_agrees_with_the_row_loop(ws, edits, ending, data):
    # Whenever numpy's text reader gives a timeline, the row loop gives the
    # same one, column for column and bit for bit, and raises nothing.
    rows = [line.split(",") for line in (ws / "raw" / "synthetic.csv").read_text().splitlines()]
    for _ in range(edits):
        if rows:
            mutate_rows(rows, data)
    text = "".join(",".join(r) + ending for r in rows)
    schema = FlowSchema.from_json(ws / "raw" / "schema.json")
    fast = ingest._parse_plain(text, schema)
    event("numpy's reader" if fast is not None else "row loop")
    if fast is not None:
        assert identical_timelines(fast, ingest._parse_rows(text, Path("flows.csv"), schema))


# file -> the commands that read it; "{d}" is the copied sspe dataset.
CORRUPTIBLE = {
    "sidecar": ("{d}/dataset.json", ["train", "sweep", "identify"]),
    "registry": ("reg.json", ["identify"]),
    "detect model": ("{d}/models/detect/glm_binomial.json", ["sweep"]),
    "tree model": ("{d}/models/detect/gbm.json", ["sweep"]),
    "identify model": ("{d}/models/identify/glm_gaussian.json", ["sweep", "identify"]),
    "scenario": ("scenario.json", ["build-dataset"]),
    "schema": ("schema.json", ["build-dataset"]),
}


def run_on_copies(ws, tmp: Path, target: str, command: str, change=None):
    """Copy every corruptible file into ``tmp``, pass the target's path to
    ``change``, and run ``command`` on the copies; returns the exit code,
    stderr, and the bytes of every file then under ``tmp`` but the
    target."""
    shutil.copytree(ws / "sspe", tmp / "sspe")
    shutil.copy(ws / "registry.json", tmp / "reg.json")
    shutil.copy(ws / "scenario.json", tmp / "scenario.json")
    shutil.copy(ws / "raw" / "schema.json", tmp / "schema.json")
    path = tmp / CORRUPTIBLE[target][0].format(d="sspe")
    if change:
        change(path)
    cfg = base_configs(ws, tmp)[command]
    if command == "build-dataset":
        cfg["schema"] = str(tmp / "schema.json")
        if target == "scenario":
            cfg["scenario"] = str(tmp / "scenario.json")
    if command == "sweep":
        cfg["datasets"] = {"sspe": cfg["datasets"]["sspe"]}
        cfg["families"] = ["glm_binomial", "gbm"]
    if command == "identify":
        cfg.pop("make_registry")
    (tmp / "config.json").write_text(json.dumps(cfg))
    rc, err = run([command, "--config", tmp / "config.json"])
    files = {p.relative_to(tmp): p.read_bytes() for p in tmp.rglob("*") if p.is_file() and p != path}
    return rc, err, files


@FUZZ
@given(target=st.sampled_from(sorted(CORRUPTIBLE)), data=st.data())
def test_corrupted_artifacts_exit_0_1_or_2(ws, target, data):
    # A retyped leaf must be refused, unless nothing reads its key: then the
    # run must write the bytes of a run on the unedited files.
    command = data.draw(st.sampled_from(CORRUPTIBLE[target][1]))
    actions = []
    with scratch_dir() as tmp:
        rc, err, files = run_on_copies(ws, tmp, target, command,
                                       lambda path: actions.append(corrupt(path, data)))
        assert rc in (0, 1, 2), err
        if actions == ["retype"] and rc == 0:
            for child in tmp.iterdir():
                shutil.rmtree(child) if child.is_dir() else child.unlink()
            assert files == run_on_copies(ws, tmp, target, command)[2]
