"""CLI tests: subcommand wiring, exit codes, artifact determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tspec import AttackSegment, SyntheticScenario
from tspec.cli import main
from tests.conftest import scenario_to_dict

FAMILIES = "glm_binomial,random_forest"


def cli_scenario():
    return SyntheticScenario(
        duration=430,
        feature_count=3,
        segments=(
            AttackSegment("dos", 30, 60, "burst", offset=3.0),
            AttackSegment("scan", 120, 75, "periodic", period=5, offset=3.0),
            AttackSegment("creep", 225, 70, "ramp", offset=3.0),
            AttackSegment("dos", 325, 45, "burst", offset=3.0),
        ),
    )


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != ".lock"
    }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full synth -> build x3 -> train pipeline shared by the tests."""
    work = tmp_path_factory.mktemp("cli")
    (work / "scenario.json").write_text(json.dumps(scenario_to_dict(cli_scenario())))
    config = {
        "window": 10,
        "d_model": 8,
        "identify_bins": 10,
        "min_segment_windows": 5,
        "seed": 7,
    }
    (work / "config.json").write_text(json.dumps(config))
    cfg = str(work / "config.json")

    assert main(["synth", "--config", cfg, "--scenario", str(work / "scenario.json"),
                 "--out", str(work / "raw")]) == 0
    for method in ("baseline", "coap", "sspe"):
        assert main([
            "build-dataset", "--config", cfg,
            "--input", str(work / "raw" / "synthetic.csv"),
            "--schema", str(work / "raw" / "schema.json"),
            "--method", method, "--out", str(work / method),
        ]) == 0
        assert main(["train", "--config", cfg, "--dataset", str(work / method),
                     "--task", "detect", "--families", FAMILIES]) == 0
        if method != "baseline":
            assert main(["train", "--config", cfg, "--dataset", str(work / method),
                         "--task", "identify", "--families", "glm_gaussian"]) == 0
    return work


class TestSynth:
    def test_outputs(self, workspace):
        csv_path = workspace / "raw" / "synthetic.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == "time,f0,f1,f2,label,attack"
        schema = json.loads((workspace / "raw" / "schema.json").read_text())
        assert schema["feature_columns"] == ["f0", "f1", "f2"]

    def test_missing_scenario_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 1


class TestBuildDataset:
    def test_sidecar_records_method_and_shape(self, workspace):
        sidecar = json.loads((workspace / "sspe" / "dataset.json").read_text())
        assert sidecar["provenance"]["method"] == "sspe"
        assert sidecar["provenance"]["d_model"] == 8
        assert sidecar["feature_width"] == 10 * 3
        assert sidecar["rows"] == 421
        split = sidecar["split"]
        assert len(split["train_indices"]) + len(split["test_indices"]) == 421
        assert sidecar["schema_version"] == 2
        assert "attack_name" not in sidecar

    def test_window_larger_than_timeline_exits_2(self, workspace, tmp_path, capsys):
        rc = main([
            "build-dataset", "--config", str(workspace / "config.json"),
            "--input", str(workspace / "raw" / "synthetic.csv"),
            "--schema", str(workspace / "raw" / "schema.json"),
            "--method", "coap", "--window", "100000", "--out", str(tmp_path / "d"),
        ])
        assert rc == 2
        assert "insufficient" in capsys.readouterr().err

    def test_byte_identical_rerun(self, workspace, tmp_path):
        args = [
            "build-dataset", "--config", str(workspace / "config.json"),
            "--input", str(workspace / "raw" / "synthetic.csv"),
            "--schema", str(workspace / "raw" / "schema.json"), "--method", "coap",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
        assert sorted(read_tree(tmp_path / "a")) == ["dataset.json", "dataset.npz"]

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["build-dataset", "--out", str(tmp_path / "x")]) == 1


class TestTrain:
    def test_model_files_exist(self, workspace):
        for family in FAMILIES.split(","):
            assert (workspace / "sspe" / "models" / "detect" / f"{family}.json").exists()
        assert (workspace / "sspe" / "threshold.json").exists()
        assert (workspace / "baseline" / "models" / "detect" / "glm_binomial.json").exists()
        assert not (workspace / "baseline" / "threshold.json").exists()

    def test_family_task_mismatch_exits_1(self, workspace):
        rc = main(["train", "--config", str(workspace / "config.json"),
                   "--dataset", str(workspace / "sspe"),
                   "--task", "identify", "--families", "glm_binomial"])
        assert rc == 1

    def test_rerun_identical_model_files(self, workspace, tmp_path):
        args = ["train", "--config", str(workspace / "config.json"),
                "--dataset", str(workspace / "sspe"), "--task", "detect",
                "--families", "glm_binomial"]
        assert main(args + ["--out", str(tmp_path / "m1")]) == 0
        assert main(args + ["--out", str(tmp_path / "m2")]) == 0
        a = (tmp_path / "m1" / "models" / "detect" / "glm_binomial.json").read_bytes()
        b = (tmp_path / "m2" / "models" / "detect" / "glm_binomial.json").read_bytes()
        assert a == b

    def test_missing_dataset_exits_2(self, tmp_path):
        rc = main(["train", "--dataset", str(tmp_path / "absent"), "--task", "detect"])
        assert rc == 2


class TestSweep:
    def _sweep_config(self, workspace, ratios):
        return {
            "datasets": {m: str(workspace / m) for m in ("baseline", "coap", "sspe")},
            "families": FAMILIES.split(","),
            "identify_families": ["glm_gaussian"],
            "ratios": ratios,
            "identify_bins": 10,
            "min_segment_windows": 5,
            "seed": 7,
        }

    def test_two_ratio_report(self, workspace, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(self._sweep_config(workspace, [0.0, 1.0])))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "rep")]) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        detect = [r for r in report["rows"] if r["task"] == "detect"]
        assert len(detect) == 3 * 2 * 2
        assert sorted({r["noise_ratio"] for r in detect}) == [0.0, 1.0]

    def test_default_grid_covers_eleven_ratios(self, workspace, tmp_path):
        cfg = self._sweep_config(workspace, [i / 10 for i in range(11)])
        cfg["families"] = ["glm_binomial"]
        cfg["identify_families"] = []
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "rep")]) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        ratios = sorted({r["noise_ratio"] for r in report["rows"]})
        assert ratios == [i / 10 for i in range(11)]
        lines = (tmp_path / "rep" / "detection_accuracy.csv").read_text().splitlines()
        assert len(lines) == 12

    def test_rerun_identical_bytes(self, workspace, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(self._sweep_config(workspace, [0.0, 0.5])))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
        assert read_tree(tmp_path / "r1") == read_tree(tmp_path / "r2")

    def test_missing_models_exit_2(self, workspace, tmp_path):
        cfg = self._sweep_config(workspace, [0.0])
        cfg["families"] = ["gbm"]  # never trained in this workspace
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "rep")]) == 2


class TestIdentify:
    def test_self_signatures_reach_full_accuracy(self, workspace, tmp_path):
        rc = main([
            "identify", "--config", str(workspace / "config.json"),
            "--dataset", str(workspace / "sspe"),
            "--registry", str(tmp_path / "registry.json"), "--make-registry", "test",
            "--out", str(tmp_path / "ident"),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "ident" / "identification.json").read_text())
        assert payload["accuracy"] == 1.0
        assert [s["attack"] for s in payload["segments"]] == ["dos", "scan", "creep", "dos"]
        assert all(s["predicted"] == s["attack"] for s in payload["segments"])

    def test_missing_registry_exits_2(self, workspace, tmp_path):
        rc = main([
            "identify", "--config", str(workspace / "config.json"),
            "--dataset", str(workspace / "sspe"),
            "--registry", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "ident"),
        ])
        assert rc == 2

    def test_deterministic_rerun(self, workspace, tmp_path):
        args = [
            "identify", "--config", str(workspace / "config.json"),
            "--dataset", str(workspace / "sspe"),
            "--registry", str(tmp_path / "registry.json"), "--make-registry", "train",
        ]
        assert main(args + ["--out", str(tmp_path / "i1")]) == 0
        assert main(args + ["--out", str(tmp_path / "i2")]) == 0
        a = (tmp_path / "i1" / "identification.json").read_bytes()
        b = (tmp_path / "i2" / "identification.json").read_bytes()
        assert a == b


class TestUsage:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--bogus"])
        assert info.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_locked_output_exits_3(self, workspace, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text("held")
        rc = main(["synth", "--config", str(workspace / "config.json"),
                   "--scenario", str(workspace / "scenario.json"), "--out", str(out)])
        assert rc == 3

    def test_lock_of_live_process_exits_3(self, workspace, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        rc = main(["synth", "--config", str(workspace / "config.json"),
                   "--scenario", str(workspace / "scenario.json"), "--out", str(out)])
        assert rc == 3
        assert (out / ".lock").read_text() == str(os.getpid())

    def test_lock_of_dead_process_is_reclaimed(self, workspace, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its PID names no running process
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".lock").write_text(str(child.pid))
        rc = main(["synth", "--config", str(workspace / "config.json"),
                   "--scenario", str(workspace / "scenario.json"), "--out", str(out)])
        assert rc == 0
        assert (out / "synthetic.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == ["schema.json", "synthetic.csv"]


class TestMalformedJson:
    def _broken(self, tmp_path, name):
        path = tmp_path / name
        path.write_text('{"window": 10,')
        return path

    def test_config_is_a_config_error(self, tmp_path, capsys):
        cfg = self._broken(tmp_path, "sweep.json")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_scenario_is_a_config_error(self, tmp_path, capsys):
        scenario = self._broken(tmp_path, "scenario.json")
        assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 1
        assert str(scenario) in capsys.readouterr().err

    def test_schema_is_a_config_error(self, workspace, tmp_path, capsys):
        schema = self._broken(tmp_path, "schema.json")
        rc = main(["build-dataset", "--input", str(workspace / "raw" / "synthetic.csv"),
                   "--schema", str(schema), "--out", str(tmp_path / "ds")])
        assert rc == 1
        assert str(schema) in capsys.readouterr().err

    def test_threshold_is_a_data_error(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "sspe"
        shutil.copytree(workspace / "sspe", dataset)
        (dataset / "threshold.json").write_text("{not json")
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "datasets": {"sspe": str(dataset)},
            "families": FAMILIES.split(","),
            "ratios": [0.0],
        }))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
        assert str(dataset / "threshold.json") in capsys.readouterr().err


class TestWrongTypeJson:
    """Well-formed JSON holding a value of the wrong type is a config error
    that names the key or the file, not an unexpected error."""

    def _scenario(self, tmp_path, **bad):
        data = {**scenario_to_dict(cli_scenario()), **bad}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_window_string_in_config(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"window": "x"}))
        rc = main(["build-dataset", "--config", str(cfg),
                   "--input", str(workspace / "raw" / "synthetic.csv"),
                   "--schema", str(workspace / "raw" / "schema.json"),
                   "--out", str(tmp_path / "ds")])
        assert rc == 1
        assert "'window'" in capsys.readouterr().err

    def test_duration_string_in_scenario(self, tmp_path, capsys):
        scenario = self._scenario(tmp_path, duration="abc")
        assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 1
        assert str(scenario) in capsys.readouterr().err

    def test_segments_number_in_scenario(self, tmp_path, capsys):
        scenario = self._scenario(tmp_path, segments=5)
        assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 1
        assert str(scenario) in capsys.readouterr().err

    def test_sweep_ratios_number_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"datasets": {"sspe": str(tmp_path)}, "ratios": 5}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 1
        assert "'ratios'" in capsys.readouterr().err


class TestInputData:
    def test_non_finite_feature_exits_2(self, workspace, tmp_path, capsys):
        lines = (workspace / "raw" / "synthetic.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = "inf"
        lines[5] = ",".join(cells)
        (tmp_path / "flows.csv").write_text("\n".join(lines) + "\n")
        rc = main(["build-dataset", "--input", str(tmp_path / "flows.csv"),
                   "--schema", str(workspace / "raw" / "schema.json"),
                   "--out", str(tmp_path / "ds")])
        assert rc == 2
        assert "row 6: non-finite value inf in column 'f1'" in capsys.readouterr().err

    def test_repeated_second_exits_2(self, workspace, tmp_path, capsys):
        lines = (workspace / "raw" / "synthetic.csv").read_text().splitlines()
        lines.insert(8, lines[7])  # second 6 twice, as rows 8 and 9
        (tmp_path / "flows.csv").write_text("\n".join(lines) + "\n")
        rc = main(["build-dataset", "--input", str(tmp_path / "flows.csv"),
                   "--schema", str(workspace / "raw" / "schema.json"),
                   "--out", str(tmp_path / "ds")])
        assert rc == 2
        assert "row 9: second 6 repeats" in capsys.readouterr().err

    def test_family_list_string_in_config(self, workspace, tmp_path):
        # A comma-separated string in a config file means the same as a list.
        shutil.copytree(workspace / "sspe", tmp_path / "sspe")
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"families": "glm_binomial", "seed": 7}))
        args = ["train", "--config", str(cfg), "--dataset", str(tmp_path / "sspe"),
                "--task", "detect", "--out", str(tmp_path / "m")]
        assert main(args) == 0
        got = tmp_path / "m" / "models" / "detect" / "glm_binomial.json"
        want = workspace / "sspe" / "models" / "detect" / "glm_binomial.json"
        assert got.read_bytes() == want.read_bytes()
