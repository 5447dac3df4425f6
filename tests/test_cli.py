"""CLI tests: subcommand wiring, exit codes, artifact determinism."""

import argparse
import fcntl
import gc
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import weakref
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import pytest

from tspec import (AttackSegment, SyntheticScenario, derive_seed, emit_report, save_registry,
                   training_registry)
from tspec import cli, ingest
from tspec.cli import KEYS, build_parser, main
from tests.conftest import held_lock, scenario_to_dict

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


def segments_with(index, **bad):
    """The CLI scenario's segments as JSON, with ``bad`` set on one of them."""
    segments = scenario_to_dict(cli_scenario())["segments"]
    segments[index].update(bad)
    return segments


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
        assert sidecar["split"] == {"seed": derive_seed(7, "split")}
        with np.load(workspace / "sspe" / "dataset.npz") as npz:
            assert npz["test"].dtype == bool and npz["test"].shape == (421,)
        assert sidecar["schema_version"] == 6
        assert "attack_name" not in sidecar
        assert sorted(sidecar["provenance"]) == ["d_model", "feature_names", "method", "window"]

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
        assert (workspace / "baseline" / "models" / "detect" / "glm_binomial.json").exists()
        for method in ("baseline", "sspe"):
            assert not (workspace / method / "threshold.json").exists()

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

    def test_test_split_is_freed_before_fitting(self, workspace, tmp_path, monkeypatch):
        # No fit reads the test split, which holds 30% of the rows.
        load, fit, test_splits, alive = cli.load_dataset, cli.train, [], []

        def load_spy(dataset_dir):
            split = load(dataset_dir)
            test_splits.append(weakref.ref(split[-1]))
            return split

        def fit_spy(*args):
            gc.collect()
            alive.append(test_splits[0]() is not None)
            return fit(*args)

        monkeypatch.setattr(cli, "load_dataset", load_spy)
        monkeypatch.setattr(cli, "train", fit_spy)
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--dataset", str(workspace / "sspe"), "--task", "detect",
                     "--families", "glm_binomial", "--out", str(tmp_path / "m")]) == 0
        assert alive == [False]


class TestSweep:
    @staticmethod
    def _sweep_config(workspace, ratios):
        return {
            "datasets": {m: str(workspace / m) for m in ("baseline", "coap", "sspe")},
            "families": FAMILIES.split(","),
            "identify_families": ["glm_gaussian"],
            "ratios": ratios,
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

    def test_rerun_removes_the_report_files_it_no_longer_writes(self, workspace, tmp_path,
                                                                monkeypatch):
        # The second run once left identification_accuracy.csv and
        # spectrum_hist_coap.csv beside a report.json without their rows.
        written = []

        def emit(report, out_dir):
            written.append(emit_report(report, out_dir))
            return written[-1]

        monkeypatch.setattr(cli, "emit_report", emit)
        cfg = self._sweep_config(workspace, [0.0])
        cfg["families"] = ["glm_binomial"]
        cfg_path, out = tmp_path / "sweep.json", tmp_path / "rep"
        for datasets, identify in ((("coap", "sspe"), ["glm_gaussian"]), (("sspe",), [])):
            cfg.update(datasets={m: str(workspace / m) for m in datasets},
                       identify_families=identify)
            cfg_path.write_text(json.dumps(cfg))
            assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "identification_accuracy.csv" in {p.name for p in written[0]}
        assert sorted(out.iterdir()) == sorted(written[1])
        assert {p.name for p in written[1]} == {
            "report.json", "spectrum_hist_sspe.csv",
            *(f"detection_{m}.csv" for m in ("accuracy", "f1", "precision", "recall"))}

    def test_missing_models_exit_2(self, workspace, tmp_path):
        cfg = self._sweep_config(workspace, [0.0])
        cfg["families"] = ["gbm"]  # never trained in this workspace
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "rep")]) == 2


class TestIdentify:
    def test_training_signatures_identify_every_test_segment(self, workspace, tmp_path):
        rc = main([
            "identify", "--config", str(workspace / "config.json"),
            "--dataset", str(workspace / "sspe"),
            "--registry", str(tmp_path / "registry.json"), "--make-registry", "train",
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

    def test_one_registry_for_sweep_and_identify(self, workspace, tmp_path):
        registry = tmp_path / "registry.json"
        args = ["identify", "--config", str(workspace / "config.json"),
                "--dataset", str(workspace / "sspe"), "--registry", str(registry)]
        assert main(args + ["--make-registry", "train", "--out", str(tmp_path / "made")]) == 0
        assert main(args + ["--out", str(tmp_path / "loaded")]) == 0
        made = (tmp_path / "made" / "identification.json").read_bytes()
        assert (tmp_path / "loaded" / "identification.json").read_bytes() == made
        # The signatures the sweep identifies with.
        train_ds, _ = cli.load_dataset(workspace / "sspe")
        save_registry(training_registry(train_ds), tmp_path / "sweep-registry.json")
        assert registry.read_bytes() == (tmp_path / "sweep-registry.json").read_bytes()


class TestLineage:
    """A model file records the SHA-256 of the ``dataset.json`` it was
    trained from, and ``sweep`` and ``identify`` refuse it on another
    dataset (exit 2, naming the file and the dataset directory)."""

    SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "three_attacks.json"

    def _build(self, ds, seed, capsys):
        assert main(["build-dataset", "--scenario", str(self.SCENARIO), "--method", "sspe",
                     "--d-model", "8", "--window", "10", "--seed", str(seed),
                     "--out", str(ds)]) == 0
        capsys.readouterr()

    def test_a_model_of_an_earlier_build_is_refused(self, tmp_path, capsys):
        # Rebuilding at another seed keeps models/; the identify model's
        # training rows can then sit in the new test split, and identify
        # once scored it "accuracy 1.0000 over 4 segments" with exit 0.
        ds = tmp_path / "ds"
        self._build(ds, 0, capsys)
        assert main(["train", "--dataset", str(ds), "--task", "identify",
                     "--families", "random_forest"]) == 0
        assert main(["train", "--dataset", str(ds), "--task", "detect",
                     "--families", "glm_binomial"]) == 0
        model = ds / "models" / "identify" / "random_forest.json"
        digest = hashlib.sha256((ds / "dataset.json").read_bytes()).hexdigest()
        assert json.loads(model.read_text())["dataset_sha256"] == digest
        identify = ["identify", "--dataset", str(ds), "--model", str(model), "--make-registry",
                    "train", "--registry", str(tmp_path / "registry.json")]
        sweep_config = tmp_path / "sweep.json"
        sweep_config.write_text(json.dumps({"datasets": {"sspe": str(ds)}, "ratios": [0.0],
                                            "families": ["glm_binomial"],
                                            "identify_families": ["random_forest"]}))
        sweep = ["sweep", "--config", str(sweep_config)]
        assert main(identify + ["--out", str(tmp_path / "before")]) == 0
        assert main(sweep + ["--out", str(tmp_path / "report")]) == 0
        # The same build again writes the same bytes, so its models stay valid.
        self._build(ds, 0, capsys)
        assert main(identify + ["--out", str(tmp_path / "same")]) == 0

        self._build(ds, 1, capsys)
        assert model.exists()
        (tmp_path / "registry.json").unlink()
        assert main(identify + ["--out", str(tmp_path / "after")]) == 2
        err = capsys.readouterr().err
        assert f"{model} was not trained from the dataset under {ds}" in err
        assert not (tmp_path / "after").exists() and not (tmp_path / "registry.json").exists()
        assert main(sweep + ["--out", str(tmp_path / "report-after")]) == 2
        detect = ds / "models" / "detect" / "glm_binomial.json"
        assert f"{detect} was not trained from the dataset under {ds}" in capsys.readouterr().err

    def test_the_task_and_width_checks_come_first(self, workspace, tmp_path, capsys):
        # A classifier of another dataset, given to identify: the task error.
        model = workspace / "coap" / "models" / "detect" / "glm_binomial.json"
        rc = main(["identify", "--config", str(workspace / "config.json"),
                   "--dataset", str(workspace / "sspe"), "--model", str(model),
                   "--registry", str(tmp_path / "r.json"), "--make-registry", "train",
                   "--out", str(tmp_path / "ident")])
        assert rc == 2
        assert "a classify model of 30 features" in capsys.readouterr().err


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

    def synth(self, workspace, out) -> int:
        return main(["synth", "--config", str(workspace / "config.json"),
                     "--scenario", str(workspace / "scenario.json"), "--out", str(out)])

    def test_locked_output_exits_3(self, workspace, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        with held_lock(out / ".lock"):
            rc = self.synth(workspace, out)
        assert rc == 3
        assert f"locked by another run: {out / '.lock'}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [".lock"]

    def test_lock_of_live_process_exits_3(self, workspace, tmp_path):
        out = tmp_path / "locked"
        with lock_holder(out):
            assert self.synth(workspace, out) == 3
            assert [p.name for p in out.iterdir()] == [".lock"]

    def test_lock_of_a_killed_process_is_free(self, workspace, tmp_path):
        out = tmp_path / "stale"
        with lock_holder(out) as holder:
            holder.kill()  # SIGKILL: no finally block unlinks its .lock
            holder.wait()
        assert (out / ".lock").exists()
        assert self.synth(workspace, out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["schema.json", "synthetic.csv"]

    def test_lock_of_a_killed_forest_run_is_freed_by_its_workers(self, tmp_path):
        """A run killed while it grows forest trees: its forked worker,
        which inherited the lock, finishes the tree it is growing, sees
        that its caller is gone and exits before the next, so the lock is
        free within about one tree's time (0.5 s), not after its whole
        share of six trees."""
        out = tmp_path / "forest"
        with lock_holder(out, SLOW_FOREST) as holder:
            assert_freed_within(1.5, holder, out / ".lock")

    def test_lock_of_a_killed_sweep_is_freed_by_its_workers(self, workspace, tmp_path):
        """The same for a run killed while it evaluates sweep cells, each of
        which takes 0.5 s: its worker leaves before its next cell."""
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(TestSweep._sweep_config(workspace, [0.0, 0.5])))
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "report")]
        body = slow("tspec.evalharness", SWEEP_CELL_NOISE, f"cli.main({argv!r})")
        with lock_holder(out, body) as holder:
            assert_freed_within(1.5, holder, out / ".lock")

    @pytest.mark.parametrize("text", ["", str(os.getppid())], ids=["empty", "live-pid"])
    def test_lock_file_a_crashed_run_left_is_free(self, workspace, tmp_path, text):
        # An empty .lock (a run killed before it wrote anything, a power
        # loss) and one naming a live process of another program lock nothing.
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".lock").write_text(text)
        assert self.synth(workspace, out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["schema.json", "synthetic.csv"]

    def test_lock_of_dead_process_is_reclaimed(self, workspace, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its PID names no running process
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".lock").write_text(str(child.pid))
        rc = self.synth(workspace, out)
        assert rc == 0
        assert (out / "synthetic.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == ["schema.json", "synthetic.csv"]

    def test_lock_file_replaced_while_locking_is_locked_again(self, tmp_path, monkeypatch):
        """The run before unlinks .lock between this run's open and flock,
        and a third run makes a new one: this run locks the new file, not
        the unlinked one it opened first."""
        out = tmp_path / "out"
        lock = out / ".lock"
        flock = fcntl.flock
        opened = []

        def racing_flock(fd, operation):
            if not opened:
                lock.unlink()
                lock.touch()
            opened.append(os.fstat(fd).st_ino)
            flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", racing_flock)
        with cli._output_lock(out):
            assert opened[-1] == lock.stat().st_ino != opened[0]
            fd = os.open(lock, os.O_WRONLY)
            try:
                with pytest.raises(BlockingIOError):
                    flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
        assert not lock.exists()

    @pytest.mark.parametrize("how", ["directory", "unwritable"])
    def test_lock_that_cannot_be_opened_exits_1(self, workspace, tmp_path, monkeypatch,
                                                capsys, how):
        out = tmp_path / "out"
        out.mkdir()
        if how == "directory":
            (out / ".lock").mkdir()
        else:
            real = os.open

            def refuse(path, *args, **kwargs):
                if Path(path).name == ".lock":
                    raise PermissionError(13, "Permission denied", str(path))
                return real(path, *args, **kwargs)

            monkeypatch.setattr(os, "open", refuse)
        assert self.synth(workspace, out) == 1
        assert f"cannot open lock file {out / '.lock'}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [".lock"] * (how == "directory")


def slow(module: str, names: tuple[str, ...], then: str) -> str:
    """Code that makes every call of ``<module>.<name>``, for each of
    ``names``, print the calling process's pid and take 0.5 s more,
    pretends that this process may use two CPUs, then runs ``then``."""
    return ("import importlib, os, time; from tspec import cli, processes\n"
            "processes.os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"target = importlib.import_module({module!r})\n"
            "def slowly(real):\n"
            "    def call(*args, **kwargs):\n"
            "        print(os.getpid(), flush=True)\n"
            "        time.sleep(0.5)\n"
            "        return real(*args, **kwargs)\n"
            "    return call\n"
            f"for name in {names!r}:\n"
            "    setattr(target, name, slowly(getattr(target, name)))\n"
            f"{then}\n")


# Every sweep cell noises its test features through one of these: GLM cells
# the whole matrix, row-separable cells only the rows they predict.
SWEEP_CELL_NOISE = ("inject_noise", "noise_rows")

# A forest-like fit of 12 items in two processes: each item takes 0.5 s,
# and the worker's six take more than a pipe buffer (64 KB) to send back.
SLOW_FOREST = ("import os, time; from tspec import processes\n"
               "processes.os.sched_getaffinity = lambda pid: {0, 1}\n"
               "processes._map_in_processes(lambda i:\n"
               "    print(os.getpid(), flush=True) or time.sleep(0.5) or bytes(10**5), 12)\n")


def assert_freed_within(seconds: float, holder, lock: Path):
    """Kill ``holder`` with SIGKILL once a worker has begun an item (a line
    on its stdout with a pid other than the holder's); then ``lock`` must
    be free, every worker gone, within ``seconds``."""
    while int(holder.stdout.readline()) == holder.pid:
        pass
    holder.kill()
    holder.wait()
    killed = time.monotonic()
    fd = os.open(lock, os.O_WRONLY)
    try:
        while True:
            with suppress(BlockingIOError):
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            took = time.monotonic() - killed
            assert took < seconds, f"the killed run's worker still holds the lock after {took} s"
            time.sleep(0.02)
    finally:
        os.close(fd)


def child_env() -> dict:
    """This process's environment, with the tspec under test importable."""
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@contextmanager
def lock_holder(out: Path, body: str = "time.sleep(60)"):
    """A Python child, in a process group of its own, that holds ``out``'s
    output lock through ``cli._output_lock`` while it runs ``body``.  The
    group is killed at the end, with any process the child forked."""
    code = ("import sys, time; from pathlib import Path; from tspec.cli import _output_lock\n"
            "with _output_lock(Path(sys.argv[1])):\n"
            "    print('held', flush=True)\n"
            + "".join(f"    {line}\n" for line in body.splitlines()))
    holder = subprocess.Popen([sys.executable, "-c", code, str(out)], stdout=subprocess.PIPE,
                              env=child_env(), start_new_session=True)
    try:
        assert holder.stdout.readline() == b"held\n"
        yield holder
    finally:
        with suppress(ProcessLookupError):
            os.killpg(holder.pid, signal.SIGKILL)
        holder.wait()
        holder.stdout.close()


@pytest.mark.parametrize("command", ["sweep", "train"])
def test_a_sigtermed_command_unlinks_its_lock_and_reaps_its_workers(workspace, tmp_path,
                                                                      command):
    """SIGTERM once a worker has begun a sweep cell or a forest tree: the
    command exits 143, no ``.lock`` stays behind and no process of it
    remains."""
    out = tmp_path / "out"
    if command == "sweep":
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(TestSweep._sweep_config(workspace, [0.0, 0.5])))
        target = ("tspec.evalharness", SWEEP_CELL_NOISE)
        argv = ["sweep", "--config", str(config), "--out", str(out)]
    else:
        target = ("tspec.models.ensembles", ("build_tree",))
        argv = ["train", "--config", str(workspace / "config.json"), "--dataset",
                str(workspace / "sspe"), "--task", "detect", "--families", "random_forest",
                "--out", str(out)]
    code = slow(*target, "cli.entrypoint()")
    child = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                             env=child_env(), start_new_session=True)
    try:
        while int(child.stdout.readline()) == child.pid:
            pass
        child.terminate()
        assert child.wait(timeout=30) == cli.EXIT_TERMINATED
        assert list(tmp_path.rglob(".lock")) == []
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        child.stdout.close()


# Config keys every command's config file may hold.
SHARED_KEYS = {
    "d_model", "datasets", "families", "features", "identify_families", "make_registry",
    "method", "noise_train", "ratios", "seed", "task", "window",
}
# command -> (its flags, the path keys its config file may hold too)
INTERFACE = {
    "synth": ({"--config", "--out", "--scenario", "--seed"}, {"out", "scenario"}),
    "build-dataset": (
        {"--config", "--d-model", "--input", "--method", "--out", "--scenario", "--schema",
         "--seed", "--window"},
        {"input", "out", "scenario", "schema"},
    ),
    "train": (
        {"--config", "--dataset", "--families", "--out", "--seed", "--task"},
        {"dataset", "out"},
    ),
    "sweep": (
        {"--config", "--families", "--identify-families", "--out", "--ratios", "--seed"},
        {"out"},
    ),
    "identify": (
        {"--config", "--dataset", "--make-registry", "--model", "--out", "--registry", "--seed"},
        {"dataset", "model", "out", "registry"},
    ),
}


class TestInterface:
    """The flags and config keys of each command stay as they are."""

    @pytest.mark.parametrize("command", sorted(INTERFACE))
    def test_flags(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert flags - {"-h", "--help"} == INTERFACE[command][0]

    @pytest.mark.parametrize("command", sorted(INTERFACE))
    def test_config_keys(self, command, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: None for key in KEYS}))
        assert main([command, "--config", str(cfg)]) == 1
        unknown = capsys.readouterr().err.split("unknown config key", 1)[1]
        accepted = set(KEYS) - set(re.findall(r"'(\w+)'", unknown))
        assert accepted == SHARED_KEYS | INTERFACE[command][1]


# Keys that had one value in use, now constants: (command, key, that value).
REMOVED_KEYS = [
    ("build-dataset", "stride", 1),
    ("build-dataset", "test_fraction", 0.3),
    ("build-dataset", "stratify", True),
    ("sweep", "noise_scale", 1.0),
    ("identify", "identify_bins", 50),
    ("identify", "min_segment_windows", 5),
]


class TestRemovedKeys:
    """A removed key is unknown, not ignored: as a config key or a flag it
    exits 1 on a run that would otherwise write its outputs."""

    @staticmethod
    def config(workspace, tmp_path, command) -> dict:
        """A config on which ``command`` runs to exit 0."""
        return {
            "build-dataset": {"input": str(workspace / "raw" / "synthetic.csv"),
                              "schema": str(workspace / "raw" / "schema.json"), "window": 10},
            "sweep": {"datasets": {"sspe": str(workspace / "sspe")},
                      "families": ["glm_binomial"], "ratios": [0.0]},
            "identify": {"dataset": str(workspace / "sspe"), "make_registry": "train",
                         "registry": str(tmp_path / "out" / "registry.json")},
        }[command] | {"out": str(tmp_path / "out")}

    @pytest.mark.parametrize("command,key,value", REMOVED_KEYS)
    def test_config_key_exits_1(self, workspace, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.config(workspace, tmp_path, command) | {key: value}))
        assert main([command, "--config", str(cfg)]) == 1
        assert f"{cfg}: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("build-dataset", "--stride", "1"),
        ("build-dataset", "--test-fraction", "0.3"),
        ("sweep", "--noise-scale", "1.0"),
    ])
    def test_flag_exits_1(self, workspace, tmp_path, capsys, command, flag, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.config(workspace, tmp_path, command)))
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg), flag, value])
        assert info.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("bad, where", [
        ({"duration": 430.7}, "key 'duration' must be an integer"),
        ({"feature_count": "4"}, "key 'feature_count' must be an integer"),
        ({"normal_std": True}, "key 'normal_std' must be a finite number"),
        ({"segments": segments_with(0, start=30.9)}, "segment 0: key 'start' must be an integer"),
        ({"segments": segments_with(1, period=True)}, "segment 1: key 'period' must be an integer"),
        ({"segments": segments_with(2, name=7)}, "segment 2: key 'name' must be a string"),
        # Once read as no segments at all.
        ({"segments": ""}, "key 'segments' must be a list, got ''"),
        ({"segments": {}}, "key 'segments' must be a list, got {}"),
    ], ids=["duration-real", "feature_count-string", "normal_std-bool", "start-real",
            "period-bool", "name-number", "segments-string", "segments-object"])
    def test_scenario_numbers_are_not_coerced(self, tmp_path, capsys, bad, where):
        scenario = self._scenario(tmp_path, **bad)
        assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert str(scenario) in err and where in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("bad, key", [
        ({"feature_columns": "f0"}, "feature_columns"),
        ({"feature_columns": "f0f1"}, "feature_columns"),
        ({"feature_columns": ["f0", "f0"]}, "duplicates"),
        ({"timestamp_column": 5}, "timestamp_column"),
    ], ids=["features-string", "features-joined-string", "features-repeated", "timestamp-number"])
    def test_schema_values_keep_their_types(self, workspace, tmp_path, capsys, bad, key):
        schema = tmp_path / "schema.json"
        data = json.loads((workspace / "raw" / "schema.json").read_text())
        schema.write_text(json.dumps({**data, **bad}))
        rc = main(["build-dataset", "--input", str(workspace / "raw" / "synthetic.csv"),
                   "--schema", str(schema), "--out", str(tmp_path / "ds")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(schema) in err and key in err

    @pytest.mark.parametrize("name", [" dos", "dos\t", "\xa0dos", "\n"])
    def test_scenario_name_with_outer_whitespace(self, tmp_path, capsys, name):
        # A flow CSV's attack cells are read stripped: synth's CSV would name
        # the attack differently from build-dataset --scenario.
        scenario = self._scenario(tmp_path, segments=segments_with(3, name=name))
        assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert str(scenario) in err and f"segment 3: name {name!r}" in err
        assert not (tmp_path / "x").exists()

    def test_sweep_ratios_number_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"datasets": {"sspe": str(tmp_path)}, "ratios": 5}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 1
        assert "'ratios'" in capsys.readouterr().err


class TestScenarioRoundTrip:
    """``build-dataset --scenario`` and ``synth`` then ``build-dataset
    --input`` write the same dataset, byte for byte."""

    SHIPPED = Path(__file__).resolve().parents[1] / "scenarios" / "three_attacks.json"
    QUOTED = {"dos": "dos, flood", "scan": 'scan "slow"', "creep": "creep\nramp"}

    @pytest.mark.parametrize("renamed, reader", [(False, "numpy"), (True, "row loop")],
                             ids=["shipped", "quoted-names"])
    def test_same_dataset_either_way(self, tmp_path, monkeypatch, renamed, reader):
        scenario = json.loads(self.SHIPPED.read_text())
        if renamed:
            for segment in scenario["segments"]:
                segment["name"] = self.QUOTED[segment["name"]]
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        readers = []
        plain = ingest._parse_plain

        def spy(text, schema):
            readers.append("row loop" if (timeline := plain(text, schema)) is None else "numpy")
            return timeline

        monkeypatch.setattr(ingest, "_parse_plain", spy)
        build = ["build-dataset", "--method", "sspe", "--d-model", "8", "--window", "10",
                 "--seed", "7"]
        assert main(["synth", "--scenario", str(tmp_path / "scenario.json"), "--seed", "7",
                     "--out", str(tmp_path / "raw")]) == 0
        assert main([*build, "--input", str(tmp_path / "raw" / "synthetic.csv"),
                     "--schema", str(tmp_path / "raw" / "schema.json"),
                     "--out", str(tmp_path / "via_csv")]) == 0
        assert main([*build, "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(tmp_path / "direct")]) == 0
        assert readers == [reader]
        for name in ("dataset.npz", "dataset.json"):
            assert (tmp_path / "via_csv" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
        names = json.loads((tmp_path / "direct" / "dataset.json").read_text())["attack_names"]
        assert set(names) == {"", *(segment["name"] for segment in scenario["segments"])}


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

    def test_a_far_timestamp_is_refused_before_the_fill(self, workspace, tmp_path, capsys):
        # The last of 430 rows moved 200,000 s later once built 200,421
        # windows at a 131 MB peak: the fill asked for the whole span.
        lines = (workspace / "raw" / "synthetic.csv").read_text().splitlines()
        cells = lines[-1].split(",")
        cells[0] = str(int(cells[0]) + 200_000)
        lines[-1] = ",".join(cells)
        (tmp_path / "flows.csv").write_text("\n".join(lines) + "\n")
        rc = main(["build-dataset", "--input", str(tmp_path / "flows.csv"),
                   "--schema", str(workspace / "raw" / "schema.json"), "--window", "10",
                   "--out", str(tmp_path / "ds")])
        assert rc == 2
        assert ("row 431: second 200429 follows a gap of 200000 missing seconds; 200000 of "
                "the 200430 seconds spanned are missing, more than 99%") in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

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
