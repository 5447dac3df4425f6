"""Bad inputs through ``tspec.cli.main``: config files, thresholds, dataset
sidecars, registries and model files that are well-formed JSON but hold
wrong keys, types or values end in exit 1 (config) or 2 (data), with the
file named, and never in exit 3."""

import io
import json
import os
import shutil
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tspec import AttackSegment, SyntheticScenario
from tspec.cli import DEFAULTS, main
from tests.conftest import scenario_to_dict


def run(argv) -> tuple[int, str]:
    """Exit code and stderr of one CLI call."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A small synth -> build (baseline, sspe) -> train workspace."""
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
        registry.write_text(json.dumps({"version": 1, "signatures": [{}]}))
        rc, err = run(identify_args(ws, ws / "sspe", tmp_path, registry=registry))
        assert rc == 2
        assert str(registry) in err and "'attack_name'" in err

    def test_threshold_with_string_n1(self, ws, tmp_path):
        dataset = copy_dataset(ws, tmp_path)
        edit_json(dataset / "threshold.json", lambda d: d.update(n1="a"))
        rc, err = run(sweep_args(tmp_path, dataset))
        assert rc == 2
        assert str(dataset / "threshold.json") in err and "'n1'" in err

    def test_split_without_train_indices(self, ws, tmp_path):
        dataset = copy_dataset(ws, tmp_path)
        edit_json(dataset / "dataset.json", lambda d: d["split"].pop("train_indices"))
        rc, err = run(["train", "--dataset", dataset, "--task", "detect",
                       "--families", "glm_binomial"])
        assert rc == 2
        assert str(dataset / "dataset.json") in err and "'train_indices'" in err

    def test_split_index_out_of_range(self, ws, tmp_path):
        dataset = copy_dataset(ws, tmp_path)
        edit_json(dataset / "dataset.json", lambda d: d["split"]["test_indices"].append(10**6))
        rc, err = run(["train", "--dataset", dataset, "--task", "detect",
                       "--families", "glm_binomial"])
        assert rc == 2
        assert str(dataset / "dataset.json") in err and "'test_indices'" in err

    def test_negative_split_index(self, ws, tmp_path):
        # numpy would read -1 as the last row instead of failing.
        dataset = copy_dataset(ws, tmp_path)
        edit_json(dataset / "dataset.json", lambda d: d["split"]["train_indices"].append(-1))
        rc, _ = run(["train", "--dataset", dataset, "--task", "detect",
                     "--families", "glm_binomial"])
        assert rc == 2

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

    def test_unknown_config_key(self, ws, tmp_path):
        rc, err = run(sweep_args(tmp_path, ws / "sspe", ratio=[0.5]))
        assert rc == 1
        assert str(tmp_path / "sweep.json") in err and "'ratio'" in err
        assert not (tmp_path / "rep").exists()

    def test_train_locks_the_dataset_directory(self, ws, tmp_path):
        # threshold.json lives in the dataset directory, so writing it waits
        # for that directory's lock, not only the models/<task> lock.
        dataset = copy_dataset(ws, tmp_path)
        before = (dataset / "threshold.json").read_bytes()
        (dataset / ".lock").write_text(str(os.getpid()))
        rc, err = run(["train", "--dataset", dataset, "--task", "detect", "--families",
                       "glm_binomial", "--threshold-mode", "as-paper"])
        assert rc == 3
        assert str(dataset / ".lock") in err
        assert (dataset / "threshold.json").read_bytes() == before


BAD_CONFIG_VALUES = [
    ("build-dataset", "window", float("inf")),
    ("build-dataset", "out", 5),
    ("build-dataset", "input", ["x.csv"]),
    ("build-dataset", "features", "f0"),
    ("build-dataset", "majority_ratio", float("nan")),
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
]


class TestConfigValues:
    @pytest.mark.parametrize("command,key,value", BAD_CONFIG_VALUES)
    def test_bad_value_exits_1(self, ws, tmp_path, command, key, value):
        shutil.copytree(ws / "sspe", tmp_path / "sspe")
        shutil.copytree(ws / "baseline", tmp_path / "baseline")
        cfg = {**base_configs(ws, tmp_path)[command], key: value}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        rc, err = run([command, "--config", tmp_path / "config.json"])
        assert rc == 1, err

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
    "tags not strings": lambda d: d.update(window_tags=[0] * len(d["window_tags"])),
    "tags a string": lambda d: d.update(window_tags="x" * len(d["window_tags"])),
    "split a list": lambda d: d.update(split=[1, 2]),
    "index a float": lambda d: d["split"]["train_indices"].__setitem__(0, 1.0),
    "window infinite": lambda d: d["provenance"].update(window=float("inf")),
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
    "one bin edge": lambda d: d["signatures"][0].update(bin_edges=[0.0], counts=[]),
    "nested edges": lambda d: d["signatures"][0].update(bin_edges=[[0.0, 1.0]]),
    "edge not finite": lambda d: d["signatures"][0]["bin_edges"].__setitem__(-1, float("inf")),
    "count not finite": lambda d: d["signatures"][0]["counts"].__setitem__(0, float("nan")),
    "count a string": lambda d: d["signatures"][0]["counts"].__setitem__(0, "a"),
}


@pytest.mark.parametrize("edit", sorted(REGISTRY_EDITS))
def test_bad_registry_exits_2(ws, tmp_path, edit):
    registry = tmp_path / "registry.json"
    shutil.copy(ws / "registry.json", registry)
    edit_json(registry, REGISTRY_EDITS[edit])
    rc, err = run(identify_args(ws, ws / "sspe", tmp_path, registry=registry))
    assert rc == 2, err
    assert str(registry) in err


THRESHOLD_EDITS = {
    "tau a string": {"tau": "0.5"},
    "tau not finite": {"tau": float("nan")},
    "mode unknown": {"mode": "median"},
    "n a float": {"n": 10.0},
    "n1 above n": {"n1": 10**6},
    "n1 a bool": {"n1": True},
}


@pytest.mark.parametrize("edit", sorted(THRESHOLD_EDITS))
def test_bad_threshold_exits_2(ws, tmp_path, edit):
    dataset = copy_dataset(ws, tmp_path)
    edit_json(dataset / "threshold.json", lambda d: d.update(THRESHOLD_EDITS[edit]))
    rc, err = run(sweep_args(tmp_path, dataset))
    assert rc == 2, err
    assert str(dataset / "threshold.json") in err


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
                       "identify", "train", "as-paper", "f0"])
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


CONFIG_KEYS = sorted(set(DEFAULTS) | {"datasets", "dataset", "registry", "model", "input",
                                      "schema", "scenario", "out", "bogus"})


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


def corrupt(path: Path, data) -> None:
    """Replace, delete or add one value somewhere in the JSON file: walk
    down from the root, at each container picking a key and stopping or
    descending, so every key of every level gets drawn."""
    doc = json.loads(path.read_text())
    parent = doc
    while True:
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                        else range(len(parent))))
        child = parent[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        parent = child
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(alphabet="abf0_", max_size=4))] = data.draw(JSON_VALUES)
    else:
        parent.insert(key, data.draw(JSON_VALUES))
    path.write_text(json.dumps(doc))


# file -> the commands that read it; "{d}" is the copied sspe dataset.
CORRUPTIBLE = {
    "threshold": ("{d}/threshold.json", ["sweep"]),
    "sidecar": ("{d}/dataset.json", ["train", "sweep", "identify"]),
    "registry": ("reg.json", ["identify"]),
    "detect model": ("{d}/models/detect/glm_binomial.json", ["sweep"]),
    "identify model": ("{d}/models/identify/glm_gaussian.json", ["sweep", "identify"]),
}


@FUZZ
@given(target=st.sampled_from(sorted(CORRUPTIBLE)), data=st.data())
def test_corrupted_artifacts_exit_0_1_or_2(ws, target, data):
    with scratch_dir() as tmp:
        shutil.copytree(ws / "sspe", tmp / "sspe")
        shutil.copy(ws / "registry.json", tmp / "reg.json")
        pattern, commands = CORRUPTIBLE[target]
        corrupt(tmp / pattern.format(d="sspe"), data)
        command = data.draw(st.sampled_from(commands))
        cfg = base_configs(ws, tmp)[command]
        if command == "sweep":
            cfg["datasets"] = {"sspe": cfg["datasets"]["sspe"]}
        if command == "identify":
            cfg.pop("make_registry")
        (tmp / "config.json").write_text(json.dumps(cfg))
        rc, err = run([command, "--config", tmp / "config.json"])
        assert rc in (0, 1, 2), err
