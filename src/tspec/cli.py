"""Command-line pipeline: synth, build-dataset, train, sweep, identify.

Every run is driven by one JSON config plus flag overrides (flags win), and
all randomness flows from a single ``--seed`` through named derived streams,
so rerunning any command with the same inputs reproduces its artifacts byte
for byte.  ``KEYS`` describes each config key once: its kind, default and
valid values, and the commands that take it as a flag.  Exit codes: 0
success, 1 usage/config, 2 data error, 3 runtime, 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import hashlib
import io
import itertools
import math
import os
import signal
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .dataprep import (
    SyntheticScenario,
    assemble_dataset,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
    zscore_fit,
)
from .errors import (
    ConfigError,
    DataError,
    PipelineError,
    Range,
    atomic_write,
    read_json_object,
    write_json,
)
from .evalharness import (
    MethodArtifacts,
    SweepConfig,
    detection_truth,
    emit_report,
    identification_accuracy,
    identify_segments,
    run_noise_sweep,
    training_registry,
)
from .identify import load_registry, save_registry
from .ingest import FlowSchema, fill_missing_points, nonconstant_features, parse_flow_csv, select_features
from .models import FAMILIES, ModelSpec, load_model, predict, save_model, train
from .seeds import derive_seed
from .spectrum import LABEL_METHODS, check_d_model, is_spectrum_method

_TASK_MAP = {"detect": "classify", "identify": "regress"}


@dataclass(frozen=True)
class Key:
    """One config key.  ``kind`` is ``int``, ``bool``, ``choice``,
    ``path``, ``names`` (a list of strings), ``reals`` (a list of numbers) or
    ``datasets`` (the sweep's object mapping label methods to dataset
    directories).  ``valid`` is a ``Range`` for numbers, the allowed strings
    for choices, names (``None``: any) and dataset methods, or a function
    that checks a value and returns it typed.  ``None`` is valid only where
    it is the default, and an empty list only where the default is empty.
    ``flag`` names the commands that take the key as a flag, ``required``
    those that cannot run without it."""

    kind: str
    default: object = None
    valid: object = None
    flag: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    help: str | None = None


_ALL = ("synth", "build-dataset", "train", "sweep", "identify")
_BUILD = ("build-dataset",)

KEYS = {
    "seed": Key("int", 0, Range(-math.inf), _ALL, help="base seed for all derived RNG streams"),
    "out": Key("path", flag=_ALL, required=("synth", "build-dataset", "sweep", "identify"),
               help="output directory"),
    "scenario": Key("path", flag=("synth", *_BUILD), required=("synth",),
                    help="synthetic scenario JSON (build-dataset: instead of --input)"),
    "input": Key("path", flag=_BUILD, help="flow CSV file"),
    "schema": Key("path", flag=_BUILD, help="schema JSON mapping column roles"),
    "dataset": Key("path", flag=("train", "identify"), required=("train", "identify"),
                   help="dataset directory from build-dataset"),
    "model": Key("path", flag=("identify",), help="regression model file"),
    "registry": Key("path", flag=("identify",), required=("identify",),
                    help="signature registry JSON"),
    "datasets": Key("datasets", valid=LABEL_METHODS, required=("sweep",)),
    "window": Key("int", 30, Range(1), _BUILD, help="window length in seconds"),
    "method": Key("choice", "sspe", LABEL_METHODS, _BUILD, help="label method"),
    "d_model": Key("int", 8, check_d_model, _BUILD, help="SSPE encoding dimension (even)"),
    "features": Key("names"),
    "task": Key("choice", "detect", tuple(_TASK_MAP), ("train",), help="model task"),
    "families": Key("names", ["glm_binomial", "random_forest", "gbm"], tuple(FAMILIES),
                    ("train", "sweep"), help="comma-separated model families"),
    "identify_families": Key("names", [], tuple(FAMILIES), ("sweep",),
                             help="comma-separated regression families to identify with"),
    "ratios": Key("reals", [i / 10 for i in range(11)], Range(0, 1), ("sweep",),
                  help="comma-separated noise ratios"),
    "noise_train": Key("bool", False),
    "make_registry": Key("choice", None, ("train",), ("identify",),
                         help="build the registry from the training split's labels first"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextmanager
def _output_lock(out_dir: Path):
    """Guard an output directory against concurrent writers with an
    exclusive ``flock`` on its ``.lock``, held until the block ends.  The
    kernel drops the lock when its holder ends, however it ends, so a
    ``.lock`` that a crashed run left locks nothing."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, a name too long, no permission
        raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
    lock = out_dir / ".lock"
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        except OSError as exc:  # a directory in the way, no write permission
            raise ConfigError(f"cannot open lock file {lock}: {exc.strerror}") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise PipelineError(f"output directory is locked by another run: {lock}") from None
        with suppress(FileNotFoundError):
            if os.stat(lock).st_ino == os.fstat(fd).st_ino:
                break
        os.close(fd)  # the run before unlinked the file this one opened
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _unrepeated(name: str, values: list) -> list:
    """``values``, unless one of them repeats an earlier one."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"config key {name!r} repeats {repeated[0]!r}, in {values!r}")
    return values


def _typed(name: str, key: Key, value):
    """``value`` checked against ``key`` and typed: ints as ``int``, paths as
    ``Path``, lists without repeats; otherwise a ``ConfigError`` naming the
    key."""
    if value is None and key.default is None:
        return None
    kind, valid = key.kind, key.valid
    if callable(valid):
        return valid(value)
    some = "a list" if key.default == [] else "a non-empty list"
    is_list = isinstance(value, list) and (bool(value) or key.default == [])
    if kind == "int":
        what = valid.problem(value, Integral)
        if not what:
            return int(value)
    elif kind == "bool":
        if isinstance(value, bool):
            return value
        what = "true or false"
    elif kind in ("choice", "path"):
        if isinstance(value, str) and value and (valid is None or value in valid):
            return Path(value) if kind == "path" else value
        what = "a path" if kind == "path" else f"one of {', '.join(valid)}"
    elif kind == "names":
        if isinstance(value, str) and key.flag:  # the flag's text, in a config file
            return _typed(name, key, _csv_list(value))
        if is_list and all(isinstance(v, str) and (valid is None or v in valid) for v in value):
            return _unrepeated(name, list(value))
        what = f"{some} of {'names' if valid is None else ', '.join(valid)}"
    elif kind == "reals":
        if is_list and not any(valid.problem(v) for v in value):
            return _unrepeated(name, [float(v) for v in value])
        what = f"{some} of numbers in {valid}"
    else:  # datasets
        if isinstance(value, dict) and value and all(
            method in valid and isinstance(path, str) and path for method, path in value.items()
        ):
            return {method: Path(path) for method, path in value.items()}
        what = f"an object mapping {', '.join(valid)} to dataset directories"
    raise ConfigError(f"config key {name!r} must be {what}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    """Each key's default, then the config file's value, then the flag's,
    checked and typed by ``_typed`` before any input is read.  A config file
    may hold every key but the paths that only other commands take, so one
    file can carry the shared settings of all commands."""
    command = args.command
    loaded = read_json_object(Path(args.config), ConfigError, "config") if args.config else {}
    accepted = {name for name, key in KEYS.items() if key.kind != "path" or command in key.flag}
    unknown = sorted(set(loaded) - accepted)
    if unknown:
        raise ConfigError(f"{args.config}: unknown config key {', '.join(map(repr, unknown))}")
    cfg = {}
    for name, key in KEYS.items():
        flagged = getattr(args, name, None)
        value = loaded.get(name, key.default) if flagged is None else flagged
        try:
            cfg[name] = _typed(name, key, value)
        except ConfigError as exc:
            where = f"{args.config}: " if flagged is None and name in loaded else ""
            raise ConfigError(f"{where}{exc}") from None
        if cfg[name] is None and command in key.required:
            how = f"config key {name!r}"
            how = f"{_flag(name)} (or {how})" if command in key.flag else how
            raise ConfigError(f"{command} requires {how}")
    return cfg


def _csv_row(cells) -> str:
    """One row as ``csv.writer`` writes it, ``\\r\\n`` included."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue()


def _write_timeline_csv(timeline, path: Path):
    """The bytes of ``csv.writer`` writing one row per second (seconds and
    labels by ``str``, features by ``repr``), formatted a column at a time."""
    # Each name quoted once, beside another cell: a lone empty field is "".
    names = np.array([_csv_row(["", name])[1:-2] for name in timeline.attack_names], dtype=object)
    columns = (
        map(str, timeline.seconds.tolist()),
        *(map(repr, column) for column in timeline.features.T.tolist()),
        map(str, timeline.labels.tolist()),
        names[timeline.attack_codes],
    )
    rows = map("{}\r\n".format, map(",".join, zip(*columns)))
    with atomic_write(path, encoding="utf-8", newline="") as handle:
        handle.write(_csv_row(["time", *timeline.feature_names, "label", "attack"]))
        # A block of rows per write: the whole file's rows joined at once
        # raised the peak RSS of a process that goes on to build a dataset.
        while block := "".join(itertools.islice(rows, 1024)):
            handle.write(block)


def cmd_synth(cfg: dict) -> int:
    out = cfg["out"]
    scenario = SyntheticScenario.from_json(cfg["scenario"])
    timeline = generate_synthetic(scenario, derive_seed(cfg["seed"], "synth"))
    with _output_lock(out):
        _write_timeline_csv(timeline, out / "synthetic.csv")
        schema = FlowSchema(
            timestamp_column="time",
            label_column="label",
            feature_columns=timeline.feature_names,
            attack_name_column="attack",
            timestamp_format="epoch",
        )
        write_json(out / "schema.json", schema.to_dict())
    print(f"synth: wrote {len(timeline)} records to {out / 'synthetic.csv'}")
    return 0


def _load_timeline(cfg: dict):
    if cfg["scenario"]:
        given = [name for name in ("scenario", "input", "schema") if cfg[name]]
        if len(given) > 1:
            raise ConfigError(f"build-dataset takes 'scenario' or 'input' + 'schema', "
                              f"not both; got {', '.join(map(repr, given))}")
        scenario = SyntheticScenario.from_json(cfg["scenario"])
        return generate_synthetic(scenario, derive_seed(cfg["seed"], "synth"))
    if cfg["input"] and cfg["schema"]:
        return parse_flow_csv(cfg["input"], FlowSchema.from_json(cfg["schema"]))
    raise ConfigError("build-dataset needs either --input + --schema or --scenario")


def cmd_build_dataset(cfg: dict) -> int:
    out, seed, method = cfg["out"], cfg["seed"], cfg["method"]
    source = cfg["scenario"] or cfg["input"]
    timeline = _load_timeline(cfg)
    timeline = fill_missing_points(timeline, derive_seed(seed, "fill"))
    features = cfg["features"] or nonconstant_features(timeline)
    if not features:
        raise DataError(f"{source}: every feature column is constant")
    timeline = select_features(timeline, features)

    split_seed = derive_seed(seed, "split")
    try:
        ds = assemble_dataset(timeline, cfg["window"], method, cfg["d_model"])
        test = split_dataset(ds, split_seed)
        zparams = zscore_fit(ds.features, ~test)  # the rows are z-scored on load
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None

    with _output_lock(out):
        save_dataset(
            timeline,
            out,
            zparams,
            test,
            window=cfg["window"],
            method=method,
            d_model=cfg["d_model"],
            sidecar_extra={
                "split": {"seed": split_seed},
                "seeds": {"base": seed, "fill": derive_seed(seed, "fill")},
            },
        )
    print(
        f"build-dataset: {len(ds)} windows x {ds.features.shape[1]} features "
        f"(method={method}) -> {out}"
    )
    return 0


def _refuse_baseline(command: str, dataset_dir: Path, method: str):
    """A ``ConfigError`` unless the dataset has spectrum labels to identify by."""
    if not is_spectrum_method(method):
        raise ConfigError(f"{command} needs a coap or sspe dataset, but the dataset "
                          f"under {dataset_dir} has method {method!r}")


def cmd_train(cfg: dict) -> int:
    dataset_dir, task = cfg["dataset"], cfg["task"]
    specs = [
        ModelSpec(family, _TASK_MAP[task], derive_seed(cfg["seed"], "train", task, family))
        for family in cfg["families"]
    ]

    train_ds = load_dataset(dataset_dir)[0]  # the test split is not kept through the fits
    digest = _dataset_digest(dataset_dir)
    if task == "detect":
        labels = detection_truth(train_ds, train_ds)
    else:
        _refuse_baseline("train --task identify", dataset_dir, train_ds.provenance["method"])
        labels = train_ds.spectrum_labels

    model_root = (cfg["out"] or dataset_dir) / "models" / task
    with _output_lock(model_root):
        for spec in specs:
            path = model_root / f"{spec.family}.json"
            try:
                model = train(spec, train_ds.features, labels, digest)
            except DataError as exc:
                raise DataError(f"{dataset_dir}: {spec.family}: {exc}") from None
            save_model(model, path)
            print(f"train: {spec.family} ({task}) -> {path}")
    return 0


def _dataset_digest(dataset_dir: Path) -> str:
    """The SHA-256 of ``dataset.json``, which pins the arrays, method and seeds."""
    return hashlib.sha256((dataset_dir / "dataset.json").read_bytes()).hexdigest()


def _load_model_for(path: Path, task: str, width: int, dataset_dir: Path):
    """``load_model(path)``, refused unless it was trained for ``task``'s
    model task on rows of ``width`` features, from the dataset under
    ``dataset_dir``."""
    model = load_model(path)
    if (model.spec.task, model.feature_count) != (_TASK_MAP[task], width):
        raise DataError(
            f"{path}: a {model.spec.task} model of {model.feature_count} features, but "
            f"{task} needs a {_TASK_MAP[task]} model of the dataset's {width} features"
        )
    if model.dataset_sha256 != _dataset_digest(dataset_dir):
        raise DataError(f"{path} was not trained from the dataset under {dataset_dir} (its "
                        "dataset_sha256 is not that dataset.json's SHA-256); retrain it")
    return model


def cmd_sweep(cfg: dict) -> int:
    datasets = cfg["datasets"]
    methods: dict[str, MethodArtifacts] = {}
    for method, dataset_dir in datasets.items():
        train_ds, test_ds = load_dataset(dataset_dir)
        if train_ds.provenance["method"] != method:
            raise ConfigError(
                f"dataset under {dataset_dir} was built with method "
                f"{train_ds.provenance['method']!r}, not {method!r}"
            )
        models = dataset_dir / "models"
        width = train_ds.features.shape[1]
        detect_models = {
            family: _load_model_for(models / "detect" / f"{family}.json", "detect", width,
                                    dataset_dir)
            for family in cfg["families"]
        }
        regress_models = {}
        if is_spectrum_method(method):
            regress_models = {
                family: _load_model_for(models / "identify" / f"{family}.json", "identify",
                                        width, dataset_dir)
                for family in cfg["identify_families"]
            }
        methods[method] = MethodArtifacts(
            train=train_ds,
            test=test_ds,
            detect_models=detect_models,
            regress_models=regress_models,
            source=dataset_dir,
        )

    sweep = SweepConfig(
        methods=methods,
        ratios=tuple(cfg["ratios"]),
        base_seed=cfg["seed"],
        noise_train=cfg["noise_train"],
        config_echo={
            # Method names only: reports must not depend on where a run puts
            # its artifacts, or byte-identical reruns break.
            "methods": sorted(datasets),
            **{key: cfg[key] for key in ("families", "identify_families", "ratios",
                                         "noise_train", "seed")},
        },
    )
    report = run_noise_sweep(sweep)
    with _output_lock(cfg["out"]):
        written = emit_report(report, cfg["out"])
    print(f"sweep: {len(report.rows)} rows -> {written[0]}")
    return 0


def cmd_identify(cfg: dict) -> int:
    out, dataset_dir, registry_path = cfg["out"], cfg["dataset"], cfg["registry"]

    train_ds, test_ds = load_dataset(dataset_dir)
    method, d_model = train_ds.provenance["method"], train_ds.provenance.get("d_model")
    _refuse_baseline("identify", dataset_dir, method)
    model_path = cfg["model"]
    if not model_path:
        family = (cfg["identify_families"] or ["glm_gaussian"])[0]
        model_path = dataset_dir / "models" / "identify" / f"{family}.json"
    model = _load_model_for(model_path, "identify", test_ds.features.shape[1], dataset_dir)

    if cfg["make_registry"]:
        try:
            registry = training_registry(train_ds)
        except DataError as exc:
            raise DataError(f"{dataset_dir}: {exc}") from None
    else:
        registry = load_registry(registry_path)
        if (registry.method, registry.d_model) != (method, d_model):
            raise DataError(
                f"{registry_path}: the registry is for method {registry.method!r} with "
                f"d_model {registry.d_model!r}, but the dataset under {dataset_dir} has "
                f"method {method!r} with d_model {d_model!r}"
            )

    predictions = predict(model, test_ds.features)
    try:
        results, truth = identify_segments(predictions, test_ds, registry)
    except DataError as exc:
        raise DataError(f"{dataset_dir}: {exc}") from None
    accuracy = identification_accuracy(results, truth)
    payload = {
        "accuracy": accuracy,
        "segments": [
            {
                "attack": want,
                "predicted": res.predicted_attack,
                "margin": res.margin,
                "similarities": res.similarities,
            }
            for res, want in zip(results, truth)
        ],
    }
    # Written only now, and under the lock: a refused run writes nothing.
    with _output_lock(out):
        if cfg["make_registry"]:
            save_registry(registry, registry_path)
        write_json(out / "identification.json", payload)
    print(f"identify: accuracy {accuracy:.4f} over {len(results)} segments -> {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def numbers(text: str) -> list[float]:  # argparse: "invalid numbers value: '0,a'"
        return [float(part) for part in _csv_list(text)]

    flag_types = {"int": int, "names": _csv_list, "reals": numbers}
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for name, key in KEYS.items():
            if command in key.flag:
                parse = {"choices": key.valid} if key.kind == "choice" else {
                    "type": flag_types.get(key.kind)
                }
                p.add_argument(_flag(name), dest=name, help=key.help, **parse)
    return parser


_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic flow CSV from a scenario"),
    "build-dataset": (cmd_build_dataset, "CSV/scenario -> windowed, labeled dataset"),
    "train": (cmd_train, "train model families on a built dataset"),
    "sweep": (cmd_sweep, "noise-ratio sweep over trained models"),
    "identify": (cmd_identify, "per-segment attack identification"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"tspec: config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"tspec: data error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"tspec: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"tspec: unexpected error: {exc!r}", file=sys.stderr)
        return 3


# A command ended by SIGTERM exits with this code (128 + the signal's number,
# as a shell reports it).
EXIT_TERMINATED = 128 + signal.SIGTERM


def _terminate(signum, frame):
    """SIGTERM leaves as an interrupt does, through every ``finally`` block:
    output locks are unlinked and forked workers killed and reaped.  A second
    SIGTERM is ignored, so that it cannot cut that cleanup short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise SystemExit(EXIT_TERMINATED)


def entrypoint():
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
