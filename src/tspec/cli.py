"""Command-line pipeline: synth, build-dataset, train, sweep, identify.

Every run is driven by one JSON config plus flag overrides (flags win), and
all randomness flows from a single ``--seed`` through named derived streams,
so rerunning any command with the same inputs reproduces its artifacts byte
for byte.  Exit codes: 0 success, 1 usage/config, 2 data error, 3 runtime.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .dataprep import (
    Dataset,
    SyntheticScenario,
    assemble_dataset,
    downsample_majority,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
    zscore_apply,
    zscore_fit,
)
from .errors import (
    ConfigError,
    DataError,
    PipelineError,
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
    labels_by_attack,
    run_noise_sweep,
)
from .identify import build_registry, load_registry, save_registry
from .ingest import FlowSchema, fill_missing_points, nonconstant_features, parse_flow_csv, select_features
from .models import ModelSpec, load_model, predict, save_model, train
from .seeds import derive_seed
from .spectrum import (
    LABEL_METHODS,
    EncodingConfig,
    THRESHOLD_MODES,
    ThresholdSpec,
    compute_threshold,
    is_spectrum_method,
    proportional_positive_count,
)

DEFAULTS = {
    "window": 30,
    "stride": 1,
    "method": "sspe",
    "d_model": 8,
    "threshold_mode": "rank-default",
    "test_fraction": 0.3,
    "stratify": True,
    "seed": 0,
    "task": "detect",
    "families": ["glm_binomial", "random_forest", "gbm"],
    "identify_families": [],
    "ratios": [i / 10 for i in range(11)],
    "noise_scale": 1.0,
    "noise_train": False,
    "majority_ratio": None,
    "features": None,
    "make_registry": None,
    "min_segment_windows": 5,
    "identify_bins": 50,
}

_TASK_MAP = {"detect": "classify", "identify": "regress"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _remove_stale_lock(lock: Path) -> bool:
    """Delete ``lock`` if the PID it records is not running; True when the
    lock is gone.  A live PID or an unreadable lock is left in place."""
    try:
        text = lock.read_text(encoding="utf-8")
        pid = int(text)
    except FileNotFoundError:
        return True
    except (OSError, ValueError):
        return False
    if pid <= 0:  # os.kill would signal a process group
        return False
    try:
        os.kill(pid, 0)
        return False  # alive
    except ProcessLookupError:
        pass  # no such process: the lock is stale
    except (OSError, OverflowError):  # e.g. alive but another user's
        return False
    # Rename first: of several runs reclaiming one stale lock, one wins.
    aside = lock.with_name(f"{lock.name}.stale.{os.getpid()}")
    try:
        os.rename(lock, aside)
    except FileNotFoundError:
        return True
    if aside.read_text(encoding="utf-8") != text:  # a live lock replaced it meanwhile
        os.rename(aside, lock)
        return False
    aside.unlink()
    return True


@contextmanager
def _output_lock(out_dir: Path):
    """Guard an output directory against concurrent writers.  The lock file
    records the writer's PID; a lock whose PID is no longer running is
    reclaimed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    fd = None
    for _ in range(3):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if not _remove_stale_lock(lock):
                break
    if fd is None:
        raise PipelineError(f"output directory is locked by another run: {lock}")
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return read_json_object(p, ConfigError, "config")


def _merge_config(args: argparse.Namespace) -> dict:
    """DEFAULTS, then the config file's keys, then the flags given.  The
    file may hold any key of DEFAULTS, any of the command's flags, and the
    sweep's ``datasets``; another key is a ``ConfigError``.  ``cfg["config"]``
    keeps the file's path for error messages."""
    cfg = dict(DEFAULTS)
    loaded = _load_config(args.config)
    known = (set(DEFAULTS) | set(vars(args)) | {"datasets"}) - {"config", "command"}
    unknown = sorted(set(loaded) - known)
    if unknown:
        raise ConfigError(f"{args.config}: unknown config key {', '.join(map(repr, unknown))}")
    cfg.update(loaded)
    for key, value in vars(args).items():
        if value is not None and key != "command":
            cfg[key] = value
    for key in ("families", "identify_families"):
        if isinstance(cfg[key], str):
            cfg[key] = _csv_list(cfg[key])
        if not _is_string_list(cfg[key]):
            raise _invalid(cfg, key)
    if cfg["features"] is not None and not _is_string_list(cfg["features"]):
        raise _invalid(cfg, "features")
    return cfg


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _invalid(cfg: dict, key: str) -> ConfigError:
    """The error for a bad value of ``key``.  Flags are checked by the
    parser, so a bad value comes from the config file, which it names."""
    where = f"{cfg['config']}: " if cfg.get("config") else ""
    return ConfigError(f"{where}config key {key!r} has an invalid value {cfg[key]!r}")


def _convert(cfg: dict, key: str, kind=int):
    """``kind(cfg[key])``, or a ``ConfigError`` naming the key."""
    try:
        return kind(cfg[key])
    except (TypeError, ValueError, OverflowError):
        raise _invalid(cfg, key) from None


def _float_list(values) -> list[float]:
    if not isinstance(values, list):
        raise TypeError("expected a list")
    return [float(v) for v in values]


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _ratio_list(text: str) -> list[float]:
    try:
        ratios = [float(part) for part in _csv_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ratio list: {text!r}") from None
    return ratios


def _path(cfg: dict, key: str, command: str | None = None) -> Path | None:
    """``cfg[key]`` as a path; ``None`` when unset, unless ``command``
    requires it."""
    value = cfg.get(key)
    if value in (None, ""):
        if command:
            raise ConfigError(f"{command} requires --{key.replace('_', '-')} (or config key {key!r})")
        return None
    if not isinstance(value, str):
        raise _invalid(cfg, key)
    return Path(value)


def _write_timeline_csv(timeline, path: Path):
    with atomic_write(path, encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", *timeline.feature_names, "label", "attack"])
        columns = zip(
            timeline.seconds.tolist(),
            timeline.features.tolist(),
            timeline.labels.tolist(),
            timeline.attacks,
        )
        for second, values, label, attack in columns:
            writer.writerow([second, *map(repr, values), label, attack])


def cmd_synth(cfg: dict) -> int:
    out = _path(cfg, "out", "synth")
    scenario = SyntheticScenario.from_json(_path(cfg, "scenario", "synth"))
    timeline = generate_synthetic(scenario, derive_seed(_convert(cfg, "seed"), "synth"))
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
    seed = _convert(cfg, "seed")
    scenario, flows = _path(cfg, "scenario"), _path(cfg, "input")
    if scenario:
        return generate_synthetic(SyntheticScenario.from_json(scenario), derive_seed(seed, "synth"))
    if flows:
        return parse_flow_csv(flows, FlowSchema.from_json(_path(cfg, "schema", "build-dataset")))
    raise ConfigError("build-dataset needs either --input + --schema or --scenario")


def cmd_build_dataset(cfg: dict) -> int:
    out = _path(cfg, "out", "build-dataset")
    seed = _convert(cfg, "seed")
    method = cfg["method"]
    test_fraction = _convert(cfg, "test_fraction", float)
    d_model = None
    if method == "sspe":  # check d_model before the input is read
        d_model = EncodingConfig(d_model=_convert(cfg, "d_model")).d_model

    timeline = _load_timeline(cfg)
    timeline = fill_missing_points(timeline, derive_seed(seed, "fill"))
    feature_list = cfg.get("features") or nonconstant_features(timeline)
    timeline = select_features(timeline, feature_list)

    ds = assemble_dataset(
        timeline,
        window_size=_convert(cfg, "window"),
        stride=_convert(cfg, "stride"),
        method=method,
        d_model=d_model,
    )
    if cfg.get("majority_ratio") is not None:
        ratio = _convert(cfg, "majority_ratio", float)
        ds = downsample_majority(ds, ratio, derive_seed(seed, "sample"))

    train_ds, test_ds = split_dataset(
        ds, test_fraction, derive_seed(seed, "split"), bool(cfg["stratify"])
    )
    zparams = zscore_fit(train_ds.features)
    standardized = replace(ds, features=zscore_apply(ds.features, zparams))

    with _output_lock(out):
        save_dataset(
            standardized,
            out,
            zparams,
            sidecar_extra={
                "split": {
                    "test_fraction": test_fraction,
                    "stratify": bool(cfg["stratify"]),
                    "seed": derive_seed(seed, "split"),
                    "train_indices": train_ds.provenance["row_indices"],
                    "test_indices": test_ds.provenance["row_indices"],
                },
                "seeds": {"base": seed, "fill": derive_seed(seed, "fill")},
            },
        )
    print(
        f"build-dataset: {len(ds)} windows x {ds.features.shape[1]} features "
        f"(method={method}) -> {out}"
    )
    return 0


def _load_split(dataset_dir: Path) -> tuple[Dataset, Dataset, Dataset, dict]:
    ds, sidecar = load_dataset(dataset_dir)
    split = sidecar.get("split")
    if not split:
        raise DataError(f"dataset under {dataset_dir} has no recorded split")
    parts, n = [], len(ds)
    for key, role in (("train_indices", "train"), ("test_indices", "test")):
        rows = split.get(key) if isinstance(split, dict) else None
        if not isinstance(rows, list) or not all(type(i) is int and 0 <= i < n for i in rows):
            raise DataError(
                f"{dataset_dir / 'dataset.json'}: split key {key!r} must be a list of "
                f"row indices in [0, {n})"
            )
        parts.append(ds.take(np.asarray(rows, dtype=np.int64), role=role))
    return ds, *parts, sidecar


def _threshold_path(dataset_dir: Path) -> Path:
    return dataset_dir / "threshold.json"


def cmd_train(cfg: dict) -> int:
    dataset_dir = _path(cfg, "dataset", "train")
    task = cfg["task"]
    if not isinstance(task, str) or task not in _TASK_MAP:
        raise ConfigError(f"task must be one of {sorted(_TASK_MAP)}, got {task!r}")
    families = cfg["families"]
    seed = _convert(cfg, "seed")

    _, train_ds, _, sidecar = _load_split(dataset_dir)
    method = sidecar["provenance"]["method"]
    labels, threshold = train_ds.spectrum_labels, None
    if task == "detect":
        if is_spectrum_method(method):
            fraction = float(sidecar["provenance"]["attack_bit_fraction"])
            n1 = proportional_positive_count(len(train_ds), fraction)
            threshold = compute_threshold(train_ds.spectrum_labels, n1, cfg["threshold_mode"])
        labels = detection_truth(method, train_ds, threshold)

    model_root = (_path(cfg, "out") or dataset_dir) / "models" / task
    with _output_lock(model_root):
        if threshold is not None:
            with _output_lock(dataset_dir):
                write_json(_threshold_path(dataset_dir), asdict(threshold))
        for family in families:
            spec = ModelSpec(
                family=family,
                task=_TASK_MAP[task],
                seed=derive_seed(seed, "train", task, family),
            )
            model = train(spec, train_ds.features, labels)
            save_model(model, model_root / f"{family}.json")
            print(f"train: {family} ({task}) -> {model_root / (family + '.json')}")
    return 0


def _load_threshold(dataset_dir: Path) -> ThresholdSpec:
    path = _threshold_path(dataset_dir)
    if not path.exists():
        raise DataError(f"no fitted threshold found at {path}; run train --task detect first")
    data = read_json_object(path, DataError, "threshold")
    checks = {
        "tau": lambda v: type(v) in (int, float) and math.isfinite(v),
        "mode": lambda v: v in THRESHOLD_MODES,
        "n1": lambda v: type(v) is int,
        "n": lambda v: type(v) is int,
    }
    for key, valid in checks.items():
        if key not in data:
            raise DataError(f"{path}: threshold file is missing key {key!r}")
        if not valid(data[key]):
            raise DataError(f"{path}: threshold key {key!r} has an invalid value {data[key]!r}")
    try:
        return ThresholdSpec(tau=float(data["tau"]), mode=data["mode"], n1=data["n1"], n=data["n"])
    except ConfigError as exc:  # n1 outside [0, n]
        raise DataError(f"{path}: {exc}") from None


def cmd_sweep(cfg: dict) -> int:
    out = _path(cfg, "out", "sweep")
    datasets = cfg.get("datasets")
    if not isinstance(datasets, dict) or not datasets:
        raise ConfigError("sweep config needs a 'datasets' object mapping method -> dataset dir")
    if not all(isinstance(d, str) and d for d in datasets.values()):
        raise _invalid(cfg, "datasets")
    families = cfg["families"]
    identify_families = cfg["identify_families"]
    seed = _convert(cfg, "seed")
    ratios = _convert(cfg, "ratios", _float_list)
    noise_scale = _convert(cfg, "noise_scale", float)

    methods: dict[str, MethodArtifacts] = {}
    for method, dataset_dir in datasets.items():
        dataset_dir = Path(dataset_dir)
        _, train_ds, test_ds, sidecar = _load_split(dataset_dir)
        if sidecar["provenance"]["method"] != method:
            raise ConfigError(
                f"dataset under {dataset_dir} was built with method "
                f"{sidecar['provenance']['method']!r}, not {method!r}"
            )
        spectrum = is_spectrum_method(method)
        threshold = _load_threshold(dataset_dir) if spectrum else None
        detect_models = {
            family: load_model(dataset_dir / "models" / "detect" / f"{family}.json")
            for family in families
        }
        regress_models = {}
        if spectrum:
            regress_models = {
                family: load_model(dataset_dir / "models" / "identify" / f"{family}.json")
                for family in identify_families
            }
        methods[method] = MethodArtifacts(
            train=train_ds,
            test=test_ds,
            threshold=threshold,
            detect_models=detect_models,
            regress_models=regress_models,
        )

    sweep = SweepConfig(
        methods=methods,
        ratios=tuple(ratios),
        noise_scale=noise_scale,
        base_seed=seed,
        noise_train=bool(cfg["noise_train"]),
        identify_bins=_convert(cfg, "identify_bins"),
        min_segment_windows=_convert(cfg, "min_segment_windows"),
        config_echo={
            # Method names only: reports must not depend on where a run puts
            # its artifacts, or byte-identical reruns break.
            "methods": sorted(datasets),
            "families": list(families),
            "identify_families": list(identify_families),
            "ratios": ratios,
            "noise_scale": noise_scale,
            "noise_train": bool(cfg["noise_train"]),
            "seed": seed,
        },
    )
    report = run_noise_sweep(sweep)
    with _output_lock(out):
        written = emit_report(report, out)
    print(f"sweep: {len(report.rows)} rows -> {written[0]}")
    return 0


def cmd_identify(cfg: dict) -> int:
    out = _path(cfg, "out", "identify")
    dataset_dir = _path(cfg, "dataset", "identify")
    registry_path = _path(cfg, "registry", "identify")
    model_path = _path(cfg, "model")

    full, train_ds, test_ds, sidecar = _load_split(dataset_dir)
    if full.window_tags is None:
        raise DataError("identification needs a dataset built with attack tags")

    make = cfg.get("make_registry")
    if make:
        portions = {"train": train_ds, "test": test_ds, "all": full}
        if not isinstance(make, str) or make not in portions:
            raise ConfigError(f"make_registry must be train, test, or all, got {make!r}")
        portion = portions[make]
        signatures = build_registry(
            labels_by_attack(portion),
            bins=_convert(cfg, "identify_bins"),
            method=sidecar["provenance"]["method"],
            d_model=sidecar["provenance"].get("d_model"),
        )
        save_registry(signatures, registry_path)

    signatures = load_registry(registry_path)
    if not model_path:
        family = (cfg["identify_families"] or ["glm_gaussian"])[0]
        model_path = dataset_dir / "models" / "identify" / f"{family}.json"
    model = load_model(model_path)

    predictions = predict(model, test_ds.features)
    results, truth = identify_segments(
        predictions,
        test_ds.window_tags,
        signatures,
        min_windows=_convert(cfg, "min_segment_windows"),
    )
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
    with _output_lock(out):
        write_json(out / "identification.json", payload)
    print(f"identify: accuracy {accuracy:.4f} over {len(results)} segments -> {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, help="base seed for all derived RNG streams")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic flow CSV from a scenario")
    common(p)
    p.add_argument("--scenario", help="scenario JSON file")

    p = sub.add_parser("build-dataset", help="CSV/scenario -> windowed, labeled dataset")
    common(p)
    p.add_argument("--input", help="flow CSV file")
    p.add_argument("--schema", help="schema JSON mapping column roles")
    p.add_argument("--scenario", help="synthetic scenario JSON (alternative to --input)")
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--method", choices=LABEL_METHODS)
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)

    p = sub.add_parser("train", help="train model families on a built dataset")
    common(p)
    p.add_argument("--dataset", help="dataset directory from build-dataset")
    p.add_argument("--task", choices=["detect", "identify"])
    p.add_argument("--families", type=_csv_list)
    p.add_argument("--threshold-mode", dest="threshold_mode", choices=THRESHOLD_MODES)

    p = sub.add_parser("sweep", help="noise-ratio sweep over trained models")
    common(p)
    p.add_argument("--families", type=_csv_list)
    p.add_argument("--identify-families", dest="identify_families", type=_csv_list)
    p.add_argument("--ratios", type=_ratio_list)
    p.add_argument("--noise-scale", dest="noise_scale", type=float)

    p = sub.add_parser("identify", help="per-segment attack identification")
    common(p)
    p.add_argument("--dataset", help="dataset directory from build-dataset")
    p.add_argument("--model", help="regression model file")
    p.add_argument("--registry", help="signature registry JSON")
    p.add_argument(
        "--make-registry",
        dest="make_registry",
        choices=["train", "test", "all"],
        help="build the registry from this portion's true labels first",
    )
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "build-dataset": cmd_build_dataset,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "identify": cmd_identify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
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


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
