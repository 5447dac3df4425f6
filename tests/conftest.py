"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import base64
import fcntl
import os
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from tspec import (
    AttackSegment,
    Dataset,
    MethodArtifacts,
    ModelSpec,
    PacketTimeline,
    SyntheticScenario,
    assemble_dataset,
    derive_seed,
    detection_truth,
    split_dataset,
    train,
    zscore_apply,
    zscore_fit,
)


# Model file version 6, read and written independently of tspec.models.
def unpack(text, dtype):
    """A model file array: base64 of its little-endian bytes."""
    return np.frombuffer(base64.b64decode(text), np.dtype(dtype).newbyteorder("<"))


def pack(array, dtype):
    return base64.b64encode(np.asarray(array, np.dtype(dtype).newbyteorder("<")).tobytes()).decode()


def feature_type(feature_count):
    return np.min_scalar_type(-feature_count)


def code_type(table_size):
    return np.min_scalar_type(max(table_size - 1, 0))


def node_lists(payload):
    """A tree model file's node table as three preorder lists of numbers:
    ``feature``, ``threshold`` and the leaves' ``value``."""
    table, width = payload["parameters"], payload["feature_count"]
    values = unpack(table["value_table"], np.float64)
    return {"feature": unpack(table["feature"], feature_type(width)).tolist(),
            "threshold": unpack(table["threshold"], np.float64).tolist(),
            "value": values[unpack(table["value_code"], code_type(values.size))].tolist()}


def set_node_lists(payload, lists):
    """``lists`` (as ``node_lists`` gives them) packed into the file's table."""
    table, width = payload["parameters"], payload["feature_count"]
    bits = np.asarray(lists["value"], dtype=np.float64).view(np.uint64)
    values, codes = np.unique(bits, return_inverse=True)
    table.update(feature=pack(lists["feature"], feature_type(width)),
                 threshold=pack(lists["threshold"], np.float64),
                 value_table=pack(values.view(np.float64), np.float64),
                 value_code=pack(codes, code_type(values.size)))


@contextmanager
def held_lock(lock):
    """An exclusive ``flock`` on the file ``lock``, taken through a handle
    of its own, so it blocks the CLI's output lock in this process too."""
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def use_cpus(monkeypatch, count):
    """Give this process ``count`` CPUs, as its affinity mask would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def make_timeline(seconds, labels=None, width=2, attacks=None, rng=None):
    """Quick timeline builder: one row per entry of ``seconds``, with one
    attack name per second encoded as codes; label-0 seconds lose theirs."""
    n = len(seconds)
    labels = labels if labels is not None else [0] * n
    attacks = attacks if attacks is not None else [""] * n
    rng = rng or np.random.default_rng(7)
    named = [a if l else "" for l, a in zip(labels, attacks)]
    names = sorted({"", *named})
    code = {name: i for i, name in enumerate(names)}
    return PacketTimeline(
        seconds=np.asarray(seconds, dtype=np.int64).reshape(n),
        features=rng.normal(size=(n, width)),
        labels=labels,
        feature_names=tuple(f"f{j}" for j in range(width)),
        attack_codes=[code[a] for a in named],
        attack_names=names,
    )


def timeline_attacks(timeline) -> tuple[str, ...]:
    """The attack name of each second."""
    return tuple(timeline.attack_names[c] for c in timeline.attack_codes.tolist())


def dataset_tags(ds) -> tuple[str, ...]:
    """The attack name of each dataset row ("" when untagged)."""
    return tuple(ds.attack_names[c] for c in ds.tag_codes.tolist())


def tagged_dataset(tags):
    """A hand-built dataset with one row per tag, encoded as codes into the
    sorted tag names."""
    names = sorted({"", *tags})
    m = len(tags)
    return Dataset(
        features=np.zeros((m, 1)),
        spectrum_labels=np.zeros(m),
        binary_labels=np.array([int(tag != "") for tag in tags], dtype=np.int64),
        tag_codes=np.array([names.index(tag) for tag in tags], dtype=np.int64),
        attack_names=names,
    )


def timeline_rows(timeline):
    """A timeline as (second, features, label, attack) tuples."""
    return list(
        zip(
            timeline.seconds.tolist(),
            map(tuple, timeline.features.tolist()),
            timeline.labels.tolist(),
            timeline_attacks(timeline),
        )
    )


def same_timeline(a, b) -> bool:
    return a.feature_names == b.feature_names and timeline_rows(a) == timeline_rows(b)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: float arrays equal bit for bit."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def identical_timelines(a, b) -> bool:
    """Equal names, and columns of equal dtype, layout and bytes."""
    columns = ("seconds", "features", "labels", "attack_codes")
    return (a.feature_names, a.attack_names) == (b.feature_names, b.attack_names) and all(
        same_bits(getattr(a, c), getattr(b, c))
        and getattr(a, c).flags.c_contiguous == getattr(b, c).flags.c_contiguous
        for c in columns
    )


def three_attack_scenario(offset=3.0, feature_count=6):
    """Burst/periodic/ramp scenario with three segments per attack type.

    The first cycle (used as training material by the identification
    protocol) carries longer segments; cycles two and three are identically
    shaped so held-out signatures match the evaluation segments.
    """
    segments = []
    start = 60
    for cycle in range(3):
        if cycle == 0:
            lens = {"burst": 75, "periodic": 105, "ramp": 90}
        else:
            lens = {"burst": 45, "periodic": 75, "ramp": 60}
        segments.append(
            AttackSegment("flood", start, lens["burst"], "burst", offset=offset)
        )
        start += lens["burst"] + 60
        segments.append(
            AttackSegment("beacon", start, lens["periodic"], "periodic", period=15, offset=offset)
        )
        start += lens["periodic"] + 60
        segments.append(
            AttackSegment("creep", start, lens["ramp"], "ramp", offset=offset)
        )
        start += lens["ramp"] + 60
    return SyntheticScenario(
        duration=start, feature_count=feature_count, segments=tuple(segments)
    )


def scenario_to_dict(scenario: SyntheticScenario) -> dict:
    return {
        "duration": scenario.duration,
        "feature_count": scenario.feature_count,
        "normal_mean": scenario.normal_mean,
        "normal_std": scenario.normal_std,
        "segments": [
            {
                "name": s.name,
                "start": s.start,
                "length": s.length,
                "pattern": s.pattern,
                "period": s.period,
                "offset": s.offset,
            }
            for s in scenario.segments
        ],
    }


def method_artifacts(
    timeline,
    method,
    seed,
    families,
    reg_families=(),
    window=30,
    d_model=8,
):
    """Window, label, standardize, and train one method's models,
    mirroring the CLI's build-dataset + train steps in memory."""
    ds = assemble_dataset(timeline, window, method, d_model)
    test = split_dataset(ds, derive_seed(seed, "split"))
    params = zscore_fit(ds.features[~test])
    train_ds, test_ds = (
        replace(
            ds,
            features=zscore_apply(ds.features[rows], params),
            spectrum_labels=ds.spectrum_labels[rows],
            binary_labels=ds.binary_labels[rows],
            tag_codes=ds.tag_codes[rows],
        )
        for rows in (~test, test)
    )

    labels = detection_truth(train_ds, train_ds)

    detect_models = {
        fam: train(
            ModelSpec(fam, "classify", seed=derive_seed(seed, "train", "detect", fam)),
            train_ds.features,
            labels,
        )
        for fam in families
    }
    regress_models = {
        fam: train(
            ModelSpec(fam, "regress", seed=derive_seed(seed, "train", "identify", fam)),
            train_ds.features,
            train_ds.spectrum_labels,
        )
        for fam in reg_families
    }
    return MethodArtifacts(
        train=train_ds,
        test=test_ds,
        detect_models=detect_models,
        regress_models=regress_models,
    )


@pytest.fixture(scope="session")
def attack_scenario():
    return three_attack_scenario()
