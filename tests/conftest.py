"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tspec import (
    AttackSegment,
    MethodArtifacts,
    ModelSpec,
    PacketTimeline,
    SyntheticScenario,
    binarize,
    assemble_dataset,
    compute_threshold,
    derive_seed,
    proportional_positive_count,
    split_dataset,
    train,
    zscore_apply,
    zscore_fit,
)


def make_timeline(seconds, labels=None, width=2, attacks=None, rng=None):
    """Quick timeline builder: one row per entry of ``seconds``."""
    n = len(seconds)
    labels = labels if labels is not None else [0] * n
    attacks = attacks if attacks is not None else [""] * n
    rng = rng or np.random.default_rng(7)
    return PacketTimeline(
        seconds=np.asarray(seconds, dtype=np.int64).reshape(n),
        features=rng.normal(size=(n, width)),
        labels=labels,
        feature_names=tuple(f"f{j}" for j in range(width)),
        attacks=[a if l else "" for l, a in zip(labels, attacks)],
    )


def timeline_rows(timeline):
    """A timeline as (second, features, label, fill, attack) tuples."""
    return list(
        zip(
            timeline.seconds.tolist(),
            map(tuple, timeline.features.tolist()),
            timeline.labels.tolist(),
            timeline.fill.tolist(),
            timeline.attacks,
        )
    )


def same_timeline(a, b) -> bool:
    return a.feature_names == b.feature_names and timeline_rows(a) == timeline_rows(b)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: float arrays equal bit for bit."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    test_fraction=0.3,
):
    """Window, label, standardize, threshold, and train one method's models,
    mirroring the CLI's build-dataset + train steps in memory."""
    ds = assemble_dataset(
        timeline, window, 1, method, d_model if method == "sspe" else None
    )
    train_ds, test_ds = split_dataset(ds, test_fraction, derive_seed(seed, "split"), True)
    params = zscore_fit(train_ds.features)
    standardized = replace(ds, features=zscore_apply(ds.features, params))
    train_ds = standardized.take(np.asarray(train_ds.provenance["row_indices"]), role="train")
    test_ds = standardized.take(np.asarray(test_ds.provenance["row_indices"]), role="test")

    threshold = None
    if method == "baseline":
        labels = train_ds.binary_labels
    else:
        n1 = proportional_positive_count(len(train_ds), ds.provenance["attack_bit_fraction"])
        threshold = compute_threshold(train_ds.spectrum_labels, n1)
        labels = binarize(train_ds.spectrum_labels, threshold)

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
        threshold=threshold,
        detect_models=detect_models,
        regress_models=regress_models,
    )


@pytest.fixture(scope="session")
def attack_scenario():
    return three_attack_scenario()
