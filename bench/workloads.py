"""Workload table and input generation for the tspec CLI benchmark.

Every workload starts from the same scenario as the acceptance tests: 1,230
seconds, 6 features, and three cycles of flood (burst), beacon (periodic) and
creep (ramp).  A workload tiles that scenario, picks the window size, the
SSPE d_model, the label methods and the model families, and the noise ratios
of the sweep.  See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

FEATURE_COUNT = 6
SCENARIO_SECONDS = 1230
RATIOS = tuple(i / 10 for i in range(11))


def _segments() -> list[dict]:
    """Segments of the acceptance scenario (``three_attack_scenario`` in
    tests/conftest.py): the first cycle carries longer segments."""
    segments = []
    start = 60
    for cycle in range(3):
        if cycle == 0:
            lens = {"burst": 75, "periodic": 105, "ramp": 90}
        else:
            lens = {"burst": 45, "periodic": 75, "ramp": 60}
        for name, pattern in (("flood", "burst"), ("beacon", "periodic"), ("creep", "ramp")):
            segment = {"name": name, "start": start, "length": lens[pattern],
                       "pattern": pattern, "offset": 3.0}
            if pattern == "periodic":
                segment["period"] = 15
            segments.append(segment)
            start += lens[pattern] + 60
    assert start == SCENARIO_SECONDS
    return segments


def scenario(tiles: int) -> dict:
    """The acceptance scenario repeated ``tiles`` times back to back."""
    segments = [
        {**seg, "start": seg["start"] + k * SCENARIO_SECONDS}
        for k in range(tiles)
        for seg in _segments()
    ]
    return {
        "duration": tiles * SCENARIO_SECONDS,
        "feature_count": FEATURE_COUNT,
        "normal_mean": 0.0,
        "normal_std": 1.0,
        "segments": segments,
    }


@dataclass(frozen=True)
class Workload:
    tiles: int
    window: int
    d_model: int
    methods: tuple[str, ...]
    detect_families: tuple[str, ...]
    identify_families: tuple[str, ...]
    ratios: tuple[float, ...] = RATIOS

    @property
    def seconds(self) -> int:
        return self.tiles * SCENARIO_SECONDS

    @property
    def windows(self) -> int:
        return self.seconds - self.window + 1

    @property
    def feature_width(self) -> int:
        return self.window * FEATURE_COUNT


WORKLOADS = {
    # The paper's protocol; tree-bound (GBM fits dominate).
    "acceptance": Workload(
        tiles=1,
        window=30,
        d_model=8,
        methods=("baseline", "coap", "sspe"),
        detect_families=("glm_binomial", "random_forest", "gbm"),
        identify_families=("glm_gaussian",),
    ),
    # Data-path-bound: dataset save/load dominate, no trees at all.
    "tiled": Workload(
        tiles=8,
        window=30,
        d_model=8,
        methods=("sspe",),
        detect_families=("glm_binomial",),
        identify_families=("glm_gaussian",),
    ),
    # Forest-bound: bootstrap trees with per-node feature subsets, and a
    # prediction-heavy sweep; also a second window size and d_model.
    "forest": Workload(
        tiles=4,
        window=10,
        d_model=16,
        methods=("coap", "sspe"),
        detect_families=("random_forest",),
        identify_families=("random_forest",),
    ),
    # Not a benchmark workload: the self-test's tiny run, which still calls
    # every layer and every model family.
    "selftest": Workload(
        tiles=1,
        window=4,
        d_model=4,
        methods=("baseline", "coap", "sspe"),
        detect_families=("glm_binomial", "random_forest", "gbm"),
        identify_families=("glm_gaussian",),
        ratios=(0.0, 1.0),
    ),
}
