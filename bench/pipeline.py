"""One run of the tspec CLI pipeline in a fresh process.

Writes the run's inputs (scenario and sweep config) from the workload and
seed, imports tspec from the checkout's ``src/``, then runs every CLI command
of the workload through ``tspec.cli.main``, one after another, in three
stages:

    build: synth -> build-dataset (per method)
    train: train --task detect / identify (per method)
    eval:  sweep -> identify

Each stage repeats, from a copy of the output tree as it was before the
stage, until its repeats have taken a third of ``--seconds`` (at least once),
and its time is the median over its repeats.  Short stages thus get many
samples and long ones at least one.  Every repeat of a stage must leave a
byte-identical output tree.  With ``--probe`` every time is scaled to the
reference host speed (see ``HostProbe``).

It checks the outputs and prints one JSON line: stage times, quality
metrics, the output tree's SHA-256, this process's peak RSS and, when traced,
the per-layer metrics.  ``run.py`` spawns it; it is not meant to be run by
hand, but can be:

    python3 bench/pipeline.py --workload acceptance --seed 0 --seconds 24 \
        --probe --work .bench_work/x
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS, Workload, scenario

ROOT = Path(__file__).resolve().parent.parent

STAGES = ("build_s", "train_s", "eval_s")
SETUP_PROBES = 4
# Which end-to-end time each CLI command counts toward.
STAGE_OF = {
    "synth": "build_s",
    "build-dataset": "build_s",
    "train": "train_s",
    "sweep": "eval_s",
    "identify": "eval_s",
}


def write_inputs(wl: Workload, seed: int, inputs: Path, out: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "scenario.json").write_text(json.dumps(scenario(wl.tiles), indent=2) + "\n")
    sweep = {
        "datasets": {m: str(out / m) for m in wl.methods},
        "families": list(wl.detect_families),
        "identify_families": list(wl.identify_families),
        "ratios": list(wl.ratios),
        "seed": seed,
    }
    (inputs / "sweep.json").write_text(json.dumps(sweep, indent=2) + "\n")


def import_cli():
    """``tspec.cli`` from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "tspec" / "cli.py").is_file():
        raise SystemExit(f"pipeline: no tspec sources under {src}")
    sys.path.insert(0, str(src))
    import tspec.cli

    if Path(tspec.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"pipeline: imported tspec from {tspec.cli.__file__}, not {src}")
    return tspec.cli


def environment() -> dict:
    """Versions and thread counts a later comparison must hold equal."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _openblas_threads(np) -> int | None:
    """Threads of numpy's bundled OpenBLAS (GLM fits use it), if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def stage_commands(wl: Workload, seed: int, inputs: Path, out: Path) -> dict[str, list[list[str]]]:
    """The workload's CLI commands, grouped by the stage they count toward."""
    stages = {stage: [] for stage in STAGE_OF.values()}
    for argv in commands(wl, seed, inputs, out):
        stages[STAGE_OF[argv[0]]].append(argv)
    return stages


def commands(wl: Workload, seed: int, inputs: Path, out: Path) -> list[list[str]]:
    raw = out / "raw"
    cmds = [["synth", "--seed", str(seed), "--scenario", str(inputs / "scenario.json"),
             "--out", str(raw)]]
    for method in wl.methods:
        cmds.append([
            "build-dataset", "--seed", str(seed), "--input", str(raw / "synthetic.csv"),
            "--schema", str(raw / "schema.json"), "--method", method,
            "--window", str(wl.window), "--d-model", str(wl.d_model), "--out", str(out / method),
        ])
    for method in wl.methods:
        cmds.append(["train", "--seed", str(seed), "--dataset", str(out / method),
                     "--task", "detect", "--families", ",".join(wl.detect_families)])
        if method != "baseline":
            cmds.append(["train", "--seed", str(seed), "--dataset", str(out / method),
                         "--task", "identify", "--families", ",".join(wl.identify_families)])
    cmds.append(["sweep", "--config", str(inputs / "sweep.json"), "--out", str(out / "report")])
    model = out / "sspe" / "models" / "identify" / f"{wl.identify_families[0]}.json"
    cmds.append([
        "identify", "--seed", str(seed), "--dataset", str(out / "sspe"), "--model", str(model),
        "--registry", str(out / "registry.json"), "--make-registry", "train",
        "--out", str(out / "identification"),
    ])
    return cmds


def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over relative paths and contents, excluding ``.lock`` files,
    and the total bytes hashed."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != ".lock"):
        size = path.stat().st_size
        total += size
        digest.update(str(path.relative_to(root)).encode() + b"\0" + size.to_bytes(8, "little"))
        with path.open("rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
    return digest.hexdigest(), total


def check_outputs(wl: Workload, out: Path) -> tuple[list[str], dict]:
    """Correctness gate on one run's outputs; returns (problems, quality)."""
    problems = []
    for method in wl.methods:
        sidecar = json.loads((out / method / "dataset.json").read_text())
        if (sidecar["rows"], sidecar["feature_width"]) != (wl.windows, wl.feature_width):
            problems.append(f"{method} dataset is {sidecar['rows']} x {sidecar['feature_width']}, "
                            f"expected {wl.windows} x {wl.feature_width}")

    rows = json.loads((out / "report" / "report.json").read_text())["rows"]
    detect = [r for r in rows if r["task"] == "detect"]
    identify = [r for r in rows if r["task"] == "identify"]
    want_detect = len(wl.methods) * len(wl.detect_families) * len(wl.ratios)
    scored = [m for m in wl.methods if m != "baseline"]
    want_identify = len(scored) * len(wl.identify_families) * len(wl.ratios)
    if (len(detect), len(identify), len(rows)) != (want_detect, want_identify,
                                                   want_detect + want_identify):
        problems.append(f"report has {len(detect)} detect + {len(identify)} identify of "
                        f"{len(rows)} rows, expected {want_detect} + {want_identify}")
    f1 = [r["metrics"]["f1"] for r in detect]
    if not f1 or not all(0.0 <= v <= 1.0 for v in f1):
        problems.append("detect F1 missing or outside [0, 1]")

    accuracy = json.loads((out / "identification" / "identification.json").read_text())["accuracy"]
    if not (isinstance(accuracy, float) and 0.0 <= accuracy <= 1.0):
        problems.append(f"identification accuracy {accuracy!r} outside [0, 1]")
    quality = {
        "detect_f1": sum(f1) / len(f1) if f1 else math.nan,
        "ident_accuracy": float(accuracy),
    }
    return problems, quality


class HostProbe:
    """Measures how fast the host runs while the pipeline runs.

    The host's speed changes from second to second and its average over a
    minute drifts by a quarter and more, with the same work.  While a
    command runs, a timer signal every ``INTERVAL_S`` runs a fixed piece of
    work (numpy sorts and prefix sums on a small block, float text
    formatting and parsing, an interpreter loop: the kinds of work the
    pipeline does) in the pipeline's own thread, between two of its
    bytecodes, and records how long it took.  The probe's time is taken out
    of the command's time, and the mean probe time during a stage repeat,
    over ``REFERENCE_S``, is the host's slowness during that repeat.
    """

    INTERVAL_S = 0.1
    REFERENCE_S = 0.010  # the probe's time on this benchmark's reference host

    def __init__(self):
        import numpy as np

        self._np = np
        self._block = np.sin(np.arange(400 * 60, dtype=np.float64)).reshape(400, 60)
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent probing

    def sample(self, *_signal) -> None:
        np = self._np
        start = time.perf_counter()
        for _ in range(2):
            order = np.argsort(self._block, axis=0, kind="stable")
            ordered = np.take_along_axis(self._block, order, axis=0)
            np.cumsum(ordered * ordered, axis=0).min(axis=0)
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in self._block[:25].tolist())
        np.array([line.split(",") for line in text.split("\n")], dtype=np.float64)
        total = 0
        for i in range(35_000):
            total += i * i
        took = time.perf_counter() - start
        self.samples.append(took)
        self.busy += took

    @contextmanager
    def during(self):
        """Probe every ``INTERVAL_S`` inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_command(cli, argv: list[str], tracer, probe: HostProbe | None) -> tuple[int, str, float]:
    """(exit code, captured output, seconds) of one CLI command; the seconds
    exclude the probe's."""
    log = io.StringIO()
    span = nullcontext() if tracer is None else tracer.span(f"cli.{argv[0]}")
    probing = nullcontext() if probe is None else probe.during()
    busy = 0.0 if probe is None else probe.busy
    start = time.perf_counter()
    try:
        with redirect_stdout(log), redirect_stderr(log), span, probing:
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    took = time.perf_counter() - start
    return rc, log.getvalue(), took - (0.0 if probe is None else probe.busy - busy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="run directory (inputs/ and out/)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time for the repeats of all stages; 0 runs each stage once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="scale every time to the reference host speed (see HostProbe)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after writing inputs and importing tspec")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    inputs, out = work / "inputs", work / "out"
    write_inputs(wl, args.seed, inputs, out)
    cli = import_cli()
    ready = time.monotonic()
    # The host's slowness just after set-up, to scale the set-up time by.
    probe = HostProbe() if args.probe else None
    for _ in range(SETUP_PROBES if probe else 0):
        probe.sample()
    setup_slowness = statistics.mean(probe.samples) / probe.REFERENCE_S if probe else 1.0
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_slowness": setup_slowness}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    stage_budget = args.seconds / len(STAGES)
    stages, repeats, problems = {}, {}, []  # repeats: the samples of each stage
    attempted = failed = 0
    for stage, cmds in stage_commands(wl, args.seed, inputs, out).items():
        if failed:
            break
        before = work / f"before-{stage}"
        if out.exists():
            shutil.copytree(out, before)
        samples, raw, first_digest = [], [], None
        while not failed and (not raw or sum(raw) < stage_budget):
            if samples:  # start the repeat from the stage's inputs alone
                shutil.rmtree(out)
                if before.exists():
                    shutil.copytree(before, out)
            took = 0.0
            first_sample = len(probe.samples) if probe else 0
            if probe:
                probe.sample()  # at least one sample per repeat, however short
            for argv_ in cmds:
                attempted += 1
                rc, log, seconds = run_command(cli, argv_, tracer, probe)
                took += seconds
                if rc != 0:
                    failed += 1
                    problems.append(f"{argv_[0]} exited {rc}: {log.strip()[-200:]}")
                    break
            raw.append(took)
            if probe:
                slowness = statistics.mean(probe.samples[first_sample:]) / probe.REFERENCE_S
                took /= slowness
            samples.append(took)
            digest = tree_digest(out)[0]
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                failed += 1  # a repeat of the stage wrote other bytes
                problems.append(f"repeat {len(samples)} of {stage} wrote another output tree")
        shutil.rmtree(before, ignore_errors=True)
        stages[stage] = statistics.median(samples)
        repeats[stage] = {"host_scaled": samples, "wall": raw}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux

    quality = {}
    if not failed:
        try:
            found, quality = check_outputs(wl, out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            found = [f"unreadable outputs: {exc!r}"]
        if found:
            failed += 1  # the outputs failed their check
            problems.extend(found)
    digest, artifact_bytes = tree_digest(out)

    result = {
        "ready": ready,
        "setup_slowness": setup_slowness,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sha256": digest,
        "repeats": repeats,
        "environment": environment(),
        "metrics": {
            "pipeline_s": sum(stages.values()) if not failed else None,
            **stages,
            "peak_rss_mb": peak_kb / 1024.0,
            "artifact_mb": artifact_bytes / 1e6,
            **quality,
        },
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
