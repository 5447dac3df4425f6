"""Benchmark the tspec CLI pipeline end to end, or traced layer by layer.

    python3 bench/run.py --workload acceptance --seed 0 --seconds 24 --trace 0

With ``--trace 0`` one pipeline process (see pipeline.py) runs the
workload's stages, each repeated for a third of ``--seconds``, and the
end-to-end metrics come from the medians of its stage repeats.  Set-up
processes that stop once tspec is imported run before and after it; their
median is ``setup_s``.  With ``--trace 1`` two pipeline processes run every
stage once, one untraced and one traced; the per-layer metrics come from the
traced one, ``trace.overhead_s`` is the difference of their ``pipeline_s``,
and both must write the same output tree.

Child processes run one after another, never two at once, with numerical
libraries held to one thread each (``OPENBLAS_NUM_THREADS=1`` and kin).

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI commands, plus one for each failed output check) and
``metrics``.  The line before it records the environment.  Any failed check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# Set-up-only processes before the pipeline process, and as many after it.
SETUP_SAMPLES_EACH_SIDE = 3
CHILD_TIMEOUT_S = 150
# One thread per numerical library: the host has few cores, shared, and
# idle BLAS threads spinning beside the pipeline would measure the scheduler.
CHILD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "build_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "detect_f1": "ratio",
    "ident_accuracy": "ratio",
}


class BenchError(Exception):
    """A child process failed to produce a result."""


def spawn(workload: str, seed: int, work: Path, *flags: str) -> tuple[dict, float]:
    """Run pipeline.py once; returns its JSON result and its set-up time
    (from spawning the process to tspec being imported)."""
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"pipeline timed out after {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"pipeline exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready"] - spawned) / result["setup_slowness"]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path):
    """(metrics, attempted, failed, problems, environment) of one invocation."""
    if trace:
        untraced, _ = spawn(workload, seed, work / "untraced", "--trace", "0")
        traced, _ = spawn(workload, seed, work / "traced", "--trace", "1")
        runs = [untraced, traced]
    else:
        def setup_only(name: str) -> float:
            return spawn(workload, seed, work / name, "--setup-only", "--probe")[1]

        setups = [setup_only(f"setup-before{i}") for i in range(SETUP_SAMPLES_EACH_SIDE)]
        result, setup = spawn(workload, seed, work / "run", "--seconds", str(seconds), "--probe")
        setups.append(setup)
        setups += [setup_only(f"setup-after{i}") for i in range(SETUP_SAMPLES_EACH_SIDE)]
        runs = [result]

    for index, result in enumerate(runs):
        print(json.dumps({"run": index, "traced": trace and index == 1, "repeats": result["repeats"],
                          "failed": result["failed"], "problems": result["problems"],
                          "metrics": result["metrics"]}))
    problems = [p for r in runs for p in r["problems"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    if trace:
        if untraced["sha256"] != traced["sha256"]:
            problems.append("the traced and the untraced run wrote different output trees")
            failed += 1
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (None if failed else traced["metrics"]["pipeline_s"]
                                       - untraced["metrics"]["pipeline_s"])
        metrics["failed_ops"] = failed / attempted
    else:
        metrics = {"setup_s": statistics.median(setups), **runs[0]["metrics"]}
    return metrics, attempted, failed, problems, runs[-1]["environment"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24,
                        help="time for the stage repeats; every stage runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "tspec" / "cli.py").is_file():
        print(f"bench: no tspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        metrics, attempted, failed, problems, environment = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wl = WORKLOADS[args.workload]
    environment.update(
        git_commit=git_commit(),
        workload=args.workload,
        seed=args.seed,
        input={"seconds": wl.seconds, "windows": wl.windows, "feature_width": wl.feature_width},
    )
    print(json.dumps({"environment": environment}))
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    units = {n: spans.unit(n) for n in spans.PER_LAYER} if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,  # every problem found counts as a failed operation
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
