"""Tiny-scale self-test of the benchmark itself (about half a minute).

    python3 bench/selftest.py

Checks, on the ``selftest`` workload (every layer and model family, small):
- the untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
  with their units, and passes its correctness checks, its short stages
  repeated and each repeat byte-identical;
- the traced run prints exactly the per-layer metrics of BENCHMARK.json, and
  every span ran, so each wrapper sits where the CLI looks the function up;
- the output gate rejects a report with a missing row;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark (no ``src/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pipeline
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(condition: bool, what: str):
    print(f"[selftest] {'PASS' if condition else 'FAIL'}: {what}")
    if not condition:
        raise SystemExit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    common = ("--workload", "selftest", "--seed", "3", "--seconds", "3")

    rc, lines = run(*common, "--trace", "0")
    result = json.loads(lines[-1])
    check(rc == 0 and result["correct"] and result["failed"] == 0, "untraced run passes its checks")
    repeats = {stage: len(r["wall"]) for stage, r in json.loads(lines[0])["repeats"].items()}
    check(repeats["build_s"] > 1 and repeats["eval_s"] > 1,
          f"short stages repeat within --seconds (repeats: {repeats})")
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, "untraced run prints the end-to-end metrics of BENCHMARK.json")
    check(all(m["value"] > 0 for m in result["metrics"].values()), "end-to-end metrics are > 0")
    environment = json.loads(lines[-2])["environment"]
    check({"python", "numpy", "openblas_threads", "nproc", "git_commit", "input"} <= set(environment),
          "the environment is recorded")

    rc, lines = run(*common, "--trace", "1")
    result = json.loads(lines[-1])
    check(rc == 0 and result["correct"], "traced run passes its checks, same bytes as untraced")
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, "traced run prints the per-layer metrics of BENCHMARK.json")
    idle = [name for name, m in result["metrics"].items()
            if name.endswith(("_s", ".s", ".calls")) and name != "trace.overhead_s"
            and not m["value"] > 0]
    check(not idle, f"every traced layer ran (idle: {idle})")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        out = Path(tmp) / "out"
        wl = WORKLOADS["selftest"]
        pipeline.write_inputs(wl, 3, Path(tmp) / "inputs", out)
        cli = pipeline.import_cli()
        with open(Path(tmp) / "log", "w") as log, pipeline.redirect_stdout(log):
            codes = [cli.main(argv) for argv in pipeline.commands(wl, 3, Path(tmp) / "inputs", out)]
        check(set(codes) == {0}, "every tspec command exits 0")
        check(pipeline.check_outputs(wl, out)[0] == [], "the output gate accepts a good run")
        report = out / "report" / "report.json"
        payload = json.loads(report.read_text())
        payload["rows"].pop()
        report.write_text(json.dumps(payload))
        check(pipeline.check_outputs(wl, out)[0] != [], "the output gate rejects a missing row")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = run("--workload", "acceptance", "--seed", "0", "--seconds", "1", cwd=bare)
        check(rc != 0 and not lines, "without src/ the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
