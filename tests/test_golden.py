"""Golden bytes: the SHA-256 of every file that the benchmark's ``selftest``
workload (``bench/workloads.py``: W=4, d_model 4, every label method, every
model family, noise ratios 0 and 1) writes at seed 0, run in-process through
``tspec.cli.main``.  The test fails when one byte of one file changes.  A
change that alters artifacts on purpose rewrites the manifest, whose diff
then lists exactly the files it changed:

    PYTHONPATH=src python tests/test_golden.py --rewrite

GLM model files depend on the BLAS build and its thread count (README
"Determinism"); at this workload's size they matched under OpenBLAS on one
and on two threads.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from tspec.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_selftest.json")
SEED = 0

# The benchmark's workload table and command list, imported read-only;
# ``pipeline`` imports ``workloads`` by its bare name.
sys.path.insert(0, str(ROOT / "bench"))
import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def artifact_hashes(work: Path) -> dict[str, str]:
    """Run the ``selftest`` workload's commands under ``work`` and return
    the SHA-256 of every file they wrote, by path under the output tree."""
    wl = WORKLOADS["selftest"]
    inputs, out = work / "inputs", work / "out"
    pipeline.write_inputs(wl, SEED, inputs, out)
    for argv in pipeline.commands(wl, SEED, inputs, out):
        with redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"tspec {' '.join(argv)} exited {code}")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != ".lock"
    }


def changed_files(want: dict, got: dict) -> list[str]:
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def test_selftest_artifacts_keep_their_bytes(tmp_path):
    want = json.loads(MANIFEST.read_text())
    got = artifact_hashes(tmp_path)
    assert len(got) == 30
    assert changed_files(want, got) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = artifact_hashes(Path(tmp))
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    MANIFEST.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    for name in changed_files(old, hashes):
        print(f"changed: {name}")
