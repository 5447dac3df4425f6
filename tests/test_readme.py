"""The README's "Library use" and CSV export examples run as written, and
its tables of config keys and timeline fields list what the code defines."""

import contextlib
import io
import json
import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue().strip()


def test_config_key_table_lists_every_key():
    from tspec.cli import _ALL, KEYS

    section = README.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| `(.*?)` \| (.*?) \|", section, re.M)
    table = {name: (default, flags) for name, default, flags in rows}
    assert list(table) == list(KEYS)
    for name, key in KEYS.items():
        flags = "all" if key.flag == _ALL else ", ".join(key.flag) or "—"
        assert table[name] == (json.dumps(key.default), flags), name


def test_timeline_field_list_matches_the_dataclass():
    from dataclasses import fields

    from tspec import PacketTimeline

    section = README.read_text(encoding="utf-8").split("A `PacketTimeline` stores", 1)[1]
    listed = re.findall(r"^- `(\w+)`:", section.split("\n\n", 2)[1], re.M)
    assert listed == [f.name for f in fields(PacketTimeline)]


def test_csv_export_example_runs(tmp_path, monkeypatch):
    from tspec import cli

    section = README.read_text(encoding="utf-8").split("To export the rows", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "three_attacks.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build-dataset", "--scenario", str(scenario), "--window", "10",
                         "--out", "work/sspe"]) == 0
    exec(compile(textwrap.dedent(example), str(README), "exec"), {})
    sidecar = json.loads((tmp_path / "work" / "sspe" / "dataset.json").read_text())
    lines = [(tmp_path / f"{name}.csv").read_text().splitlines() for name in ("train", "test")]
    assert sum(map(len, lines)) == sidecar["rows"]
    assert {line.count(",") for part in lines for line in part} == {sidecar["feature_width"] + 1}
