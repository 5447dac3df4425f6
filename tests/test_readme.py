"""The README's "Library use" example runs as written."""

import contextlib
import io
import re
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
