"""The python block of README.md (the library quick tour) runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["pass", "pass"]
    assert len(lines) == 2 + 4  # one Whittaker value per coset of the degree-2 cover of GL_2
