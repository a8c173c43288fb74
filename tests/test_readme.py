"""README's library sketch runs, and prints what its comments say.

The expected output of a ``print`` line is its trailing comment or, when it
has none, the comment line right after it.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library sketch") :]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the library sketch has no python block"
    return match.group(1).splitlines()


def _expected(lines: list[str]) -> list[str]:
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, sep, comment = line.partition("  # ")
        if not sep:
            assert lines[i + 1].startswith("# "), f"no expected output for {line!r}"
            comment = lines[i + 1].removeprefix("# ")
        out.append(comment.strip())
    return out


def test_library_sketch_prints_its_comments():
    lines = _sketch()
    expected = _expected(lines)
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("\n".join(lines), str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
