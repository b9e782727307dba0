"""The README's code examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    block = _library_block()
    wanted = [line.split("# ", 1)[1].strip()
              for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(wanted) > 0
    for got, want in zip(printed, wanted):
        if want.endswith("…"):
            assert got.startswith(want[:-1]), (got, want)
        else:
            assert got == want, (got, want)
