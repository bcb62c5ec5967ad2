"""The README quick tour prints what its comments say it prints."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The ```python block under the "## Quick tour" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Quick tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_quick_tour_prints_its_comments():
    code = quick_tour()
    # each print( line ends in "# <the line it prints>"
    expected = [line.partition(" # ")[2].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
