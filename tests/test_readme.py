"""The README quick tour prints what its comments say it prints, and its
config key tables list the keys the loaders read."""

import contextlib
import io
import re
from pathlib import Path

from knotforge import fourmanifold as fm

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


def readme_key_tables() -> dict[str, list[str]]:
    """Object -> the backquoted keys in its rows of the Object/Key/Default tables."""
    tables: dict[str, list[str]] = {}
    in_table = False
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if cells == ["Object", "Key", "Default"]:
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and cells[0] != "---":
            # a row with an empty Object cell continues the object above it
            obj = cells[0].strip("`") or obj
            tables.setdefault(obj, []).extend(re.findall(r"`(\w+)`", cells[1]))
    return tables


def test_key_tables_list_the_schema_keys():
    assert readme_key_tables() == {
        "config file": list(fm._CONFIG_FILE),
        "manifold": list(fm._MANIFOLD),
        "surface config": list(fm._SURFACE_CONFIG),
        "component": list(fm._COMPONENT),
        "catalog file": list(fm._CATALOG_FILE),
        "catalog": list(fm._CATALOG),
    }
