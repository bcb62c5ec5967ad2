"""The README quick tour prints what its comments say it prints, and its
config key tables list the keys the loaders read."""

import contextlib
import dataclasses
import io
import json
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


def readme_key_tables() -> dict[str, list[tuple[str, str]]]:
    """Object -> (each backquoted key in its rows of the Object/Key/Default
    tables, the row's Default cell)."""
    tables: dict[str, list[tuple[str, str]]] = {}
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
            tables.setdefault(obj, []).extend(
                (key, cells[2]) for key in re.findall(r"`(\w+)`", cells[1]))
    return tables


# the dataclass each object of the manifold and catalog configs is read into
DATACLASSES = {"manifold": fm.ManifoldData, "surface config": fm.SurfaceConfig,
               "component": fm.SurfaceComponent, "catalog": fm.MapCatalog}


def test_key_tables_list_the_schema_keys():
    tables = readme_key_tables()
    assert {obj: [key for key, _ in rows] for obj, rows in tables.items()} == {
        "config file": list(fm._CONFIG_FILE),
        **{obj: [f.name for f in dataclasses.fields(cls)]
           for obj, cls in DATACLASSES.items()},
        "catalog file": list(fm._CATALOG_FILE),
    }


def test_default_column_is_the_dataclass_defaults():
    tables = readme_key_tables()
    for obj, cls in DATACLASSES.items():
        defaults = dict(tables[obj])
        for f in dataclasses.fields(cls):
            cell = defaults[f.name]
            if cell == "required":
                assert f.default is dataclasses.MISSING, (obj, f.name)
            elif cell == "absent (unknown)":
                assert f.default is None, (obj, f.name)
            else:
                # a JSON value in backquotes; a JSON array feeds a tuple or frozenset
                value = json.loads(cell.strip("`"))
                if isinstance(value, list):
                    value = type(f.default)(value)
                assert value == f.default, (obj, f.name)
