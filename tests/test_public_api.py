"""Every public method and property of PDDiagram and LaurentPoly is used by
the package, the demos or the benchmarks.

A name that only the tests call is API kept for the tests alone; the tests
read the private fields instead.  A use is an attribute access ``.name``
anywhere in those trees outside the name's own definition.
"""

import ast
from pathlib import Path

from test_tracer_targets import tracer_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "knotforge"
CLASSES = {"PDDiagram": SRC / "diagram.py", "LaurentPoly": SRC / "laurent.py"}
# the benchmark tracer wraps PDDiagram.smooth_crossing by its dotted name,
# which no attribute access spells, and test_tracer_targets requires it
ALLOWED = {"smooth_crossing"}


def public_members() -> dict[str, set[str]]:
    """Class name -> the names of its public methods and properties."""
    members = {}
    for cls, path in CLASSES.items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                members[cls] = {f.name for f in node.body
                                if isinstance(f, ast.FunctionDef)
                                and not f.name.startswith("_")}
    return members


def attribute_uses(tree: ast.AST, members: dict[str, set[str]]) -> set[str]:
    """The attribute names read in tree, skipping the body of each member's
    own definition."""
    used = set()

    def visit(node, cls=None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef) and node.name in members.get(cls, ()):
            return
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree)
    return used


def test_no_public_member_is_used_by_tests_only():
    members = public_members()
    assert set(members) == set(CLASSES)
    used = set()
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "benchmarks").glob("*.py")]
    for path in files:
        used |= attribute_uses(ast.parse(path.read_text(encoding="utf-8")), members)
    unused = sorted(f"{cls}.{name}" for cls, names in members.items()
                    for name in names - used - ALLOWED)
    assert unused == []


def test_allowed_names_are_public_tracer_targets():
    # an allowed name that stopped being a public member or a tracer target
    # would hide an unused one
    members = public_members()
    targets = set(tracer_targets())
    for name in ALLOWED:
        owners = [cls for cls, names in members.items() if name in names]
        assert owners, name
        assert any((path.stem, f"{cls}.{name}") in targets
                   for cls in owners for path in [CLASSES[cls]]), name
