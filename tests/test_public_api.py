"""Every public method and property of PDDiagram, LaurentPoly and KnotTable,
and every name the package re-exports, is used by the package, the demos or
the benchmarks.

A name that only the tests call is API kept for the tests alone; the tests
read the private fields instead.  A use of a member is an attribute access
``.name`` anywhere in those trees outside the name's own definition; a use
of a re-exported name is also a plain name read.  The ``__all__`` strings
and the import statements that re-export a name are no use of it.
"""

import ast
from pathlib import Path

from conftest import tracer_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "knotforge"
CLASSES = {"PDDiagram": SRC / "diagram.py", "LaurentPoly": SRC / "laurent.py",
           "KnotTable": SRC / "family.py"}
# the benchmark tracer wraps PDDiagram.smooth_crossing and
# PDDiagram.reduce_r1 by their dotted names, which no attribute access
# spells, and test_tracer_targets requires them
ALLOWED = {"smooth_crossing", "reduce_r1"}


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


def reexported_names() -> set[str]:
    """The names knotforge/__init__.py imports from its modules."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def name_reads(tree: ast.AST) -> set[str]:
    """The names and attribute names read in tree, each outside the body of
    its own function or class definition."""
    used = set()

    def visit(node, own=frozenset()):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        elif isinstance(node, ast.Name) and node.id not in own:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree)
    return used


def test_no_reexported_name_is_used_by_tests_only():
    names = reexported_names()
    assert {"PDDiagram", "surgery_invariants", "verify_family"} <= names
    used = set()
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "benchmarks").glob("*.py")]
    for path in files:
        used |= name_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(names - used) == []


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
