"""Every name the benchmark tracer wraps resolves in the package.

The tracer reads a name it cannot find as zero calls, so a deleted or
renamed target would only show as a layer that reads 0.  This test reads
the target tables from ``benchmarks/tracing.py`` without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute path) pairs of TARGETS and MEMO_TARGET."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "MEMO_TARGET"):
                tables[name] = ast.literal_eval(node.value)
    return [(module, path) for _, module, path in tables["TARGETS"]] + [
        tables["MEMO_TARGET"]]


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"knotforge.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert len(targets) > 20
    assert missing == []
