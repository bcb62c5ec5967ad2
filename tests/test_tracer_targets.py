"""Every name the benchmark tracer wraps resolves in the package.

The tracer reads a name it cannot find as zero calls, so a deleted or
renamed target would only show as a layer that reads 0.  This test reads
the target tables from ``benchmarks/tracing.py`` without importing it.
"""

import importlib

from conftest import tracer_targets


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
