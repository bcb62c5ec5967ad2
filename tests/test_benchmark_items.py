"""Every benchmark workload item runs once and passes its own check.

The workloads of ``benchmarks/workloads.py`` are loaded by path and handed
the knotforge modules this suite has already imported, so a library change
that breaks the benchmark's set-up or its checks fails here too.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from knotforge import diagram, family, fourmanifold, invariants, laurent, skein

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
LIB = SimpleNamespace(diagram=diagram, skein=skein, laurent=laurent,
                      invariants=invariants, family=family, fourmanifold=fourmanifold)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_item_passes_its_check(name):
    workload = workloads.WORKLOADS[name]
    items = workload.make_inputs(LIB, 1)
    assert items
    problems = [problem for item in items
                if (problem := workload.check_item(item, workload.run_item(LIB, item)))
                is not None]
    assert problems == []
