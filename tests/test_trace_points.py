"""The benchmark's trace points resolve in the program.

``perfbench/spans.py`` wraps each traced function at the module attribute
its callers look it up by. A rename there would not fail the benchmark;
it would silently drop the function's spans from ``--trace 1``. So every
``TRACE_POINTS`` entry is resolved here exactly as ``Tracer.install``
resolves it.
"""

import importlib
import os
import runpy

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


TRACE_POINTS = runpy.run_path(SPANS_PATH)["TRACE_POINTS"]


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in TRACE_POINTS])
def test_trace_point_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{module_name}.{attr} is not defined where it is traced"
    assert callable(owner.__dict__[leaf])
