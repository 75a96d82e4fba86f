"""The benchmark's tracer wraps khbn functions by name; a renamed or deleted
one would only show as a missing per-layer metric.  Fail here instead."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def tracer_targets():
    # read TARGETS from the source, so nothing under perfbench/ is imported
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_function_exists():
    targets = tracer_targets()
    assert targets
    for module, function, _ in targets:
        mod = importlib.import_module(f"khbn.{module}")
        assert callable(getattr(mod, function, None)), f"khbn.{module}.{function}"
