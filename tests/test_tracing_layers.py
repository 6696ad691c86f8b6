"""Every function the benchmark's traced run wraps must exist in simtree, so
that a rename fails here rather than in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    """The literal LAYERS table of perfbench/tracing.py, read without running it."""
    for node in ast.parse(TRACING.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS table")


def test_tracing_layers_resolve():
    layers = _layers()
    assert layers
    for module_name, attr, *_ in layers:
        target = importlib.import_module(f"simtree.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"simtree.{module_name}.{attr} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"simtree.{module_name}.{attr} is not callable"
