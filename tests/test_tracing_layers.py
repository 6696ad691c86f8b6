"""Every function the benchmark's traced run wraps must exist in simtree, and
every work counter must read a real call of the function it names, so that a
rename or a changed signature fails here rather than in a traced benchmark
run."""

import ast
import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from reference_kernels import delete_labels
from simtree.fixtures import bipyramid
from simtree.laurent import X_coarse
from simtree.trees import star_ridges
from simtree.weighted import weighted_up_down_laplacian

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# One real call per function that a COUNTERS reader of perfbench/tracing.py
# reads: the arguments that call passes.
COUNTED_CALLS = {
    "exactlinalg.bareiss_det": lambda: ([[2, 1, 0], [1, 2, 1], [0, 1, 2]],),
    "trees.up_down_laplacian": lambda: (bipyramid(), 2),
    "trees.enumerate_ssts": lambda: (bipyramid(), 2),
    "laurent.mul": lambda: (X_coarse(1) + X_coarse(2), X_coarse(3) + X_coarse(1)),
    "weighted.symbolic_det": lambda: (
        delete_labels(weighted_up_down_laplacian(bipyramid(), "coarse"),
                      star_ridges(bipyramid(), 1, 1)),),
}


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


def _resolve(module_name, attr):
    target = importlib.import_module(f"simtree.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_tracing_counters_read_real_calls():
    # each counter is applied to the arguments and result of one real call of
    # the function it names, as the traced run applies it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.COUNTERS) == set(COUNTED_CALLS)
    functions = {f"{module}.{short}": (module, attr) for module, attr, short, _ in tracing.LAYERS}
    for name, counter in tracing.COUNTERS.items():
        args = COUNTED_CALLS[name]()
        result = _resolve(*functions[name])(*args)
        stats = defaultdict(int)
        counter(stats, args, result)
        assert stats and all(v > 0 for v in stats.values()), name
