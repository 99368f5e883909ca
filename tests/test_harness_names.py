"""The benchmark harness under ``megabench/`` calls the package by name.

A change to the package that deletes or renames one of those names breaks
the benchmark, not the package's own tests; these tests fail first.
"""

import ast
import sys
from pathlib import Path

import pytest

from megagcl import augmenter, gnn, training
from megagcl import autodiff as ad

MEGABENCH = Path(__file__).resolve().parent.parent / "megabench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(MEGABENCH))
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path.remove(str(MEGABENCH))


def test_every_traced_function_exists(harness):
    tracing, workloads = harness
    with tracing.Tracer(workloads.trace_targets()) as tracer:
        pass
    assert tracer.missing == []


def test_every_module_attribute_the_harness_reads_exists(harness):
    _, workloads = harness
    modules = {name: getattr(workloads, name) for name in
               ("augmenter", "gnn", "graphdata", "losses", "training", "ad")}
    used = set()
    for path in MEGABENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                used.add((node.value.id, node.attr))
    assert {("training", "init_train_state"), ("training", "meta_gradients"),
            ("losses", "mega_loss"), ("losses", "nt_xent"),
            ("losses", "instance_corr"), ("losses", "feature_corr")} <= used
    missing = sorted(f"{m}.{a}" for m, a in used
                     if not hasattr(modules[m], a))
    assert missing == []


def test_the_methods_the_harness_calls_exist():
    # the attribute scan above cannot see methods called on instances
    for owner, name in [(gnn.EncoderParams, "from_tensors"),
                        (gnn.MlpParams, "from_tensors"),
                        (augmenter.AugmenterParams, "from_tensors"),
                        (training.TrainState, "adopt_all"),
                        (ad.Tape, "paused"), (ad.Tape, "reset"),
                        (ad.Tape, "adopt"), (gnn.MlpParams, "tensors"),
                        (gnn.EncoderParams, "tensors")]:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
