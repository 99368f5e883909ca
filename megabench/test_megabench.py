"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q megabench

The smoke runs start ``run.py`` once per workload and tracing mode with the
shortest run length, so each operation runs its minimum number of times.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from megagcl import graphdata  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generator_is_deterministic(tmp_path):
    files = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        folder = synth.write_tu(tmp_path / tag, "G", 6, seed)
        files[tag] = {p.name: p.read_bytes() for p in folder.iterdir()}
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]
    assert len(files["a"]) == 4


def test_generated_graphs_have_the_stated_shape(tmp_path):
    ds = graphdata.parse_tu_dataset(synth.write_tu(tmp_path, "G", 8, 3), "G")
    assert len(ds) == 8 and ds.n_classes == 2
    for rec in ds.records:
        assert synth.MIN_NODES <= rec.n_nodes <= synth.MAX_NODES
        assert len(rec.topology.edges) == 4 * rec.n_nodes  # mean degree 4
        assert set(rec.node_labels) <= set(range(synth.N_LABELS))


def test_self_times_on_a_hand_built_tree():
    S = tracing.Span
    spans = [S("root", 0.0, 10.0),
             S("a", 1.0, 4.0, parent=0),
             S("a.x", 1.5, 2.0, parent=1),
             S("a.y", 3.0, 3.5, parent=1),
             S("b", 6.0, 9.0, parent=0),
             S("b.x", 6.5, 7.5, parent=4),   # overlapping children count
             S("b.y", 7.0, 8.0, parent=4),   # their union once
             S("b.z", 8.5, 9.5, parent=4),   # clipped to the parent
             S("other-root", 20.0, 21.0)]
    assert tracing.self_times(spans) == pytest.approx(
        [4.0, 2.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0])


def test_self_times_under_a_step_add_up_to_its_duration():
    S = tracing.Span
    spans = [S("training.contrast_step", 0.0, 10.0),
             S("gnn.encode", 2.0, 5.0, parent=0),
             S("autodiff.prim.mul", 3.0, 4.0, parent=1),
             S("autodiff.backward.first", 6.0, 9.0, parent=0)]
    selfs = tracing.self_times(spans)
    assert workloads.step_self_sums_match(spans, selfs)
    selfs[2] += 0.5
    assert not workloads.step_self_sums_match(spans, selfs)


def test_host_speed_scales_a_sample_by_the_marks_around_it():
    ref = hostspeed.REFERENCE_S
    speed = hostspeed.HostSpeed()
    speed.starts = [0.0, 2.0, 5.0]
    speed.loops = [ref, 2 * ref, 4 * ref]
    assert speed.scaled([(1.0, 1.5), (3.0, 4.0), (6.0, 7.0)]) == \
        pytest.approx([0.5 / 1.5, 1.0 / 3.0, 1.0 / 4.0])
    speed.mark()
    assert len(speed.loops) == 4 and speed.loops[-1] > 0
    with pytest.raises(ValueError):
        hostspeed.HostSpeed().scaled([(0.0, 1.0)])


def test_tracer_restores_attributes_and_reports_missing_names():
    import types
    module = types.ModuleType("pkg.mod")
    module.f = lambda x: x + 1
    original = module.f
    targets = [tracing.Target(module, "f"), tracing.Target(module, "gone")]
    with tracing.Tracer(targets) as tracer:
        assert module.f(1) == 2
        assert module.f is not original
    assert module.f is original
    assert tracer.missing == ["mod.gone"]
    assert [s.name for s in tracer.spans] == ["mod.f"]


def test_metric_names_and_benchmark_file_agree():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == workloads.END_TO_END
    assert layers == workloads.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    for name in [*e2e, *layers, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert len(layers) <= 128


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "megabench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    want = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "megabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "mutag-mega", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
