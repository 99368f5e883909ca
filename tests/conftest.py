import faulthandler
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy

from megagcl import autodiff as ad
from megagcl import graphdata as gd
from megagcl import openblas

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_ROOT = Path(os.environ.get("MEGA_DATA_ROOT", REPO_ROOT / "data"))


# seconds a test may take before the run ends with every thread's stack
HANG_SECONDS = 300
_stderr = None


def pytest_configure(config):
    # the terminal's stderr, copied while pytest captures nothing: a run the
    # watchdog ends never shows what a test's capture held
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def fail_a_hung_test():
    """End the run, with every thread's stack, once a test has taken
    ``HANG_SECONDS``: a deadlocked pool then fails the suite instead of
    stalling it."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_report_header(config):
    """The BLAS thread settings the run started with and the thread count
    OpenBLAS uses, since same-seed bits can differ between thread counts;
    importing the package sets one."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"BLAS thread settings: {threads}; OpenBLAS threads: "
            f"{openblas.threads()}; cpu_count={os.cpu_count()}; "
            f"numpy {np.__version__}, scipy {scipy.__version__}")


@pytest.fixture(scope="session")
def mutag():
    return gd.parse_tu_dataset(DATA_ROOT, "MUTAG")


def synth_module():
    """``megabench/synth.py``, the benchmark's seeded TU-file writer."""
    megabench = str(REPO_ROOT / "megabench")
    sys.path.insert(0, megabench)
    try:
        import synth
    finally:
        sys.path.remove(megabench)
    return synth


@pytest.fixture(scope="session")
def synth_folder(tmp_path_factory):
    """The TU files of 64 graphs of 150-250 nodes, dataset name ``SYN``."""
    return synth_module().write_tu(tmp_path_factory.mktemp("synth"), "SYN",
                                   64, 0)


@pytest.fixture(scope="session")
def synth_records(synth_folder):
    """The ``synth_folder`` graphs with node-label one-hot features."""
    ds = gd.parse_tu_dataset(synth_folder, "SYN")
    return gd.build_node_features(ds, "node-label-onehot").records


@pytest.fixture
def tape():
    t = ad.Tape()
    with ad.use_tape(t):
        yield t


@pytest.fixture
def pool(monkeypatch):
    """autodiff's pool, with one worker of the test's own on a one-CPU
    host."""
    if ad._POOL is not None:
        yield ad._POOL
        return
    executor = ThreadPoolExecutor(1)
    monkeypatch.setattr(ad, "_POOL", executor)
    monkeypatch.setattr(ad, "_THREADS", 2)
    yield executor
    executor.shutdown()


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; returns the list of its calls'
    positional arguments, which grows as it is called."""
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def write_tu_fixture(folder, name, a_lines, indicator, graph_labels,
                     node_labels=None):
    folder = Path(folder)
    folder.mkdir(parents=True, exist_ok=True)
    (folder / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (folder / f"{name}_graph_indicator.txt").write_text(
        "\n".join(map(str, indicator)) + "\n")
    (folder / f"{name}_graph_labels.txt").write_text(
        "\n".join(map(str, graph_labels)) + "\n")
    if node_labels is not None:
        (folder / f"{name}_node_labels.txt").write_text(
            "\n".join(map(str, node_labels)) + "\n")
    return folder


def two_triangles(tmp_path, name="TRI", labels=(1, 2)):
    a = []
    for off in (0, 3):
        for u, v in [(1, 2), (2, 3), (1, 3)]:
            a.append(f"{off + u}, {off + v}")
            a.append(f"{off + v}, {off + u}")
    return write_tu_fixture(tmp_path, name, a,
                            indicator=[1, 1, 1, 2, 2, 2],
                            graph_labels=list(labels),
                            node_labels=[0, 1, 0, 1, 0, 1])


def ring_record(n, label, phase=0):
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
    topo = gd.GraphTopology(n, edges)
    node_labels = [(i + phase) % 2 for i in range(n)]
    return gd.GraphRecord(topo, label, node_labels)


def star_record(n, label):
    edges = [(0, i) for i in range(1, n)]
    topo = gd.GraphTopology(n, edges)
    return gd.GraphRecord(topo, label, [i % 2 for i in range(n)])


def synthetic_dataset(n_per_class=12, seed=0, feature_cap=4):
    """Two visibly different families (rings vs stars), degree features."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_per_class):
        records.append(ring_record(int(rng.integers(4, 7)), 0))
        records.append(star_record(int(rng.integers(4, 7)), 1))
    ds = gd.Dataset(name="SYN", records=records, n_classes=2)
    return gd.build_node_features(ds, "degree-onehot", cap=feature_cap)
