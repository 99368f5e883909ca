import importlib
import pkgutil

import numpy as np
import pytest

import megagcl
from megagcl import evaluation as ev
from megagcl import gnn
from megagcl import graphdata as gd
from megagcl import training as tr
from megagcl.errors import ConfigError, DataError

from conftest import synthetic_dataset


def test_every_module_imports():
    names = [m.name for m in pkgutil.iter_modules(megagcl.__path__,
                                                  "megagcl.")]
    assert "megagcl.evaluation" in names
    for name in names:
        importlib.import_module(name)


def test_batched_embeddings_equal_one_graph_at_a_time():
    ds = synthetic_dataset()
    phi, _, _ = gnn.init_params(gnn.ModelDims(feature_dim=ds.feature_width),
                                seed=0)
    batched = ev.embed_dataset(phi, ds)
    alone = ev.embed_dataset(phi, ds, batch_size=1)
    assert batched.vectors.shape == (len(ds), phi.layers[-1].w2.shape[1])
    np.testing.assert_allclose(batched.vectors, alone.vectors, rtol=0,
                               atol=1e-9)
    np.testing.assert_array_equal(batched.labels, ds.labels)


@pytest.mark.parametrize("mode", ["mega", "ccl", "gin-riu"])
def test_run_protocol_gives_one_accuracy_per_run(mode):
    hp = tr.Hyperparams(epochs=2, batch_size=8)
    result = ev.run_protocol(synthetic_dataset(), hp, mode=mode, n_runs=2)
    assert len(result.accuracies) == 2
    for acc in result.accuracies:
        assert np.isfinite(acc) and 0.0 <= acc <= 1.0
    assert result.mean == pytest.approx(np.mean(result.accuracies))


@pytest.mark.parametrize("n_runs", [0, -1])
def test_run_protocol_rejects_fewer_than_one_run(n_runs):
    with pytest.raises(ConfigError, match="n_runs"):
        ev.run_protocol(synthetic_dataset(), tr.Hyperparams(epochs=1),
                        mode="gin-riu", n_runs=n_runs)


def test_embed_dataset_rejects_batch_size_below_one():
    ds = synthetic_dataset()
    phi, _, _ = gnn.init_params(gnn.ModelDims(feature_dim=ds.feature_width),
                                seed=0)
    with pytest.raises(ConfigError, match="batch_size"):
        ev.embed_dataset(phi, ds, batch_size=0)


def _table(n=20, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    return ev.EmbeddingTable(rng.standard_normal((n, dim)) + labels[:, None],
                             labels)


def test_linear_probe_rejects_empty_test_split():
    split = gd.SplitResult(list(range(16)), [16, 17], [], stratified=False)
    with pytest.raises(DataError, match="test split is empty"):
        ev.linear_probe(_table(), split)


def test_linear_probe_rejects_empty_val_split():
    split = gd.SplitResult(list(range(16)), [], [16, 17], stratified=False)
    with pytest.raises(DataError, match="val split is empty"):
        ev.linear_probe(_table(), split)


def _bare_dataset():
    """Two graphs per class and no node features."""
    records = [gd.GraphRecord(gd.GraphTopology(2, [(0, 1), (1, 0)]), c)
               for c in (0, 1) for _ in range(2)]
    return gd.Dataset("BARE", records, 2)


@pytest.mark.parametrize("dataset, mode", [
    (gd.Dataset("EMPTY", [], 0), "gin-riu"),
    (gd.Dataset("EMPTY", [], 0), "mega"),
    (_bare_dataset(), "gin-riu"),
    (_bare_dataset(), "ccl"),
    (synthetic_dataset(), "nope"),
], ids=["empty-gin-riu", "empty-mega", "no-features-gin-riu",
        "no-features-ccl", "unknown-mode"])
def test_run_protocol_rejects_bad_input_before_any_split(monkeypatch,
                                                         dataset, mode):
    def no_split(*args):
        raise AssertionError("split before the input was checked")

    monkeypatch.setattr(ev, "split_dataset", no_split)
    with pytest.raises(ConfigError):
        ev.run_protocol(dataset, tr.Hyperparams(epochs=1), mode=mode,
                        n_runs=1)


def test_embed_dataset_rejects_an_empty_dataset():
    phi, _, _ = gnn.init_params(gnn.ModelDims(feature_dim=3), seed=0)
    with pytest.raises(DataError, match="no graphs"):
        ev.embed_dataset(phi, gd.Dataset("EMPTY", [], 0))
